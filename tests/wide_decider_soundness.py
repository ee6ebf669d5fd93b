"""Check the decider's verdicts past the test suite's p <= 8: at each p from
9 to 16, on seeded random formulas, every proof's verdict is the bit of
`sat.satisfying_mask` at its decoded value, and every accepted certificate
satisfies the formula under perfbench/reference.py's clause evaluator.

Run from the repository root:

    PYTHONPATH=src python tests/wide_decider_soundness.py

Each p draws formulas of p clauses, which are mostly satisfiable, and of
6p clauses, which are mostly unsatisfiable.  Each is decided in both
layouts by the command's learner for the layout, in 2^DECIDER_M proofs a
repetition, and by a guessing learner, in 2^GUESS_M.  The command's
learners decode nearly every proof to 0 at these p; the guessing learner's
hypothesis is a pseudo-random word seeded by its sample, so its proofs
decode to values spread over the message space.  Soundness must hold for
any learner.  A proof's verdict is read off its run: the decider stops at
the first accepting proof, so every decoded value before the last is
rejected, and the last is accepted exactly when the decider accepts.
Prints one line per p and exits 1 on a mismatch, unless satisfiable and
unsatisfiable formulas, accepts and more than one decoded value at each p
all occur.
"""

from __future__ import annotations

import random
import re
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from reference import lex_first_solution, satisfies  # noqa: E402

from certlab.bits import int_to_bits  # noqa: E402
from certlab.codes import REDUCTION_CODE_PARAMS, LinearCode  # noqa: E402
from certlab.concepts import LAYOUT_KINDS, ExampleLayout, JuntaHypothesis  # noqa: E402
from certlab.paclearn import junta_learner, sparse_erm  # noqa: E402
from certlab.reduction import DeciderConfig, sat_decider  # noqa: E402
from certlab.sat import random_instance, satisfying_mask  # noqa: E402
from certlab.verifiers import FormulaEncoding, ThreeSatVerifier  # noqa: E402

FORMULAS = 10  # per p and clause density
DENSITIES = (1, 6)  # clauses per variable
DECIDER_M = 10
GUESS_M = 5
REPETITIONS = 3


def record_decodes() -> list[int]:
    """Every value `LinearCode.decode_value` returns from now on, in order."""
    decoded: list[int] = []
    real = LinearCode.decode_value

    def recording(self, y_int):
        decoded.append(real(self, y_int))
        return decoded[-1]

    LinearCode.decode_value = recording
    return decoded


def guessing_learner(layout: ExampleLayout):
    """A learner whose hypothesis ignores the labels' meaning: a junta on the
    layout whose word is drawn from a generator seeded by the sample."""

    def learn(sample):
        return JuntaHypothesis(random.Random(str(sample)).getrandbits(layout.cp), layout)

    return learn


def runs(v: ThreeSatVerifier):
    """(name, learner, decider config) of each decider run at v's p."""
    for variant in LAYOUT_KINDS:
        layout = ExampleLayout.of(v.n, REDUCTION_CODE_PARAMS, v.p, variant)
        learner = partial(junta_learner, layout=layout) if variant == "uniform" else sparse_erm
        for name, fn, m in (("command", learner, DECIDER_M), ("guess", guessing_learner(layout), GUESS_M)):
            yield f"{variant}/{name}", fn, DeciderConfig(m, REPETITIONS, REDUCTION_CODE_PARAMS, variant)


def main() -> int:
    decoded = record_decodes()
    outcomes, accepts = set(), 0
    for p in range(9, 17):
        rng = random.Random(f"wide-decider:{p}")
        v = ThreeSatVerifier(FormulaEncoding(max_vars=p, max_clauses=max(DENSITIES) * p))
        proofs, values, p_accepts = 0, set(), 0
        for density in DENSITIES:
            for i in range(FORMULAS):
                inst = random_instance(rng, p, density * p)
                mask = satisfying_mask(inst, p)
                outcomes.add(lex_first_solution(p, inst.clauses) is None)
                for name, learner, config in runs(v):
                    decoded.clear()
                    report = sat_decider(inst, v, config, learner, f"{p}:{density}:{i}")
                    accepted = [j for j, w in enumerate(decoded) if mask >> w & 1]
                    where = f"p={p} clauses={density * p} formula {i} {name}"
                    if accepted != ([len(decoded) - 1] if report.accept else []):
                        print(f"{where}: mask bit 1 at proofs {accepted[:5]} of {len(decoded)},"
                              f" accept={report.accept}")
                        return 1
                    if report.accept:
                        digest = report.result.repetitions[-1].digest
                        w = int(re.search(r"wtilde=0x([0-9a-f]+)", digest).group(1), 16)
                        if not satisfies(inst.clauses, int_to_bits(w, p)):
                            print(f"{where}: accepted w_tilde 0x{w:x} does not satisfy the formula")
                            return 1
                    proofs += len(decoded)
                    values.update(decoded)
                    p_accepts += report.accept
        print(f"p={p}: {proofs} proofs over {len(values)} decoded values agree with the mask,"
              f" {p_accepts} accepts")
        if len(values) < 2:
            print(f"p={p}: every proof decoded to one value")
            return 1
        accepts += p_accepts
    if outcomes != {True, False} or not accepts:
        print(f"unsatisfiable outcomes seen: {sorted(outcomes)}, accepts: {accepts}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
