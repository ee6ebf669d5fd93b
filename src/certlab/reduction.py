"""The learner-to-decider reduction: the challenge protocol, the one-sided
randomized simulation that enumerates all proofs (label strings for the
drawn examples), and the assembled SAT decider.

Soundness is structural: the final step always checks the decoded
certificate against the verifier's accept mask, so an unsatisfiable instance
is rejected for every seed and every proof.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import product, repeat
from operator import itemgetter

from .bits import check_bits, int_to_bits
from .codes import CodeParams, get_code
from .concepts import ExampleLayout, JuntaHypothesis, check_layout_kind
from .errors import BudgetError, CertlabError, ConfigError
from .paclearn import LabeledSample, TableHypothesis
from .sat import ThreeSatInstance
from .verifiers import ThreeSatVerifier

#: The decider enumerates 2^m proofs per repetition; m may not exceed this.
PROOF_CAP_BITS = 16


def learner_error_target(params: CodeParams, variant: str = "standard"):
    """Error the plugged-in learner is nominally asked for, derived from the
    code contract: eps_star for the standard rounds, eps_star/100 for the
    uniform rounds (whose single random readout needs the Markov slack)."""
    eps = params.eps_star
    return eps if check_layout_kind(variant) == "standard" else eps / 100


#: A proof's answers (bit v: the hypothesis's answer at index value v), its
#: decoded certificate value and its verdict bit.
_Proof = namedtuple("_Proof", "answers w_val verdict")


class _Challenge:
    """One instance's challenge protocol: its example layout, code and
    accept mask, read once.  `run` proves a repetition's samples in one
    loop; a proof's verdict is one bit of that mask, read from the mask's
    bytes."""

    def __init__(
        self, z: str, verifier: ThreeSatVerifier, learner, params: CodeParams, variant: str
    ):
        check_bits(z, length=verifier.n, name="z")
        self.learner = learner
        self.layout = ExampleLayout.of(verifier.n, params, verifier.p, variant)
        # get_code rejects a p outside the codes' range before the 2^p-bit mask is built
        self.code = get_code(params, verifier.p)
        # bit w of the mask is bit w & 7 of byte w >> 3: a read costs the same at every p
        mask = verifier.accept_mask(z)
        self.accept_bytes = mask.to_bytes(((1 << verifier.p) + 7) >> 3, "little")
        self._cp_mask = (1 << self.layout.cp) - 1
        self._read_at: str | None = None
        self._bits: dict[str, int] = {}

    def _bits_at(self, read_at: str) -> dict[str, int]:
        """`layout.example(read_at, v)` mapped to 1 << v for each index value
        v, in value order; built once per read_at."""
        if read_at != self._read_at:
            lay = self.layout
            self._bits = {lay.example(read_at, v): 1 << v for v in range(1 << lay.ell)}
            self._read_at = read_at
        return self._bits

    def answers(self, hypothesis, read_at: str) -> int:
        """Bit v: the hypothesis's answer at `layout.example(read_at, v)`.  A
        junta on this layout (a certificate concept too) is answered by its
        word, or 0 when read_at does not start with its head; `run` answers
        a table hypothesis itself."""
        if isinstance(hypothesis, JuntaHypothesis) and hypothesis.layout == self.layout:
            return hypothesis.word if read_at.startswith(hypothesis.head) else 0
        word = 0
        for x, bit in self._bits_at(read_at).items():
            if hypothesis(x):
                word |= bit
        return word

    def run(self, samples, read_at: str) -> tuple[int, tuple | None, _Proof | None]:
        """Prove the samples in order up to the first that accepts: learn
        from each, query the hypothesis at every index value with read_at's
        other bits, decode its first cp answers and read the mask bit at the
        result.  Returns the proofs run, the last sample and its proof, None
        when the learner raised on it.  A table hypothesis is answered from
        its ones that are queries, any other through `answers`."""
        learner, decode, cp_mask = self.learner, self.code.decode_value, self._cp_mask
        accept_bytes, get = self.accept_bytes, self._bits_at(read_at).get
        run, sample, w_val = 0, None, None
        for sample in samples:
            run += 1
            try:
                hypothesis = learner(sample)
            except CertlabError:
                w_val = None
                continue
            if type(hypothesis) is TableHypothesis:
                # the ones are distinct, so summing their bits ORs them
                answers = sum(map(get, hypothesis, repeat(0)))
            else:
                answers = self.answers(hypothesis, read_at)
            w_val = decode(answers & cp_mask)
            verdict = accept_bytes[w_val >> 3] >> (w_val & 7) & 1
            if verdict:
                break
        return run, sample, None if w_val is None else _Proof(answers, w_val, verdict)

    def digest(self, seed_label: str, points, labels: str, proof: _Proof) -> str:
        """The line that names an accepting proof: its seed, the index values
        of the drawn points, their labels, the decoded certificate and the
        verdict."""
        lay = self.layout
        indices = ",".join(int_to_bits(lay.index(x), lay.ell) for x in points)
        return (
            f"seed={seed_label} idx={indices} "
            f"labels={labels or '-'} wtilde=0x{proof.w_val:x} verdict={proof.verdict}"
        )


# -- the one-sided decider -------------------------------------------------------


class DeciderConfig(namedtuple("DeciderConfig", "m r code_params variant")):
    """2^m proofs per repetition, r repetitions, the code and the layout
    kind, one of LAYOUT_KINDS."""

    __slots__ = ()

    def __new__(cls, m: int, r: int, code_params: CodeParams, variant: str = "standard"):
        if m < 0 or r < 1:
            raise ConfigError("need m >= 0 and r >= 1")
        if m > PROOF_CAP_BITS:
            raise BudgetError(f"2^{m} proofs exceed the 2^{PROOF_CAP_BITS} cap")
        check_layout_kind(variant)
        return super().__new__(cls, m, r, code_params, variant)


RepetitionRecord = namedtuple("RepetitionRecord", "rep accept proofs_run digest")
DeciderResult = namedtuple("DeciderResult", "accept repetitions proof_space proofs_run")


def rtime_decide(
    z: str,
    verifier: ThreeSatVerifier,
    config: DeciderConfig,
    learner,
    master_seed: int | str,
) -> DeciderResult:
    """Accept iff any enumerated proof makes any repetition's round accept.

    Per repetition, one seed fixes the example draws; all 2^m label strings
    are then tried as fixed proofs.  Label strings are enumerated up to
    consistency: strings assigning different labels to the same drawn example
    point make every learner here fail (reject), so enumerating one label per
    distinct point covers the whole proof space.  The drawn points are
    checked once per repetition; each proof's sample is then the plain
    tuple of pre-built (point, 0) and (point, 1) pairs, reordered into draw
    order, and is not checked again.  A
    repetition's proofs run in one `_Challenge.run` loop, and the digest is
    built only for the proof that accepts.  One-sided by construction: the
    verifier check at the end rejects every proof for a false instance.
    """
    challenge = _Challenge(z, verifier, learner, config.code_params, config.variant)
    reps: list[RepetitionRecord] = []
    total_run = 0
    for rep in range(config.r):
        seed_label = f"{master_seed}:rep{rep}"
        rng = random.Random(seed_label)
        points, read_at = challenge.layout.draw(rng, z, config.m)
        distinct = sorted(set(points))
        slot = {pt: j for j, pt in enumerate(distinct)}
        LabeledSample((pt, 0) for pt in points)  # checks the points
        samples = product(*[((pt, 0), (pt, 1)) for pt in distinct])
        if len(points) > 1:  # else the product's tuple is the sample already
            samples = map(itemgetter(*map(slot.__getitem__, points)), samples)
        proofs_run, sample, proof = challenge.run(samples, read_at)
        rep_accept = proof is not None and proof.verdict == 1
        rep_digest = ""
        if rep_accept:
            label_str = "".join(str(y) for _, y in sample)
            rep_digest = challenge.digest(seed_label, points, label_str, proof)
        total_run += proofs_run
        reps.append(RepetitionRecord(rep, rep_accept, proofs_run, rep_digest))
        if rep_accept:
            break
    return DeciderResult(
        accept=reps[-1].accept,
        repetitions=reps,
        proof_space=config.r * (1 << config.m),
        proofs_run=total_run,
    )


class DeciderReport(namedtuple("DeciderReport", "instance accept result")):
    __slots__ = ()

    def lines(self) -> list[str]:
        out = [
            f"instance vars={self.instance.num_vars} clauses={len(self.instance.clauses)} "
            f"accept={int(self.accept)} proofs_run={self.result.proofs_run} "
            f"proof_space={self.result.proof_space}"
        ]
        for rec in self.result.repetitions:
            line = f"  rep={rec.rep} accept={int(rec.accept)} proofs={rec.proofs_run}"
            if rec.digest:
                line += f" {rec.digest}"
            out.append(line)
        return out


def sat_decider(
    inst: ThreeSatInstance,
    verifier: ThreeSatVerifier,
    config: DeciderConfig,
    learner,
    master_seed: int | str,
) -> DeciderReport:
    """Encode the formula and run the one-sided decider against it."""
    z = verifier.encode(inst)
    result = rtime_decide(z, verifier, config, learner, master_seed)
    return DeciderReport(instance=inst, accept=result.accept, result=result)
