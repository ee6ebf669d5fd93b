"""The four benchmark workloads: their inputs, one task, and the checks.

A workload's work is a fixed list of rounds.  `rounds` depends only on the
requested run length, never on how fast certlab is, so counts and peak
memory compare across commits.  Every round runs the same kind of task on
inputs drawn from the seed.  Outputs are checked after each round, outside
the task timers, against the reference checks in `reference.py`.
"""

from __future__ import annotations

import csv
import os
import random
import re
import shutil
from pathlib import Path

import reference

from certlab.codes import DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS, decode, get_code
from certlab.harness import cli
from certlab.harness.commands import make_sparse_erm
from certlab.reduction import DeciderConfig, sat_decider
from certlab.sat import ThreeSatInstance
from certlab.verifiers import FormulaEncoding, StepCounter, ThreeSatVerifier, first_certificate


def random_clauses(rng: random.Random, num_vars: int, count: int) -> list[tuple[int, ...]]:
    """count width-3 clauses over distinct variables, random signs."""
    out = []
    for _ in range(count):
        vs = rng.sample(range(1, num_vars + 1), 3)
        out.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return out


class Workload:
    name = ""
    # seconds one round takes at the commit that defined the benchmark;
    # only used to turn the requested run length into a round count
    nominal_round_s = 1.0
    # untimed rounds the measuring interpreter runs before the timed ones
    warmup_rounds = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_round_s))

    def warmup_input(self):
        raise NotImplementedError

    def round_inputs(self, r: int) -> list:
        raise NotImplementedError

    def run(self, inp):
        """One task: the only code a task timer covers."""
        raise NotImplementedError

    def collect(self, inp, result):
        """Keep what the checks need from a task's result, untimed."""
        return result

    def check(self, inp, output) -> str | None:
        """None if the output is right, else what is wrong."""
        raise NotImplementedError

    def final_check(self) -> list[str]:
        return []

    def close(self) -> None:
        pass


class Decide(Workload):
    """sat_decider with the `reduce` defaults on 8-variable formulas.

    Each round is the same 64 decisions: 60 satisfiable formulas from a
    fixed pool (low clause densities, the all-zero assignment excluded so
    none is accepted on the first proof) and 4 unsatisfiable formulas drawn
    fresh from the seed.  The seed also permutes the task order.  Every
    task carries a fixed decider seed, so a pool task's work does not
    depend on the run's seed, and any unsatisfiable formula runs the whole
    proof space.  The pool formulas keep their clause order: reordering
    clauses leaves the proof count alone but changes the work of a proof
    (by 13% on one formula), which moved the median task from seed to seed.
    """

    name = "decide"
    nominal_round_s = 20.0
    warmup_rounds = 0  # one round is the whole run
    VARS = 8
    MAX_CLAUSES = 36
    POOL_SEED = "decide-pool"
    POOL_CLAUSES = (6, 8, 10, 12)
    POOL_SIZE = 60
    UNSAT_COUNT = 4

    def __init__(self, seed, out_dir, learner_wrap=None):
        super().__init__(seed, out_dir)
        self.encoding = FormulaEncoding(max_vars=self.VARS, max_clauses=self.MAX_CLAUSES)
        self.verifier = ThreeSatVerifier(self.encoding)
        self.config = DeciderConfig(m=12, r=5, code_params=REDUCTION_CODE_PARAMS)
        learner = make_sparse_erm()
        self.learner = learner_wrap(learner) if learner_wrap else learner
        self.pool = self._pool()

    def _pool(self) -> list[list[tuple[int, ...]]]:
        rng = random.Random(self.POOL_SEED)
        pool = []
        while len(pool) < self.POOL_SIZE:
            clauses = random_clauses(rng, self.VARS, self.POOL_CLAUSES[len(pool) % len(self.POOL_CLAUSES)])
            first = reference.lex_first_solution(self.VARS, clauses)
            if first is not None and first != "0" * self.VARS:
                pool.append(clauses)
        return pool

    def warmup_input(self):
        clauses = [(-1, 2, 3), (-4, -5, 6)]  # the all-zero assignment satisfies it
        return clauses, ThreeSatInstance(self.VARS, clauses), "decide:warmup"

    def round_inputs(self, r):
        rng = random.Random(f"decide:{self.seed}:{r}")
        tasks = [(clauses, f"decide:sat:{i}") for i, clauses in enumerate(self.pool)]
        for j in range(self.UNSAT_COUNT):
            while True:
                clauses = random_clauses(rng, self.VARS, self.MAX_CLAUSES)
                if reference.lex_first_solution(self.VARS, clauses) is None:
                    break
            tasks.append((clauses, f"decide:unsat:{j}"))
        rng.shuffle(tasks)
        return [(c, ThreeSatInstance(self.VARS, c), s) for c, s in tasks]

    def run(self, inp):
        _clauses, inst, master_seed = inp
        return sat_decider(inst, self.verifier, self.config, self.learner, master_seed)

    def collect(self, inp, report):
        digests = [rec.digest for rec in report.result.repetitions if rec.accept]
        return report.accept, digests

    def check(self, inp, output):
        clauses = inp[0]
        accept, digests = output
        if not accept:
            return None
        if reference.lex_first_solution(self.VARS, clauses) is None:
            return "unsatisfiable formula accepted"
        match = re.search(r"wtilde=0x([0-9a-f]+)", digests[0]) if digests else None
        if match is None:
            return "accepted without a digest naming wtilde"
        assignment = format(int(match.group(1), 16), f"0{self.VARS}b")
        if not reference.satisfies(clauses, assignment):
            return f"accepted wtilde {assignment} does not satisfy the formula"
        return None


class Tradeoff(Workload):
    """One task is one whole `certlab tradeoff` sweep for one seed, called
    in-process through the CLI entry point with its default config."""

    name = "tradeoff"
    nominal_round_s = 1.5
    SWEEPS = 10
    FACTOR = 100.0  # the command's default tradeoff.factor

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.sweep_dir = out_dir / f"tradeoff-{os.getpid()}"
        self.sweep_dir.mkdir(parents=True, exist_ok=True)

    def warmup_input(self):
        return random.Random(f"tradeoff:{self.seed}:warmup").randrange(10**6)

    def round_inputs(self, r):
        rng = random.Random(f"tradeoff:{self.seed}:{r}")
        return [rng.randrange(10**6) for _ in range(self.SWEEPS)]

    def run(self, sweep_seed):
        return cli.main(["tradeoff", "--seed", str(sweep_seed), "--out", str(self.sweep_dir)])

    def collect(self, sweep_seed, rc):
        with open(self.sweep_dir / "tradeoff.csv", newline="") as fh:
            return rc, list(csv.DictReader(fh))

    def check(self, sweep_seed, output):
        rc, rows = output
        if rc != 0:
            return f"tradeoff exited {rc}"
        largest = max(int(row["m"]) for row in rows)
        steps = {}
        for row in rows:
            m = int(row["m"])
            steps[(row["learner"], m)] = float(row["mean_steps"])
            if row["learner"] == "sparse_erm" and float(row["mean_steps"]) != m:
                return f"sparse_erm mean_steps {row['mean_steps']} != m={m}"
            if row["learner"] == "few_sample" and m == largest and float(row["mean_error"]) != 0:
                return f"few_sample mean_error {row['mean_error']} at m={m}"
        ratio = steps[("few_sample", largest)] / steps[("sparse_erm", largest)]
        if ratio < self.FACTOR:
            return f"step ratio {ratio} below {self.FACTOR}"
        return None

    def close(self):
        shutil.rmtree(self.sweep_dir, ignore_errors=True)


class Certify(Workload):
    """first_certificate on fresh random 3-SAT formulas at p=20, 88 clauses
    (near the threshold, so both satisfiable and unsatisfiable ones occur).
    A task encodes the formula and searches its first certificate.  Each
    round has its own verifier, so every task is a cache miss and the
    verifier's per-instance masks grow over the round."""

    name = "certify"
    nominal_round_s = 1.25
    VARS = 20
    CLAUSES = 88
    ROUND = 200

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.encoding = FormulaEncoding(max_vars=self.VARS, max_clauses=self.CLAUSES)

    def _formulas(self, rng, count):
        verifier = ThreeSatVerifier(self.encoding)
        out = []
        for _ in range(count):
            clauses = random_clauses(rng, self.VARS, self.CLAUSES)
            out.append((clauses, ThreeSatInstance(self.VARS, clauses), verifier))
        return out

    def warmup_input(self):
        return self._formulas(random.Random(f"certify:{self.seed}:warmup"), 1)[0]

    def round_inputs(self, r):
        return self._formulas(random.Random(f"certify:{self.seed}:{r}"), self.ROUND)

    def run(self, inp):
        _clauses, inst, verifier = inp
        return first_certificate(verifier, self.encoding.encode(inst), counter=StepCounter())

    def check(self, inp, w):
        expected = reference.lex_first_solution(self.VARS, inp[0])
        if w != expected:
            return f"first_certificate {w} != reference {expected}"
        return None


class Decode(Workload):
    """Nearest-codeword decoding at message length 16 for the default code
    (c=8): a random message's codeword with exactly contract-radius bits
    flipped, as `codes-test` and `radius_recovery` make them."""

    name = "decode"
    nominal_round_s = 1.6
    MESSAGE_LEN = 16
    ROUND = 250

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.params = DEFAULT_CODE_PARAMS
        self.code = get_code(self.params, self.MESSAGE_LEN)

    def _word(self, rng):
        code = self.code
        message = format(rng.getrandbits(self.MESSAGE_LEN), f"0{self.MESSAGE_LEN}b")
        word = reference.codeword(code.generator_rows, message)
        for pos in rng.sample(range(code.codeword_len), code.contract_radius):
            word ^= 1 << pos
        # codeword int bit i is word string position i
        return message, format(word, f"0{code.codeword_len}b")[::-1]

    def warmup_input(self):
        return self._word(random.Random(f"decode:{self.seed}:warmup"))

    def round_inputs(self, r):
        rng = random.Random(f"decode:{self.seed}:{r}")
        return [self._word(rng) for _ in range(self.ROUND)]

    def run(self, inp):
        return decode(self.params, inp[1])

    def check(self, inp, message):
        if message != inp[0]:
            return f"decoded {message} != sent {inp[0]}"
        return None

    def final_check(self):
        code = self.code
        d = reference.min_distance(code.generator_rows)
        errors = []
        if d != code.distance:
            errors.append(f"code claims distance {code.distance}, reference walk finds {d}")
        if d < 2 * code.contract_radius + 1:
            errors.append(f"distance {d} below 2*{code.contract_radius}+1")
        return errors


WORKLOADS = {w.name: w for w in (Decide, Tradeoff, Certify, Decode)}
