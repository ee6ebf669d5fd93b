"""Check first_certificate against perfbench/reference.py's backtracking
solver at each p from sat.SEARCH_FOLD_VARS + 1, the first p whose search
walks a variable, to 24, the budget's top: on 25 seeded random formulas of
4.3p clauses, each over three distinct variables, and on 10 mixed formulas
of 3p clauses, where units, 2-literal clauses, repeated literals and
tautologies reach the general paths of decode and of the search's clause
lists.

Run from the repository root:

    PYTHONPATH=src python tests/scaled_first_certificates.py

Prints one line per p and exits 1 on a mismatch, unless satisfiable and
unsatisfiable formulas occur among both kinds, or unless the search's
literal-mask cache then holds one table whose masks are each within
2^SEARCH_FOLD_VARS bits.  The test suite checks two formulas a p; this
check runs 35 a p outside it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from reference import lex_first_solution  # noqa: E402

from certlab import sat  # noqa: E402
from certlab.sat import ThreeSatInstance, random_instance  # noqa: E402
from certlab.verifiers import FormulaEncoding, ThreeSatVerifier, first_certificate  # noqa: E402

FORMULAS, MIXED = 25, 10


def mixed_instance(rng: random.Random, p: int, count: int) -> ThreeSatInstance:
    """count clauses of 1 to 3 literals, a quarter of the wider ones with a
    variable drawn twice (a repeated literal or a tautology), made canonical
    by the checked constructor."""
    clauses = []
    for _ in range(count):
        vs = rng.sample(range(1, p + 1), 3)
        width = rng.choices((1, 2, 3), (1, 4, 20))[0]
        if width > 1 and rng.random() < 0.25:
            vs[width - 1] = vs[rng.randrange(width - 1)]
        clauses.append([v if rng.random() < 0.5 else -v for v in vs[:width]])
    return ThreeSatInstance(p, clauses)


def main() -> int:
    outcomes = set()
    for p in range(sat.SEARCH_FOLD_VARS + 1, 25):
        rng = random.Random(f"scaled:{p}")
        clauses = round(4.3 * p)
        enc = FormulaEncoding(max_vars=p, max_clauses=clauses)
        v = ThreeSatVerifier(enc)
        unsat = 0
        formulas = [random_instance(rng, p, clauses) for _ in range(FORMULAS)]
        formulas += [mixed_instance(rng, p, 3 * p) for _ in range(MIXED)]
        for i, inst in enumerate(formulas):
            w = first_certificate(v, enc.encode(inst))
            expected = lex_first_solution(p, inst.clauses)
            if w != expected:
                print(f"p={p} formula {i}: first_certificate {w} != reference {expected}")
                return 1
            unsat += w is None
            outcomes.add((i < FORMULAS, w is None))
        print(f"p={p}: {len(formulas)} formulas agree, {unsat} unsatisfiable")
    if len(outcomes) != 4:
        print("the random or the mixed formulas were all satisfiable or all unsatisfiable")
        return 1
    widths = [m.bit_length() for lits in sat._LIT_MASKS.values() for m in lits.values()]
    if len(sat._LIT_MASKS) != 1 or max(widths) > 1 << sat.SEARCH_FOLD_VARS:
        print(f"the literal masks: {len(sat._LIT_MASKS)} tables, widest {max(widths, default=0)} bits")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
