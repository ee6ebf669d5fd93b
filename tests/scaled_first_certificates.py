"""Check first_certificate against perfbench/reference.py's backtracking
solver on 25 seeded random formulas at each p from sat.SEARCH_FOLD_VARS + 1,
the first p whose search walks a variable, to 24, the budget's top, with
4.3p clauses each.

Run from the repository root:

    PYTHONPATH=src python tests/scaled_first_certificates.py

Prints one line per p and exits 1 on a mismatch, unless both satisfiable
and unsatisfiable formulas occur, or unless the search's literal-mask cache
then holds one table whose masks are each within 2^SEARCH_FOLD_VARS bits.
The test suite checks two formulas a p; this check runs 25 a p outside it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from reference import lex_first_solution  # noqa: E402

from certlab import sat  # noqa: E402
from certlab.sat import random_instance  # noqa: E402
from certlab.verifiers import FormulaEncoding, ThreeSatVerifier, first_certificate  # noqa: E402

FORMULAS = 25


def main() -> int:
    outcomes = set()
    for p in range(sat.SEARCH_FOLD_VARS + 1, 25):
        rng = random.Random(f"scaled:{p}")
        clauses = round(4.3 * p)
        enc = FormulaEncoding(max_vars=p, max_clauses=clauses)
        v = ThreeSatVerifier(enc)
        unsat = 0
        for i in range(FORMULAS):
            inst = random_instance(rng, p, clauses)
            w = first_certificate(v, enc.encode(inst))
            expected = lex_first_solution(p, inst.clauses)
            if w != expected:
                print(f"p={p} formula {i}: first_certificate {w} != reference {expected}")
                return 1
            unsat += w is None
            outcomes.add(w is None)
        print(f"p={p}: {FORMULAS} formulas agree, {unsat} unsatisfiable")
    if outcomes != {True, False}:
        print("the formulas were all satisfiable or all unsatisfiable")
        return 1
    widths = [m.bit_length() for lits in sat._LIT_MASKS.values() for m in lits.values()]
    if len(sat._LIT_MASKS) != 1 or max(widths) > 1 << sat.SEARCH_FOLD_VARS:
        print(f"the literal masks: {len(sat._LIT_MASKS)} tables, widest {max(widths, default=0)} bits")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
