"""3-SAT instances: evaluation, satisfying-assignment masks, the least
satisfying assignment, DIMACS io, a brute-force SAT oracle, corpora.

A clause is a tuple of signed variable indices (DIMACS convention, 1-based,
at most 3 literals).  Assignments are bitstrings with variable j at string
position j-1.  A formula's clauses are made canonical once, where the
formula is built: the checked constructor canonicalises any clauses (DIMACS,
user input), and `random_instance`, `exhaustive_formulas` and
`FormulaEncoding.decode` build canonical clauses themselves and go through
the unchecked `ThreeSatInstance._of_canonical`.  `satisfying_mask` ANDs each
narrow half of a doubling mask with cached literal masks.  `first_satisfying`
runs the same fold over the low variables only, with their literal masks
alone, and walks the top ones in lex order, so it finds the mask's lowest set
bit without building the 2^p-bit mask, which no command builds.
"""

from __future__ import annotations

import itertools
import random

from .bits import check_bits
from .errors import FormatError, ShapeError

Clause = tuple[int, ...]


def _canon_clause(lits, num_vars: int) -> Clause:
    seen = []
    for lit in lits:
        if not isinstance(lit, int) or lit == 0:
            raise FormatError(f"literal must be a nonzero integer, got {lit!r}")
        if not 1 <= abs(lit) <= num_vars:
            raise FormatError(f"literal {lit} references a variable outside [1, {num_vars}]")
        if lit not in seen:
            seen.append(lit)
    if len(seen) > 3:
        raise FormatError(f"clause has {len(seen)} literals, at most 3 allowed")
    return tuple(sorted(seen, key=lambda l: (abs(l), l < 0)))


class ThreeSatInstance:
    """A CNF formula with clauses of width <= 3.

    Clauses are canonicalized on construction (literals sorted by variable,
    a positive literal before its negation, duplicates within a clause
    dropped).  An empty clause list is trivially satisfiable; an empty clause
    (width 0) is unsatisfiable.
    """

    __slots__ = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses) -> None:
        if num_vars < 0:
            raise FormatError("num_vars must be nonnegative")
        self.num_vars = num_vars
        self.clauses: tuple[Clause, ...] = tuple(_canon_clause(c, num_vars) for c in clauses)

    @classmethod
    def _of_canonical(cls, num_vars: int, clauses: tuple[Clause, ...]) -> ThreeSatInstance:
        """The instance of a tuple of clauses already canonical over num_vars
        variables, not checked again."""
        inst = object.__new__(cls)
        inst.num_vars, inst.clauses = num_vars, clauses
        return inst

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ThreeSatInstance)
            and self.num_vars == other.num_vars
            and self.clauses == other.clauses
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.clauses))

    def __repr__(self) -> str:
        return f"ThreeSatInstance(num_vars={self.num_vars}, clauses={list(self.clauses)})"


def eval_assignment(inst: ThreeSatInstance, assignment: str) -> bool:
    """True iff the assignment satisfies every clause.

    The assignment may be longer than num_vars; extra bits are ignored.
    """
    check_bits(assignment, name="assignment")
    if len(assignment) < inst.num_vars:
        raise ShapeError(
            f"assignment has {len(assignment)} bits, instance needs {inst.num_vars}"
        )
    for clause in inst.clauses:
        for lit in clause:
            if (assignment[abs(lit) - 1] == "1") == (lit > 0):
                break
        else:
            return False
    return True


# -- bit-parallel assignment enumeration ------------------------------------
#
# The set of satisfying assignments over {0,1}^p is materialized as one big
# integer: bit v is set iff the assignment with integer value v (MSB-first,
# variable j at weight 2^(p-j)) satisfies the formula.
_LIT_MASKS: dict[tuple[int, int], dict[int, int]] = {}  # one (p, w): _literal_masks(p, w)


def _literal_masks(p: int, w: int) -> dict[int, int]:
    """{l: the v < 2^(w-1) that satisfy l} for the literals on variables
    p-w+1..p: x_j's mask depends only on p - j, so these are the low 2^(w-1)
    bits of the p-variable masks."""
    if (p, w) not in _LIT_MASKS:
        half = (1 << w) >> 1
        full = (1 << half) - 1
        top = p - w + 1
        lits = {top: 0, -top: full} if w else {}  # x_top = 1 only at v >= 2^(w-1)
        for j in range(top + 1, p + 1):
            # 2^b zeros then 2^b ones, doubled by shifts to the half width;
            # a big-int division would be quadratic in the width
            b = 1 << (p - j)
            mask, width = ((1 << b) - 1) << b, 2 * b
            while width < half:
                mask, width = mask | mask << width, 2 * width
            lits[j], lits[-j] = mask, mask ^ full
        _LIT_MASKS.clear()
        _LIT_MASKS[p, w] = lits
    return _LIT_MASKS[p, w]


def _fold(inst: ThreeSatInstance, p: int, steps: int) -> tuple[int, list[list[Clause]], dict[int, int]]:
    """The first `steps` steps of `satisfying_mask`'s fold: the mask over
    variables p-steps+1..p in 2^steps bits, the clauses by step (buckets[e]
    holds those whose first variable is p-e+1) and the literal masks, built
    once p is checked, 2^min(p-1, steps) bits wide.  The mask is 0, and the
    buckets may be incomplete, once no assignment is left."""
    if p < inst.num_vars:
        raise ShapeError(f"p={p} smaller than num_vars={inst.num_vars}")
    # steps + 1: the search's walk ANDs masks one variable wider than the halves
    lits = _literal_masks(p, min(p, steps + 1))
    buckets: list[list[Clause]] = [[] for _ in range(p + 1)]
    for clause in inst.clauses:
        if not clause:
            return 0, buckets, lits
        # canonical clauses are sorted by variable, so clause[0] is the first
        buckets[p - abs(clause[0]) + 1].append(clause)
    mask = 1
    for e in range(1, steps + 1):
        halves = [mask, mask]  # x_j = 0, x_j = 1
        for clause in buckets[e]:
            k, width = clause[0] < 0, len(clause)
            if width == 3:
                halves[k] &= lits[clause[1]] | lits[clause[2]]
            else:
                halves[k] = halves[k] & lits[clause[1]] if width == 2 else 0
        if not any(halves):
            return 0, buckets, lits
        mask = (halves[1] << (1 << (e - 1))) | halves[0]
    return mask, buckets, lits


def satisfying_mask(inst: ThreeSatInstance, p: int) -> int:
    """Big-int mask of all satisfying assignments in {0,1}^p.

    p may exceed num_vars; the extra variables are unconstrained.

    A doubling fold from the last variable to the first: after step e the
    mask covers variables p-e+1..p in 2^e bits and holds the clauses whose
    first variable is among them.  Variable j = p-e+1 is the top bit of
    step e, so a clause whose first literal is on x_j restricts only one
    half (x_j = 0 for a positive literal, x_j = 1 for a negative one) to its
    other literals, which live on the lower 2^(e-1) bits: one AND with the
    other literal's mask (2 literals) or with the OR of the other two's
    (3 literals), or it empties the half (1 literal).  Below bit 2^(e-1), x_j's
    own masks are 0 and all ones, so tautologies need no case.
    """
    return _fold(inst, p, p)[0]


#: The variables `first_satisfying` folds, at most: it walks the ones above
#: them, and its masks stay within 2^13 bits (1 KiB) at any p.  On random
#: formulas of 4.4p clauses (2-core shared host, Python 3.11, the median of
#: five runs), 12 beat 13 by 6% at p = 16 and 2% at p = 20, and 14 beat it
#: by 4% at p = 24; summed over p = 16..24, 13 beat 12 by 1% and 14 by 3%.
#: At width 13 a search took 87-161 us at p = 20 and 202-359 us at p = 24
#: as the host's pace moved between runs, 1.9x and 1.7x less than at 16.
SEARCH_FOLD_VARS = 13


def first_satisfying(inst: ThreeSatInstance, p: int) -> int | None:
    """The least satisfying assignment in {0,1}^p, numbered as the bits of
    `satisfying_mask` are, or None; that 2^p-bit mask is never built.

    The fold runs its first p-k steps, k = max(0, p - SEARCH_FOLD_VARS), so
    its mask covers the low variables k+1..p in 2^(p-k) bits.  The top k
    variables are walked depth first, x_j = 0 before x_j = 1, so the leaves
    come in increasing order.  Setting x_d applies each clause whose last
    walked variable is x_d and whose walked literals are then all false: one
    AND with the OR of its low literals' masks, made once per clause, keeps
    only the assignments that satisfy one of them, and empties the mask if
    it has none.  A branch whose mask empties is pruned; the first leaf
    reached holds the answer at its mask's lowest set bit.
    """
    k = max(0, p - SEARCH_FOLD_VARS)
    mask, buckets, lits = _fold(inst, p, p - k)
    if not mask:
        return None
    # zero[d] and one[d]: (care, want, low) per clause applied at x_d whose
    # x_d literal is false at x_d = 0 (positive) or x_d = 1 (negative), so a
    # node scans only the clauses its own value of x_d can apply.  A prefix
    # of walked values holds x_j at bit k-j, and the clause's walked literals
    # are all false iff prefix & care == want.  low ORs its low literals'
    # masks, as narrow as m: one literal's own mask (no copy), 0 for none.
    zero: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
    one: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
    walked = {}  # a walked literal: the list of clauses it is last in, its care bit, its want bit
    for j in range(1, k + 1):
        bit = 1 << (k - j)
        walked[j], walked[-j] = (zero[j], bit, 0), (one[j], bit, bit)
    for e in range(p - k + 1, p + 1):
        for clause in buckets[e]:
            if len(clause) == 3:  # its walked literals are a prefix, clause[0] among them
                a, b, c = clause
                last, care, want = walked[a]
                if b not in walked:
                    low = lits[b] | lits[c]
                else:
                    last, bit, wants = walked[b]
                    if care & bit:
                        continue  # x_j or not x_j holds everywhere
                    care, want = care | bit, want | wants
                    if c not in walked:
                        low = lits[c]
                    else:
                        last, bit, wants = walked[c]
                        if care & bit:
                            continue
                        care, want, low = care | bit, want | wants, 0
                last.append((care, want, low))
                continue
            care = want = low = 0
            for lit in clause:
                if lit in walked:
                    last, bit, wants = walked[lit]
                    if care & bit:
                        break
                    care, want = care | bit, want | wants
                else:
                    low = lits[lit]  # clause[0] is walked, so at most one is low
            else:
                last.append((care, want, low))
    stack = [(0, 0, mask, ())]  # (depth, prefix, mask, clauses): x_1..x_depth set in prefix
    while stack:
        d, prefix, m, clauses = stack.pop()
        for care, want, low in clauses:
            if prefix & care == want:
                m &= low
                if not m:
                    break
        else:
            if d == k:
                # m ^ (m - 1) sets the bits up to m's lowest set bit
                return prefix << (p - k) | (m ^ (m - 1)).bit_length() - 1
            stack.append((d + 1, prefix | 1 << (k - d - 1), m, one[d + 1]))
            stack.append((d + 1, prefix, m, zero[d + 1]))
    return None


def brute_force_sat(inst: ThreeSatInstance) -> bool:
    """Independent satisfiability oracle: direct evaluation of all assignments."""
    n = inst.num_vars
    for v in range(1 << n):
        if eval_assignment(inst, format(v, f"0{n}b") if n else ""):
            return True
    return False


# -- DIMACS ------------------------------------------------------------------


def parse_dimacs(text: str) -> ThreeSatInstance:
    """Parse standard DIMACS CNF.  Clauses with more than 3 literals are rejected.
    A line starting with "%" ends the clause list, as in SATLIB's files."""
    num_vars = None
    declared_clauses = None
    lits: list[int] = []
    clauses: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(f"line {lineno}: bad problem line {line!r}")
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(f"line {lineno}: bad problem line {line!r}") from None
            continue
        if num_vars is None:
            raise FormatError(f"line {lineno}: clause before 'p cnf' header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise FormatError(f"line {lineno}: bad token {tok!r}") from None
            if lit == 0:
                clauses.append(lits)
                lits = []
            else:
                lits.append(lit)
    if num_vars is None:
        raise FormatError("missing 'p cnf' header")
    if lits:
        raise FormatError("last clause not terminated by 0")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise FormatError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return ThreeSatInstance(num_vars, clauses)


# -- corpora -----------------------------------------------------------------


def clause_universe(num_vars: int) -> list[Clause]:
    """All canonical clauses over distinct variables, widths 1..3."""
    out = []
    for width in range(1, min(num_vars, 3) + 1):
        for vs in itertools.combinations(range(1, num_vars + 1), width):
            for signs in itertools.product((1, -1), repeat=width):
                out.append(tuple(s * v for v, s in zip(vs, signs)))
    return out  # canonical as built: the variables ascend and differ


def exhaustive_formulas(num_vars: int, max_clauses: int) -> list[ThreeSatInstance]:
    """Every formula with up to max_clauses distinct clauses from the universe."""
    universe = clause_universe(num_vars)
    out = []
    for k in range(max_clauses + 1):
        for subset in itertools.combinations(universe, k):
            out.append(ThreeSatInstance._of_canonical(num_vars, subset))
    return out


def random_instance(rng: random.Random, num_vars: int, num_clauses: int) -> ThreeSatInstance:
    """Random formula: fixed clause count, 3 distinct variables per clause.

    Each sign is drawn in sample order; sorting the signed literals by
    variable then gives the canonical clause, since the variables differ."""
    if num_vars < 3:
        raise ShapeError(f"clause width 3 exceeds num_vars {num_vars}")
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(sorted([v if rng.random() < 0.5 else -v for v in vs], key=abs)))
    return ThreeSatInstance._of_canonical(num_vars, tuple(clauses))
