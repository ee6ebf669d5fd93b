"""Reference checks made apart from certlab.

Nothing here imports certlab.  Formulas are plain lists of clauses, each a
tuple of signed 1-based variable indices (DIMACS convention); an assignment
is a string over 0/1 with variable j at position j-1.  `selftest.py` checks
each function against exhaustive enumeration on tiny inputs.
"""

from __future__ import annotations


def satisfies(clauses, assignment: str) -> bool:
    """Clause evaluator: True iff every clause has a true literal."""
    for clause in clauses:
        if not any((assignment[abs(lit) - 1] == "1") == (lit > 0) for lit in clause):
            return False
    return True


def lex_first_solution(num_vars: int, clauses) -> str | None:
    """Lexicographically first satisfying assignment over num_vars variables,
    for clauses of width at most 3.

    Depth-first backtracking that assigns variables 1, 2, ... in order and
    tries 0 before 1, so the first complete assignment reached is the
    lexicographically smallest.  A clause is checked as soon as its last
    variable is assigned.  Returns None when the formula is unsatisfiable.
    """
    # blocking[v][b]: for each clause whose last variable is v and which
    # setting v to b leaves unsatisfied, its other literals as (var, wanted
    # value); slot (0, 1) pads short clauses and is never true
    blocking = [([], []) for _ in range(num_vars + 1)]
    for clause in clauses:
        if not clause:
            return None
        last = max(abs(lit) for lit in clause)
        lits = {(abs(lit), int(lit > 0)) for lit in clause}
        if (last, 0) in lits and (last, 1) in lits:
            continue  # tautology
        want_last = 1 if (last, 1) in lits else 0
        others = sorted(lit for lit in lits if lit[0] != last)
        others += [(0, 1)] * (2 - len(others))
        blocking[last][1 - want_last].append(tuple(others))
    values = [0] * (num_vars + 1)
    tried = [0] * (num_vars + 1)  # values tried so far at each variable

    # an explicit loop rather than recursion keeps deep formulas clear of
    # the recursion limit
    var = 1
    while 0 < var <= num_vars:
        if tried[var] == 2:
            tried[var] = 0
            var -= 1
            continue
        b = tried[var]
        tried[var] += 1
        values[var] = b
        for (a, wa), (c, wc) in blocking[var][b]:
            if values[a] != wa and values[c] != wc:
                break
        else:
            var += 1
    if var == 0:
        return None
    return "".join(map(str, values[1:]))


def min_distance(rows: list[int]) -> int:
    """Minimum Hamming weight over the nonzero codewords spanned by rows.

    Walks all nonzero messages in reflected Gray-code order, so each step
    XORs in one generator row.  For a linear code this is its minimum
    distance.
    """
    k = len(rows)
    best = None
    word = 0
    gray_prev = 0
    for i in range(1, 1 << k):
        gray = i ^ (i >> 1)
        word ^= rows[(gray ^ gray_prev).bit_length() - 1]
        gray_prev = gray
        weight = bin(word).count("1")
        if best is None or weight < best:
            best = weight
    return 0 if best is None else best


def codeword(rows: list[int], message: str) -> int:
    """Codeword of a message: XOR of the rows whose message bit is 1
    (message bit j, most significant first, selects row j)."""
    word = 0
    for j, bit in enumerate(message):
        if bit == "1":
            word ^= rows[j]
    return word
