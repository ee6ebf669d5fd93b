"""Brute-force oracles the tests check certlab against.

The package does not need these; they are the slow, obviously correct
versions of what it computes, kept apart from the code they check the way
perfbench/reference.py keeps the benchmark's checks.
"""

from __future__ import annotations

from certlab.bits import bits_of_rank, check_bits
from certlab.concepts import DecisionTree, dt_eval
from certlab.errors import DataInconsistencyError, ShapeError
from certlab.paclearn import LabeledSample
from certlab.sat import ThreeSatInstance, _var_mask, eval_assignment
from certlab.verifiers import Verifier, _check_budget


def clausewise_mask(inst: ThreeSatInstance, p: int) -> int:
    """satisfying_mask computed clause by clause at the full 2^p-bit width:
    the AND over clauses of the OR of their literal masks."""
    if p < inst.num_vars:
        raise ShapeError(f"p={p} smaller than num_vars={inst.num_vars}")
    full = (1 << (1 << p)) - 1
    mask = full
    for clause in inst.clauses:
        sat = 0
        for lit in clause:
            m = _var_mask(p, abs(lit))
            sat |= m if lit > 0 else (full ^ m)
        mask &= sat
        if not mask:
            break
    return mask


def solutions(inst: ThreeSatInstance) -> list[str]:
    """All satisfying assignments in lexicographic order (direct evaluation)."""
    n = inst.num_vars
    out = []
    for v in range(1 << n):
        a = format(v, f"0{n}b") if n else ""
        if eval_assignment(inst, a):
            out.append(a)
    return out


def naive_first_certificate(v: Verifier, z: str) -> str | None:
    """Reference scan in rank order; test oracle for first_certificate."""
    check_bits(z, length=v.n, name="instance")
    _check_budget(v)
    for rank in range(1, (1 << v.p) + 1):
        w = bits_of_rank(rank, v.p)
        if v.check(z, w):
            return w
    return None


class TreeHypothesis:
    __slots__ = ("tree",)

    def __init__(self, tree: DecisionTree) -> None:
        self.tree = tree

    def __call__(self, x: str) -> int:
        return dt_eval(self.tree, x)


def erm_learner(stream, sample: LabeledSample):
    """First enumerated tree with zero empirical error (enumeration order
    breaks ties); the realizable setting guarantees one exists."""
    for _z, tree in stream:
        if all(dt_eval(tree, x) == y for x, y in sample.pairs):
            return TreeHypothesis(tree)
    raise DataInconsistencyError("no enumerated concept is consistent with the sample")
