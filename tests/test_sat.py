import random

import pytest
from hypothesis import given, settings, strategies as st

from certlab import sat
from certlab.errors import FormatError, ShapeError
from certlab.sat import (
    ThreeSatInstance,
    brute_force_sat,
    clause_universe,
    eval_assignment,
    exhaustive_formulas,
    parse_dimacs,
    random_instance,
    satisfying_mask,
)
from oracles import PHI0, PHI_UNSAT, clausewise_mask, solutions, to_dimacs


def test_eval_assignment_examples():
    assert eval_assignment(PHI0, "01")
    assert not eval_assignment(PHI0, "00")
    for v in range(4):
        assert not eval_assignment(PHI_UNSAT, format(v, "02b"))
    assert eval_assignment(ThreeSatInstance(2, []), "00")  # empty formula
    assert not eval_assignment(ThreeSatInstance(1, [()]), "0")  # empty clause


def test_eval_assignment_shape():
    with pytest.raises(ShapeError):
        eval_assignment(PHI0, "0")
    assert eval_assignment(PHI0, "011")  # extra bits ignored


def test_canonicalization():
    a = ThreeSatInstance(2, [(2, 1)])
    b = ThreeSatInstance(2, [(1, 2)])
    assert a == b
    assert ThreeSatInstance(2, [(1, 1, 2)]).clauses == ((1, 2),)
    with pytest.raises(FormatError):
        ThreeSatInstance(2, [(3,)])
    with pytest.raises(FormatError):
        ThreeSatInstance(4, [(1, 2, 3, 4)])
    with pytest.raises(FormatError):
        ThreeSatInstance(2, [(0,)])


def test_satisfying_mask_matches_direct_enumeration():
    rng = random.Random(0)
    instances = exhaustive_formulas(2, 2) + [random_instance(rng, 4, 6) for _ in range(25)]
    for inst in instances:
        p = inst.num_vars
        mask = satisfying_mask(inst, p)
        sols = set(solutions(inst))
        for v in range(1 << p):
            a = format(v, f"0{p}b")
            assert bool((mask >> v) & 1) == (a in sols)
        assert brute_force_sat(inst) == (mask != 0)


@st.composite
def formula_and_width(draw):
    """A formula over 0..8 variables and a certificate width p of num_vars to
    num_vars + 2.  Clauses have 1..3 literals and may repeat a literal or hold
    both signs of a variable; now and then an empty clause is added."""
    n = draw(st.integers(0, 8))
    p = n + draw(st.integers(0, 2))
    clauses = []
    if n:
        literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
        clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=12))
    if draw(st.integers(0, 7)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), ())
    return ThreeSatInstance(n, clauses), p


@settings(max_examples=500, deadline=None)
@given(formula_and_width())
def test_satisfying_mask_equals_the_clausewise_mask(case):
    inst, p = case
    assert satisfying_mask(inst, p) == clausewise_mask(inst, p)


def test_satisfying_mask_equals_the_clausewise_mask_at_p20():
    rng = random.Random(20)
    for _ in range(5):
        inst = random_instance(rng, 20, 88)
        assert satisfying_mask(inst, 20) == clausewise_mask(inst, 20)


def test_var_mask_matches_the_division_formula(monkeypatch):
    monkeypatch.setattr(sat, "_VAR_MASKS", {})
    for p in range(1, 13):
        ones = (1 << (1 << p)) - 1
        for j in range(1, p + 1):
            b = p - j
            chunk = ((1 << (1 << b)) - 1) << (1 << b)
            period = 1 << (b + 1)
            assert sat._var_mask(p, j) == chunk * (ones // ((1 << period) - 1)), (p, j)


def test_satisfying_mask_extra_free_variables():
    # a 2-var formula inside a 3-var certificate space: free bit doubles solutions
    mask2 = satisfying_mask(PHI0, 2)
    mask3 = satisfying_mask(PHI0, 3)
    assert mask3.bit_count() == 2 * mask2.bit_count()


def test_dimacs_round_trip():
    rng = random.Random(1)
    for _ in range(20):
        inst = random_instance(rng, 4, 5)
        assert parse_dimacs(to_dimacs(inst)) == inst


def test_dimacs_rejects():
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")  # 4-literal clause
    with pytest.raises(FormatError):
        parse_dimacs("1 2 0\n")  # no header
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 2\n1 0\n")  # clause count mismatch
    with pytest.raises(FormatError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause
    inst = parse_dimacs("c comment\np cnf 2 1\n-1 2 0\n")
    assert inst == ThreeSatInstance(2, [(-1, 2)])


def test_dimacs_percent_line_ends_the_clause_list():
    # SATLIB's files end with a "%" line and then a lone 0
    satlib = "p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n"
    assert parse_dimacs(satlib) == ThreeSatInstance(3, [(1, -2, 3), (-1, 2)])
    with pytest.raises(FormatError, match="not terminated"):
        parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2\n%\n0\n")


def test_two_var_universe_and_corpus_sizes():
    assert len(clause_universe(2)) == 8
    # sum_{k<=3} C(8,k) = 1 + 8 + 28 + 56
    assert len(exhaustive_formulas(2, 3)) == 93
    assert len(exhaustive_formulas(2, 1)) == 9


def test_exhaustive_corpus_contains_sat_and_unsat():
    corpus = exhaustive_formulas(2, 3)
    truth = [brute_force_sat(f) for f in corpus]
    assert any(truth) and not all(truth)


def test_random_instance_properties():
    rng = random.Random(9)
    for _ in range(50):
        inst = random_instance(rng, 4, 4)
        assert len(inst.clauses) == 4
        for clause in inst.clauses:
            assert len(clause) == 3
            assert len({abs(l) for l in clause}) == 3
    a = random_instance(random.Random("s"), 4, 4)
    b = random_instance(random.Random("s"), 4, 4)
    assert a == b
