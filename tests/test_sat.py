import random
from unittest import mock

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
    first_satisfying,
    parse_dimacs,
    random_instance,
    satisfying_mask,
)
import oracles
from oracles import (
    PHI0,
    PHI_UNSAT,
    assert_canonical,
    clausewise_mask,
    reference_random_instance,
    solutions,
    to_dimacs,
    var_mask,
)


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


def lowest_set_bit(mask: int) -> int | None:
    return (mask & -mask).bit_length() - 1 if mask else None


@st.composite
def search_case(draw):
    """A formula, a certificate width p of 1..12 at least its num_vars, and
    how many variables the search folds, from none (it walks all p) to more
    than p.  Half the literals fall on x1..x3, so units, clauses with only
    walked literals and tautologies such as (1, -1, 3) are common; up to 40
    clauses make many formulas unsatisfiable; now and then an empty clause
    is added."""
    p = draw(st.integers(1, 12))
    n = max(0, p - draw(st.integers(0, 2)))
    fold = draw(st.integers(0, p + 1))
    clauses = []
    if n:
        var = st.one_of(st.integers(1, min(n, 3)), st.integers(1, n))
        literal = var.flatmap(lambda v: st.sampled_from([v, -v]))
        clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), max_size=40))
    if draw(st.integers(0, 7)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), ())
    return ThreeSatInstance(n, clauses), p, fold


def assert_search_finds_the_lowest_set_bit(inst, p, fold):
    with mock.patch.object(sat, "SEARCH_FOLD_VARS", fold):
        got = first_satisfying(inst, p)
    assert got == lowest_set_bit(clausewise_mask(inst, p)), (inst, p, fold)


@settings(max_examples=500, deadline=None)
@given(search_case())
def test_first_satisfying_is_the_clausewise_masks_lowest_set_bit(case):
    assert_search_finds_the_lowest_set_bit(*case)


@pytest.mark.parametrize(
    "inst",
    [
        ThreeSatInstance(0, []),
        ThreeSatInstance(3, [()]),
        ThreeSatInstance(3, [(1, -1, 3)]),  # a tautology on the walked variable
        ThreeSatInstance(3, [(1, -1, 3), (1,), (-3,)]),  # ... which holds where x1 = 1
        ThreeSatInstance(3, [(1, 3, -3), (-1,)]),  # a tautology below it
        ThreeSatInstance(4, [(1,), (-1, 2), (-2, -3, 4), (3, -4)]),  # units and a chain
        ThreeSatInstance(3, [(1, 2), (1, -2), (-1, 3), (-1, -3)]),  # unsatisfiable
        ThreeSatInstance(4, [(-1, -2, -3), (1, 2, 3), (-1, 2), (3, 4)]),
    ],
)
def test_first_satisfying_at_every_fold_width(inst):
    for p in range(inst.num_vars, inst.num_vars + 3):
        for fold in range(p + 2):
            assert_search_finds_the_lowest_set_bit(inst, p, fold)


def test_first_satisfying_is_the_lowest_set_bit_at_p20():
    # the certify workload's formulas: the search walks x_1..x_(20 - SEARCH_FOLD_VARS)
    rng = random.Random("first:20")
    found = set()
    for _ in range(8):
        inst = random_instance(rng, 20, 88)
        want = lowest_set_bit(clausewise_mask(inst, 20))
        assert first_satisfying(inst, 20) == want, inst
        found.add(want is None)
    assert found == {True, False}


def widest_bucket_formula(rng: random.Random, p: int) -> ThreeSatInstance:
    """A formula over p variables whose clauses mostly start on x1 or x2, so
    they restrict the fold's two widest halves: units, 2- and 3-literal
    clauses, and the tautologies x1 | -x1 | xp and -x1 | x2 | -x2 on the
    lower and the upper half."""
    clauses = [(1, -1, p), (-1, 2, -2)]
    for _ in range(3 * p // 2):
        first = rng.choice((1, 1, 2, 2, rng.randint(3, p - 2)))
        width = rng.choice((1,) + (2,) * 5 + (3,) * 10)
        vs = (first, *rng.sample(range(first + 1, p + 1), width - 1))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return ThreeSatInstance(p, clauses)


def test_satisfying_mask_equals_the_clausewise_mask_in_the_widest_buckets():
    rng = random.Random("widest")
    nonzero = 0
    for p in range(12, 17):
        for _ in range(8):
            inst = widest_bucket_formula(rng, p)
            mask = satisfying_mask(inst, p)
            assert mask == clausewise_mask(inst, p), (p, inst)
            nonzero += mask != 0
    assert nonzero >= 30  # most formulas keep solutions for the masks to differ on


def test_var_mask_matches_the_division_formula(monkeypatch):
    monkeypatch.setattr(oracles, "VAR_MASKS", {})
    monkeypatch.setattr(sat, "_LIT_MASKS", {})
    for p in range(1, 13):
        ones = (1 << (1 << p)) - 1
        half = (1 << (1 << (p - 1))) - 1
        lits = sat._literal_masks(p, p)
        for j in range(1, p + 1):
            b = p - j
            chunk = ((1 << (1 << b)) - 1) << (1 << b)
            period = 1 << (b + 1)
            assert var_mask(p, j) == chunk * (ones // ((1 << period) - 1)), (p, j)
            # the literal masks: x_j's mask cut to 2^(p-1) bits and its complement there
            assert lits[j] == var_mask(p, j) & half, (p, j)
            assert lits[-j] == lits[j] ^ half, (p, j)
    # a narrow table: the masks of x_4..x_20 only, cut to 2^16 bits
    low = (1 << (1 << 16)) - 1
    lits = sat._literal_masks(20, 17)
    assert sorted(lits) == [*range(-20, -3), *range(4, 21)]
    for j in range(4, 21):
        assert lits[j] == var_mask(20, j) & low, j
        assert lits[-j] == lits[j] ^ low, j


def test_the_literal_mask_cache_holds_one_p(monkeypatch):
    monkeypatch.setattr(sat, "_LIT_MASKS", {})
    satisfying_mask(ThreeSatInstance(12, [(1, 2, -3)]), 12)
    satisfying_mask(ThreeSatInstance(10, [(1, 2, -3)]), 10)
    assert list(sat._LIT_MASKS) == [(10, 10)]
    lits = sat._LIT_MASKS[10, 10]
    assert sorted(lits) == [*range(-10, 0), *range(1, 11)]
    assert all(0 <= m < 1 << (1 << 9) for m in lits.values())


def test_a_p_below_num_vars_raises_before_any_literal_mask_is_built(monkeypatch):
    monkeypatch.setattr(sat, "_LIT_MASKS", {})
    satisfying_mask(ThreeSatInstance(10, [(1, 2, -3)]), 10)
    table = sat._LIT_MASKS[10, 10]
    for search in (satisfying_mask, first_satisfying):
        with pytest.raises(ShapeError):
            search(ThreeSatInstance(12, [(1, 2, -3)]), 11)
        assert list(sat._LIT_MASKS) == [(10, 10)] and sat._LIT_MASKS[10, 10] is table


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


def test_random_instance_equals_the_checked_constructors_formula():
    # random_instance sorts its clauses itself; the checked constructor
    # canonicalises the same draws
    for seed in range(200):
        size = random.Random(f"size:{seed}")
        num_vars = size.randint(3, 16)
        num_clauses = size.randint(1, 4 * num_vars)
        inst = random_instance(random.Random(seed), num_vars, num_clauses)
        assert inst == reference_random_instance(random.Random(seed), num_vars, num_clauses)
        assert_canonical(inst)


def test_exhaustive_formulas_are_canonical():
    for num_vars in (1, 2, 3):
        for inst in exhaustive_formulas(num_vars, 2):
            assert_canonical(inst)
