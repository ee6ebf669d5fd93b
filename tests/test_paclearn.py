import math
import random
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from certlab.bits import int_to_bits
from certlab.codes import DEFAULT_CODE_PARAMS, get_code
from certlab.concepts import CertConcept, ExampleLayout, ldim_oracle
from certlab.errors import ConfigError, DataInconsistencyError, ShapeError
from certlab.paclearn import (
    Distribution,
    JuntaHypothesis,
    LabeledSample,
    TableHypothesis,
    draw_sample,
    error_of,
    few_sample_learner,
    junta_learner,
    labels_on,
    pac_trial_suite,
    sparse_erm,
)
from certlab.harness.commands import COMMANDS, _target_concept, corpus_concepts, distribution_suite
from certlab.harness.config import read_config
from certlab.harness.corpus import build_corpus
from certlab.sat import ThreeSatInstance, exhaustive_formulas
from certlab.verifiers import FormulaEncoding, StepCounter, ThreeSatVerifier
from oracles import (
    ENC2,
    V2,
    Z0,
    Z_UNSAT,
    enumerate_class,
    erm_learner,
    python_calls,
    reference_error,
    reference_junta_label,
    reference_junta_table,
)


def concept0() -> CertConcept:
    return CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)


def useful_points(c: CertConcept) -> list[str]:
    return [c.z + int_to_bits(v, c.layout.ell) for v in range(1 << c.layout.ell)]


def uniform_error(points, target, h) -> float:
    """h's error against the target under the uniform distribution on points."""
    dist = Distribution.uniform(points)
    return error_of(dist, labels_on(dist, target), h)


# -- distributions and samples ---------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ConfigError):
        Distribution(["00"], [0.5])
    with pytest.raises(ConfigError):
        Distribution(["00", "01"], [0.5])
    with pytest.raises(ConfigError):
        Distribution(["00"], [-1.0])
    with pytest.raises(ConfigError):
        Distribution.uniform([])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ConfigError, match="weights must be finite"):
            Distribution(["00", "01"], [bad, 1.0])
    for point in (5, None):
        with pytest.raises(ShapeError) as err:
            Distribution([point], [1.0])
        assert str(err.value) == f"support point must be a string over 0/1, got {point}"
    Distribution(["00", "01"], [0.25, 0.75])


def test_draw_sample_basics():
    c = concept0()
    dist = Distribution.uniform(useful_points(c))
    assert len(draw_sample(dist, labels_on(dist, c), 0, random.Random(0))) == 0
    pm = Distribution.point_mass(useful_points(c)[3])
    s = draw_sample(pm, labels_on(pm, c), 5, random.Random(0))
    assert all(x == useful_points(c)[3] and y == c(x) for x, y in s)
    with pytest.raises(ConfigError):
        draw_sample(dist, labels_on(dist, c), -1, random.Random(0))


def test_draw_sample_uniform_frequencies_within_3_sigma():
    pts = ["00", "01", "10", "11"]
    dist = Distribution.uniform(pts)
    m = 10_000
    draws = [x for x, _ in draw_sample(dist, bytes(4), m, random.Random(42))]
    sigma = math.sqrt(0.25 * 0.75 / m)
    for p in pts:
        assert abs(draws.count(p) / m - 0.25) <= 3 * sigma


@pytest.mark.parametrize("seed", [0, 1, 7, "draw"])
@pytest.mark.parametrize(
    "points,weights",
    [
        (["00", "01", "10", "11"], [0.1, 0.2, 0.3, 0.4]),
        (["00", "01", "10", "11"], [0.0, 0.5, 0.5, 0.0]),  # zero-weight points at both ends
        (["00", "01", "10"], [1 / 3, 0.0, 2 / 3]),
        (["01", "10", "01", "01"], [0.25, 0.25, 0.25, 0.25]),  # duplicate points
        (["11"], [1.0]),
    ],
)
def test_draw_is_choices_over_the_weights_and_leaves_the_rng_alike(seed, points, weights):
    dist = Distribution(points, weights)
    labels = bytes(i % 2 for i in range(len(points)))
    for m in (0, 1, 47):
        ours, theirs = random.Random(seed), random.Random(seed)
        drawn = theirs.choices(range(len(points)), weights=weights, k=m)
        assert draw_sample(dist, labels, m, ours) == tuple((points[i], labels[i]) for i in drawn)
        assert ours.random() == theirs.random()


def test_draw_sample_deterministic_given_seed():
    c = concept0()
    dist = Distribution.uniform(useful_points(c))
    a = draw_sample(dist, labels_on(dist, c), 20, random.Random("s"))
    b = draw_sample(dist, labels_on(dist, c), 20, random.Random("s"))
    assert a == b


def reference_sample_check(pairs) -> None:
    """Per-pair validation as the sample documents it: every point a string
    over 0/1 as long as the first, every label equal to 0 or 1."""
    for x, y in pairs:
        if not isinstance(x, str) or not set(x) <= {"0", "1"}:
            raise ShapeError(f"sample point must be a string over 0/1, got {x!r}")
        # the first point is a string here: it passed the check above
        length = len(pairs[0][0])
        if len(x) != length:
            raise ShapeError(f"sample point must have length {length}, got {len(x)}")
        if y not in (0, 1):
            raise ShapeError(f"label must be 0/1, got {y!r}")


def outcome(check, pairs):
    try:
        check(pairs)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


SAMPLE_LABELS = st.sampled_from([0, 1, True, False, 1.0, 2, "1", None])


@st.composite
def sample_point(draw, length: int):
    kind = draw(st.sampled_from(["good", "good", "good", "chars", "length", "type"]))
    if kind == "good":
        return draw(st.text("01", min_size=length, max_size=length))
    if kind == "chars":
        # a string of the right length with at least one character not 0/1
        good = draw(st.text("01", min_size=max(length, 1), max_size=max(length, 1)))
        bad = draw(st.sampled_from(["2", "a", " ", "_", "?", "\u0660", "\uff11", "\u0661"]))
        at = draw(st.integers(0, len(good) - 1))
        return good[:at] + bad + good[at + 1 :]
    if kind == "length":
        return draw(st.text("01", max_size=length + 3).filter(lambda t: len(t) != length))
    return draw(
        st.sampled_from([None, 0, 1, 101, b"01", ["0", "1"], ("1",), 1.0])
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_labeled_sample_accepts_exactly_what_a_per_pair_check_accepts(data):
    length = data.draw(st.integers(0, 12))
    pairs = tuple(
        (data.draw(sample_point(length)), data.draw(SAMPLE_LABELS))
        for _ in range(data.draw(st.integers(0, 6)))
    )
    expected = outcome(reference_sample_check, pairs)
    assert outcome(LabeledSample, pairs) == expected
    if expected is None:
        assert LabeledSample(pairs) == pairs


def test_labeled_sample_messages():
    good = ("0101", 1)
    cases = [
        ((good, ("01\u0661" + "1", 0)), "sample point must be a string over 0/1, got '01\u06611'"),
        ((good, ("010", 0)), "sample point must have length 4, got 3"),
        ((good, (b"0101", 0)), "sample point must be a string over 0/1, got b'0101'"),
        ((good, ("0101", 2)), "label must be 0/1, got 2"),
        ((good, ("0101", "1")), "label must be 0/1, got '1'"),
        # the first fault in pair order is reported
        ((("0101", None), ("0x01", 1)), "label must be 0/1, got None"),
        ((good, ("0x01", None)), "sample point must be a string over 0/1, got '0x01'"),
        # ... also when a later pair is malformed
        ((("0101", 2), ("0101", 1, 0)), "label must be 0/1, got 2"),
        # a first point that is not a string has no length to compare with
        (((5, 1),), "sample point must be a string over 0/1, got 5"),
        (((None, 0), good), "sample point must be a string over 0/1, got None"),
    ]
    for pairs, message in cases:
        with pytest.raises(ShapeError) as err:
            LabeledSample(pairs)
        assert str(err.value) == message
    assert len(LabeledSample((good, ("1111", True), ("0000", 1.0)))) == 3


def test_labels_on_calls_the_concept_once_per_support_point():
    c = concept0()
    dist = Distribution.uniform(useful_points(c) + ["0" * c.layout.example_len])
    calls = []

    def counting(x):
        calls.append(x)
        return c(x)

    labels = labels_on(dist, counting)
    assert calls == list(dist.points)
    for x, y in zip(dist.points, labels):
        assert y == int(c(x))
    assert calls == list(dist.points)


def test_labels_on_raises_what_the_concept_raises():
    c = concept0()
    dist = Distribution.uniform(useful_points(c) + ["0" * c.layout.example_len])
    bad = dist.points[3]

    def picky(x):
        if x == bad:
            raise DataInconsistencyError(f"no label for {x}")
        return c(x)

    with pytest.raises(DataInconsistencyError) as err:
        labels_on(dist, picky)
    assert str(err.value) == f"no label for {bad}"


def test_error_of_examples():
    c = concept0()
    dist = Distribution.uniform(useful_points(c))
    labels = labels_on(dist, c)
    assert error_of(dist, labels, c) == 0.0
    flip = lambda x: 1 - c(x)
    assert error_of(dist, labels, flip) == pytest.approx(1.0)
    # constant-0 error under uniform-on-useful = codeword weight / 2^ell
    cw = get_code(DEFAULT_CODE_PARAMS, 2).encode_value(0b01)
    expected = cw.bit_count() / (1 << c.layout.ell)
    assert error_of(dist, labels, TableHypothesis(())) == pytest.approx(expected)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_error_of_equals_the_per_point_sum_exactly(data):
    """error_of sums the same weights in the same order as one call of f and h
    per support point, so the floats are equal whatever the target f and the
    hypothesis h; a junta labels a point list, and a whole support, as it
    labels each point."""
    kind = data.draw(st.sampled_from(["standard", "uniform"]))
    lay = ExampleLayout.of(V2.n, DEFAULT_CODE_PARAMS, V2.p, kind)
    other = ExampleLayout.of(
        V2.n, DEFAULT_CODE_PARAMS, V2.p, "uniform" if kind == "standard" else "standard"
    )
    assert other.example_len == lay.example_len
    size = 1 << lay.ell
    parts = [Z0] + data.draw(st.lists(st.text("01", min_size=lay.n, max_size=lay.n), max_size=2))
    k = data.draw(st.integers(1, 40))
    points = [
        lay.example(data.draw(st.sampled_from(parts)), data.draw(st.integers(0, size - 1)))
        for _ in range(k)
    ]
    points += data.draw(st.lists(st.sampled_from(points), max_size=k))  # duplicate points
    k = len(points)
    raw = data.draw(st.lists(st.integers(0, 1000), min_size=k, max_size=k).filter(any))
    dist = Distribution(points, [a / sum(raw) for a in raw])
    words = st.integers(0, (1 << size) - 1)
    heads = st.sampled_from([x[: lay.matched] for x in parts]) | st.text("01", max_size=lay.matched)
    standard = lay if kind == "standard" else other
    # a head no support point starts with: every label is 0
    unmatched = next(
        h for h in map(partial(int_to_bits, length=standard.matched), range(1 << standard.matched))
        if not any(x.startswith(h) for x in points)
    )
    concept = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS, kind=kind)
    juntas = [
        JuntaHypothesis(data.draw(words), lay),
        JuntaHypothesis(data.draw(words), lay, data.draw(heads)),
        JuntaHypothesis(data.draw(words), other, data.draw(st.text("01", max_size=other.matched))),
        JuntaHypothesis(data.draw(words), standard, unmatched),
        concept,
    ]
    others = [
        TableHypothesis(data.draw(st.lists(st.sampled_from(points)))),
        lambda x: x.count("1") % 2,
        lambda x: x.endswith("1"),  # answers with a bool
    ]
    f = data.draw(st.sampled_from(juntas + others))
    h = data.draw(st.sampled_from(juntas + others))
    assert error_of(dist, labels_on(dist, f), h) == reference_error(dist, f, h)
    for j in juntas:
        assert j.labels(dist.points) == [j(x) for x in dist.points]
        assert j.labels(points) == [reference_junta_label(j, x) for x in points]
        assert list(labels_on(dist, j)) == j.labels(points)
    assert not any(labels_on(dist, juntas[3]))


@pytest.mark.parametrize("delta", [-1, 1])
def test_error_of_on_a_support_of_the_wrong_length_raises_the_index_error(delta):
    c = concept0()
    want = c.layout.example_len
    n = want + delta
    dist = Distribution.uniform(["0" * n, "1" * n])
    table, other = TableHypothesis(()), CertConcept(V2, Z0, DEFAULT_CODE_PARAMS, kind="uniform")
    for f, h in ((table, c), (c, table), (table, other), (c, lambda x: 0)):
        with pytest.raises(ShapeError) as expected:
            reference_error(dist, f, h)
        with pytest.raises(ShapeError) as err:
            error_of(dist, labels_on(dist, f), h)
        assert str(err.value) == str(expected.value) == f"example must have length {want}, got {n}"
    # a point list of mixed lengths raises at its first wrong one
    with pytest.raises(ShapeError) as err:
        c.labels(["0" * want, "0" * (want + 2), "0" * n])
    assert str(err.value) == f"example must have length {want}, got {want + 2}"


def test_error_of_needs_one_label_per_support_point():
    c = concept0()
    dist = Distribution.uniform(useful_points(c))
    labels = labels_on(dist, c)
    for wrong in (labels[:-1], labels + b"\x00", b""):
        with pytest.raises(ShapeError) as err:
            error_of(dist, wrong, c)
        assert str(err.value) == f"need {len(labels)} labels, one per support point, got {len(wrong)}"


def test_scoring_and_drawing_run_no_python_frame_per_point():
    """A table answers from C, and a draw takes its labels from the support
    labels, so scoring a support and drawing a sample enter as many Python
    frames at any size."""

    def scoring_frames(size):
        dist = Distribution.uniform([int_to_bits(i, 7) for i in range(size)])
        labels = labels_on(dist, lambda x: x.count("1") % 2)
        table = TableHypothesis(dist.points[::3])
        return python_calls(error_of, dist, labels, table)

    assert scoring_frames(8) == scoring_frames(128)
    dist = Distribution.uniform([int_to_bits(i, 7) for i in range(128)])
    labels = labels_on(dist, lambda x: x.count("1") % 2)
    drawing = [python_calls(draw_sample, dist, labels, m, random.Random(m)) for m in (1, 47)]
    assert drawing[0] == drawing[1]


def test_juntas_label_a_support_or_probe_without_a_call_per_point():
    """`labels_on` and `ldim_oracle` label certificate concepts from
    their words: no `JuntaHypothesis.__call__` frame runs."""
    c = concept0()
    dist = Distribution.uniform(useful_points(c) + [c.layout.example("1" * V2.n, 3)])
    concepts = [CertConcept(V2, ENC2.encode(f), DEFAULT_CODE_PARAMS) for f in exhaustive_formulas(2, 2)]
    probe = dist.points[-16:]
    call = JuntaHypothesis.__call__.__code__
    assert python_calls(labels_on, dist, c, code=call) == 0
    assert python_calls(ldim_oracle, concepts, probe, code=call) == 0
    # a concept behind a lambda is called once per point, and counted
    assert python_calls(ldim_oracle, concepts + [lambda x: c(x)], probe, code=call) == 16


def test_a_drawn_sample_is_a_plain_tuple_of_pairs():
    """`draw_sample` hands a trial's learner the tuple `zip` makes, not a
    copy of it in a tuple subclass."""
    c = concept0()
    dist = Distribution.uniform(useful_points(c))
    labels = labels_on(dist, c)
    seen = []

    def recording(sample, counter=None):
        seen.append(sample)
        return sparse_erm(sample, counter=counter)

    pac_trial_suite(recording, labels, dist, 0.1, 9, 4, "plain-tuples")
    seen.append(draw_sample(dist, labels, 0, random.Random(0)))
    assert len(seen) == 5
    for sample in seen:
        assert type(sample) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in sample)
        assert sample == LabeledSample(sample)


def test_a_trial_suite_of_juntas_reads_each_index_value_once(monkeypatch):
    """Labelling, learning and scoring every trial of two suites on one
    support reads each support point's index value once: the concepts the
    learner returns are scored from the distribution's cached values."""
    c = concept0()
    useless = c.layout.example("1" * V2.n, 3)
    assert not useless.startswith(c.head)
    dist = Distribution.uniform(useful_points(c) + [useless])
    read = []
    real_index = ExampleLayout.index

    def counting_index(self, x):
        read.append(x)
        return real_index(self, x)

    monkeypatch.setattr(ExampleLayout, "index", counting_index)
    learner = partial(few_sample_learner, verifier=V2, params=DEFAULT_CODE_PARAMS)
    labels = labels_on(dist, c)
    for seed in ("index-once", "index-once:2"):
        res = pac_trial_suite(learner, labels, dist, 0.1, 47, 20, seed)
        assert res.success_rate == 1.0
    assert read == list(dist.points)


# -- few-sample learner -----------------------------------------------------------


def test_few_sample_exact_after_one_useful_example():
    c = concept0()
    one = c.one_points()[0]
    sample = LabeledSample(((one, 1),))
    h = few_sample_learner(sample, V2, DEFAULT_CODE_PARAMS)
    for x in useful_points(c):
        assert h(x) == c(x)
    rng = random.Random(1)
    for _ in range(100):
        x = int_to_bits(rng.getrandbits(c.layout.example_len), c.layout.example_len)
        assert h(x) == c(x)
    # exact hypothesis has zero error on every distribution over the domain
    assert uniform_error(useful_points(c), c, h) == 0.0


def test_few_sample_returns_the_concept_it_pins():
    c = concept0()
    zero_pt = next(x for x in useful_points(c) if c(x) == 0)
    sample = LabeledSample(((zero_pt, 0), (c.one_points()[0], 1)))
    h = few_sample_learner(sample, V2, DEFAULT_CODE_PARAMS)
    assert isinstance(h, CertConcept) and h.z == Z0


def test_few_sample_all_zero_sample_returns_constant_zero():
    c = concept0()
    zero_pt = next(x for x in useful_points(c) if c(x) == 0)
    h = few_sample_learner(LabeledSample(((zero_pt, 0),)), V2, DEFAULT_CODE_PARAMS)
    assert isinstance(h, TableHypothesis) and not h
    h2 = few_sample_learner(LabeledSample(()), V2, DEFAULT_CODE_PARAMS)
    assert h2("0" * c.layout.example_len) == 0


def test_few_sample_unsat_concept_sample():
    c = CertConcept(V2, Z_UNSAT, DEFAULT_CODE_PARAMS)
    pts = [Z_UNSAT + int_to_bits(v, 4) for v in range(4)]
    h = few_sample_learner(
        LabeledSample(tuple((x, 0) for x in pts)), V2, DEFAULT_CODE_PARAMS
    )
    assert all(h(x) == 0 for x in pts)


def test_few_sample_rejects_a_sample_the_pinned_concept_mislabels():
    c = concept0()
    zero_pt = next(x for x in useful_points(c) if c(x) == 0)
    one = c.one_points()[0]
    with pytest.raises(DataInconsistencyError) as err:
        few_sample_learner(LabeledSample(((one, 1), (zero_pt, 1))), V2, DEFAULT_CODE_PARAMS)
    assert str(err.value) == "sample is not labeled by any certificate concept"
    # bool and float labels pass the check as 0/1 do
    h = few_sample_learner(LabeledSample(((one, True), (zero_pt, 0.0))), V2, DEFAULT_CODE_PARAMS)
    assert isinstance(h, CertConcept) and h.z == Z0


def test_few_sample_conflicting_prefixes_raise():
    c = concept0()
    other = ThreeSatInstance(2, [(1,)])
    c2 = CertConcept(V2, ENC2.encode(other), DEFAULT_CODE_PARAMS)
    sample = LabeledSample(((c.one_points()[0], 1), (c2.one_points()[0], 1)))
    with pytest.raises(DataInconsistencyError):
        few_sample_learner(sample, V2, DEFAULT_CODE_PARAMS)


def test_few_sample_impossible_one_label_raises():
    sample = LabeledSample(((Z_UNSAT + "0000", 1),))
    with pytest.raises(DataInconsistencyError):
        few_sample_learner(sample, V2, DEFAULT_CODE_PARAMS)


# -- sparse ERM -------------------------------------------------------------------


def test_sparse_erm_table_rule():
    c = concept0()
    zi, zj = c.one_points()[0], next(x for x in useful_points(c) if c(x) == 0)
    counter = StepCounter()
    h = sparse_erm(LabeledSample(((zi, 1), (zj, 0))), counter=counter)
    assert h(zi) == 1 and h(zj) == 0
    assert counter.steps == 2  # one pass over the sample
    assert h("0" * len(zi)) == 0


def test_sparse_erm_empty_sample_is_constant_zero():
    h = sparse_erm(LabeledSample(()))
    assert h("0101") == 0


def test_sparse_erm_full_coverage_zero_error():
    c = concept0()
    pairs = tuple((x, c(x)) for x in useful_points(c))
    h = sparse_erm(LabeledSample(pairs))
    assert uniform_error(useful_points(c), c, h) == 0.0


def test_sparse_erm_contradiction_raises():
    with pytest.raises(DataInconsistencyError):
        sparse_erm(LabeledSample((("00", 1), ("00", 0))))


# -- junta learner ----------------------------------------------------------------


def test_junta_learner_full_coverage():
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS, kind="uniform")
    lay = c.layout
    rng = random.Random(5)
    pairs = []
    for v in range(1 << lay.ell):
        x = int_to_bits(v, lay.ell) + int_to_bits(rng.getrandbits(lay.n), lay.n)
        pairs.append((x, c(x)))
    h = junta_learner(LabeledSample(tuple(pairs)), lay)
    pts = [int_to_bits(v, lay.ell) + "0" * lay.n for v in range(1 << lay.ell)]
    assert uniform_error(pts, c, h) == 0.0


def test_junta_learner_partial_coverage_error_bound():
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS, kind="uniform")
    lay = c.layout
    seen = range(8)  # half the 16 indices
    pairs = tuple(
        (int_to_bits(v, lay.ell) + "0" * lay.n, c(int_to_bits(v, lay.ell) + "0" * lay.n))
        for v in seen
    )
    h = junta_learner(LabeledSample(pairs), lay)
    pts = [int_to_bits(v, lay.ell) + "0" * lay.n for v in range(1 << lay.ell)]
    err = uniform_error(pts, c, h)
    unseen_ones = sum((c.word >> v) & 1 for v in range(8, 16))
    assert err == pytest.approx(unseen_ones / 16)


def test_junta_learner_inconsistent_index_raises():
    lay = ExampleLayout.of(V2.n, DEFAULT_CODE_PARAMS, V2.p, "uniform")
    a = "0000" + "0" * lay.n
    b = "0000" + "1" * lay.n
    with pytest.raises(DataInconsistencyError):
        junta_learner(LabeledSample(((a, 1), (b, 0))), lay)


def test_junta_learner_checks_the_example_length_once():
    lay = ExampleLayout.of(V2.n, DEFAULT_CODE_PARAMS, V2.p, "uniform")
    short = LabeledSample((("0" * (lay.example_len - 1), 1), ("1" * (lay.example_len - 1), 0)))
    with pytest.raises(ShapeError) as err:
        junta_learner(short, lay)
    assert str(err.value) == f"example must have length {lay.example_len}, got {lay.example_len - 1}"


def test_junta_learner_empty_is_constant_zero():
    lay = ExampleLayout.of(V2.n, DEFAULT_CODE_PARAMS, V2.p, "uniform")
    h = junta_learner(LabeledSample(()), lay)
    assert h("0" * lay.example_len) == 0


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_junta_learner_word_matches_the_reference_table(data):
    """The learner's answer word is the reference's dict-built table read as
    bits, or both raise the same inconsistency at the same pair."""
    kind = data.draw(st.sampled_from(["standard", "uniform"]))
    lay = ExampleLayout.of(V2.n, DEFAULT_CODE_PARAMS, V2.p, kind)
    # few index values, so a sample repeats some of them
    values = data.draw(st.lists(st.integers(0, (1 << lay.ell) - 1), min_size=1, max_size=4))
    pairs = []
    for _ in range(data.draw(st.integers(0, 12))):
        part = data.draw(st.text("01", min_size=lay.n, max_size=lay.n))
        label = data.draw(st.sampled_from([0, 1, True, False, 1.0, 0.0]))
        pairs.append((lay.example(part, data.draw(st.sampled_from(values))), label))
    sample = LabeledSample(tuple(pairs))
    try:
        table = reference_junta_table(sample, lay)
    except DataInconsistencyError as expected:
        with pytest.raises(DataInconsistencyError) as err:
            junta_learner(sample, lay)
        assert str(err.value) == str(expected)
        return
    h = junta_learner(sample, lay)
    assert h.word == sum(b << v for v, b in enumerate(table))


def test_junta_hypothesis_word_must_fit_the_index_values():
    lay = ExampleLayout.of(V2.n, DEFAULT_CODE_PARAMS, V2.p, "uniform")
    size = 1 << lay.ell
    full = JuntaHypothesis((1 << size) - 1, lay)
    assert full(lay.example("0" * lay.n, size - 1)) == 1
    for word in (-1, 1 << size):
        with pytest.raises(ShapeError) as err:
            JuntaHypothesis(word, lay)
        assert str(err.value) == f"junta word must fit in {size} bits, got {word}"


# -- enumeration ERM ---------------------------------------------------------------


def small_class():
    enc = FormulaEncoding(max_vars=2, max_clauses=1)
    v = ThreeSatVerifier(enc)
    zs = [enc.encode(f) for f in exhaustive_formulas(2, 1)]
    return v, zs


def test_erm_empty_sample_returns_first_concept():
    v, zs = small_class()
    trees = list(enumerate_class(v, DEFAULT_CODE_PARAMS, zs))
    h = erm_learner(iter(trees), LabeledSample(()))
    from certlab.concepts import dt_eval

    for val in (0, 1, 77):
        x = int_to_bits(val, 16)
        assert h(x) == dt_eval(trees[0][1], x)


def test_erm_pins_down_target_with_distinguishing_sample():
    v, zs = small_class()
    params = DEFAULT_CODE_PARAMS
    target = CertConcept(v, zs[3], params)
    if target.first_cert is None:
        target = CertConcept(v, zs[1], params)
    # brute-force a distinguishing sample: label every useful point of the target
    pts = [target.z + int_to_bits(i, target.layout.ell) for i in range(16)]
    sample = LabeledSample(tuple((x, target(x)) for x in pts))
    h = erm_learner(enumerate_class(v, params, zs), sample)
    assert all(h(x) == y for x, y in sample)


def test_erm_no_consistent_concept_raises():
    v, zs = small_class()
    bad = LabeledSample((("0" * 16, 1), ("1" * 16, 1)))
    with pytest.raises(DataInconsistencyError):
        erm_learner(enumerate_class(v, DEFAULT_CODE_PARAMS, zs[:1]), bad)


# -- trial suite and bounds ----------------------------------------------------------


def test_sample_size_arithmetic():
    eps = 0.1
    m = math.ceil(math.log(100) / eps)
    assert m == 47
    # exact tail: a distribution with 1-mass >= eps yields an all-0 sample
    # with probability at most (1-eps)^m <= 0.01
    assert (1 - eps) ** m <= 0.01
    p_sparse = 16
    m2 = math.ceil((p_sparse * math.log(2) + math.log(100)) / eps)
    assert m2 == 157
    assert (2**p_sparse) * (1 - eps) ** m2 <= 0.01


def test_pac_trial_suite_deterministic_and_perfect_learner():
    c = concept0()
    dist = Distribution.uniform(useful_points(c))
    learner = partial(few_sample_learner, verifier=V2, params=DEFAULT_CODE_PARAMS)
    a = pac_trial_suite(learner, labels_on(dist, c), dist, 0.1, 47, 30, "seed")
    b = pac_trial_suite(learner, labels_on(dist, c), dist, 0.1, 47, 30, "seed")
    assert (a.success_rate, a.mean_error, a.mean_steps) == (b.success_rate, b.mean_error, b.mean_steps)
    assert a.success_rate == 1.0


def test_a_trial_suite_needs_a_0_1_target():
    c = concept0()
    dist = Distribution.uniform(useful_points(c))
    labels = labels_on(dist, c)
    for target, bad in ((labels[:3] + b"\x02" + labels[4:], "2"), (labels[:-1] + b"\xff", "255"), ("01" * 8, "'0'")):
        with pytest.raises(ShapeError) as err:
            pac_trial_suite(sparse_erm, target, dist, 0.1, 47, 3, 0)
        assert str(err.value) == f"label must be 0/1, got {bad}"


def test_constant_zero_learner_fails_heavy_one_mass():
    c = concept0()
    ones = c.one_points()
    dist = Distribution.uniform(ones)  # all mass on 1-points

    def learner(sample, counter=None):
        return TableHypothesis(())

    res = pac_trial_suite(learner, labels_on(dist, c), dist, 0.1, 5, 20, 0)
    assert res.success_rate == 0.0


def test_a_raising_learner_fails_its_trial_with_error_one():
    # on useless_mass the junta learner sees index 0 with both labels whenever
    # a draw labels it 1, as learn's target for this corpus does
    corpus = build_corpus(read_config({"corpus.kind": "random", "corpus.count": "50"}, COMMANDS["learn"], "learn"), 5)
    concept = _target_concept(corpus_concepts(corpus, DEFAULT_CODE_PARAMS))
    dist = dict(distribution_suite(concept))["useless_mass"]
    junta = partial(junta_learner, layout=concept.layout)
    learned = []  # each trial's hypothesis, None where the learner raised

    def learner(sample, counter=None):
        learned.append(None)
        learned[-1] = junta(sample, counter=counter)
        return learned[-1]

    labels = labels_on(dist, concept)
    res = pac_trial_suite(learner, labels, dist, 0.1, 47, 200, 5)
    raised = [h is None for h in learned]
    assert any(raised) and not all(raised)
    errors = [1.0 if h is None else error_of(dist, labels, h) for h in learned]
    assert res.mean_error == sum(errors) / 200
    assert res.success_rate <= raised.count(False) / 200

    def counts_then_raises(sample, counter=None):
        counter.steps += 3
        raise DataInconsistencyError("always")

    res = pac_trial_suite(counts_then_raises, labels, dist, 0.1, 5, 4, 0)
    assert (res.success_rate, res.mean_error, res.mean_steps) == (0.0, 1.0, 3.0)


def test_realizable_consistency_property():
    rng = random.Random(77)
    c = concept0()
    dist = Distribution.uniform(useful_points(c))
    for m in (1, 5, 20):
        sample = draw_sample(dist, labels_on(dist, c), m, rng)
        for h in (
            few_sample_learner(sample, V2, DEFAULT_CODE_PARAMS),
            sparse_erm(sample),
        ):
            assert all(h(x) == y for x, y in sample)
