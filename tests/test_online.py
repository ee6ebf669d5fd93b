import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from certlab.bits import int_to_bits
from certlab.codes import DEFAULT_CODE_PARAMS
from certlab.concepts import CertConcept, JuntaHypothesis, cert_class_vc, ldim_oracle
from certlab.errors import BudgetError, DataInconsistencyError
from certlab.paclearn import (
    Distribution,
    LabeledSample,
    draw_sample,
    error_of,
    few_sample_learner,
    labels_on,
)
from certlab.sat import ThreeSatInstance, exhaustive_formulas
from online_learners import (
    ONLINE_TO_PAC_KAPPA,
    AdversaryInconsistencyError,
    OnlineToPacLearner,
    SingleMistakeLearner,
    SortedListLearner,
    random_consistent_adversary,
    run_online,
)
from oracles import (
    ENC2,
    PHI0,
    PHI_UNSAT,
    V2,
    Z0,
    Z_UNSAT,
    exhaustive_adversary_max_mistakes,
    reference_ldim,
)


def concepts_for(instances):
    return [CertConcept(V2, ENC2.encode(f), DEFAULT_CODE_PARAMS) for f in instances]


def make_single():
    return SingleMistakeLearner(V2, DEFAULT_CODE_PARAMS)


def probe_domain(n_points: int = 8) -> list[str]:
    c0 = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)
    c1 = CertConcept(V2, ENC2.encode(ThreeSatInstance(2, [(1,)])), DEFAULT_CODE_PARAMS)
    pts = c0.one_points()[:3] + c1.one_points()[:3]
    useless = ("1" if Z0[0] == "0" else "0") + Z0[1:]
    pts += [useless + "0000", useless + "0001"]
    return pts[:n_points]


def test_single_mistake_zero_mistakes_on_all_zero_sequence():
    c = CertConcept(V2, Z_UNSAT, DEFAULT_CODE_PARAMS)
    pts = [Z_UNSAT + int_to_bits(v, 4) for v in range(6)]
    log = run_online(make_single(), [(x, c(x)) for x in pts])
    assert log.mistakes == 0


def test_single_mistake_unique_mistake_at_first_one_label():
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)
    zero = next(x for x in [Z0 + int_to_bits(v, 4) for v in range(16)] if c(x) == 0)
    one = c.one_points()[0]
    seq = [zero, zero, one, one, zero] + c.one_points()[:3]
    log = run_online(make_single(), [(x, c(x)) for x in seq])
    assert log.mistakes == 1
    assert [r.mistake for r in log.rounds].index(True) == 2


def test_single_mistake_exhaustive_adversary_small():
    concepts = concepts_for([PHI0, PHI_UNSAT, ThreeSatInstance(2, [(2,)])])
    worst = exhaustive_adversary_max_mistakes(make_single, concepts, probe_domain(6), 4)
    assert worst <= 1


def test_single_mistake_inconsistent_adversary_detected():
    learner = make_single()
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)
    one = c.one_points()[0]
    learner.observe(one, 1)
    zero_pt = next(x for x in [Z0 + int_to_bits(v, 4) for v in range(16)] if c(x) == 0)
    with pytest.raises(AdversaryInconsistencyError):
        learner.observe(zero_pt, 1)
    with pytest.raises(AdversaryInconsistencyError):
        make_single().observe(Z_UNSAT + "0000", 1)


def test_both_learners_name_a_one_label_the_pinned_concept_rejects():
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)
    zero_pt = next(x for x in [Z0 + int_to_bits(v, 4) for v in range(16)] if c(x) == 0)
    for x in (zero_pt, Z_UNSAT + "0000"):
        with pytest.raises(
            DataInconsistencyError, match="^sample is not labeled by any certificate concept$"
        ):
            few_sample_learner(LabeledSample(((x, 1),)), V2, DEFAULT_CODE_PARAMS)
        with pytest.raises(
            AdversaryInconsistencyError, match="^1-label is consistent with no certificate concept$"
        ):
            make_single().observe(x, 1)


def test_sorted_list_zero_mistakes_on_all_zero_target():
    learner = SortedListLearner()
    log = run_online(learner, [(int_to_bits(v, 8), 0) for v in range(20)])
    assert log.mistakes == 0


def test_sorted_list_first_presentation_mistakes_only():
    learner = SortedListLearner()
    ones = ["0001", "0100", "1110"]
    seq = []
    for x in ones:
        seq.append((x, 1))
    for x in ones:
        seq.append((x, 1))  # second presentations: no mistakes
    log = run_online(learner, seq)
    assert log.mistakes == 3
    assert [r.mistake for r in log.rounds] == [True] * 3 + [False] * 3


def test_sorted_list_mistakes_bounded_by_sparsity_monte_carlo():
    concepts = concepts_for(exhaustive_formulas(2, 1))
    domain = probe_domain(8)
    for trial in range(1000):
        rng = random.Random(trial)
        target = rng.choice(concepts)
        learner = SortedListLearner()
        pts = [rng.choice(domain) for _ in range(12)]
        log = run_online(learner, [(x, target(x)) for x in pts])
        assert log.mistakes <= target.layout.cp
        assert log.mistakes <= len({x for x in pts if target(x) == 1})


def test_sorted_list_per_round_comparisons_logarithmic():
    learner = SortedListLearner()
    rng = random.Random(0)
    points = [int_to_bits(v, 14) for v in rng.sample(range(1 << 14), 4096)]
    for x in points:
        learner.predict(x)
        assert learner.last_comparisons <= math.floor(math.log2(max(1, len(learner.ones)))) + 1
        learner.observe(x, 1)


def test_random_consistent_adversary_respects_version_space():
    concepts = concepts_for([PHI0, PHI_UNSAT])
    log = random_consistent_adversary(
        random.Random(3), make_single(), concepts, probe_domain(8), 20
    )
    assert log.mistakes <= 1


@pytest.mark.parametrize(
    "make_learner, digest, mistakes",
    [
        (make_single, "2ef59e6c0ae561e1b0b91e087f320d038578042b76b40192d9b974faff64e4dd", 14),
        (
            SortedListLearner,
            "2a96b0d7a2828f5b3cb05583fbd3dbafcbad5ce8dbb1876e4ec95e5ab29d33c9",
            39,
        ),
    ],
    ids=["single", "sorted_list"],
)
def test_random_consistent_adversary_log_is_pinned(make_learner, digest, mistakes):
    """Every round of 30 seeded games, hashed: any change in RNG order fails."""
    concepts = concepts_for(
        [PHI0, PHI_UNSAT, ThreeSatInstance(2, [(2,)]), ThreeSatInstance(2, [(-1,)])]
    )
    h = hashlib.sha256()
    total = 0
    for seed in range(30):
        log = random_consistent_adversary(
            random.Random(seed), make_learner(), concepts, probe_domain(8), 20
        )
        for r in log.rounds:
            row = f"{seed} {r.point} {r.prediction} {r.true_label} {int(r.mistake)}\n"
            h.update(row.encode())
        total += log.mistakes
    assert (h.hexdigest(), total) == (digest, mistakes)


def test_random_consistent_adversary_empty_class_raises_before_predicting():
    class NoPredict:
        def predict(self, x):
            raise AssertionError("predicted on an empty version space")

    with pytest.raises(AdversaryInconsistencyError, match="version space emptied"):
        random_consistent_adversary(random.Random(0), NoPredict(), [], probe_domain(8), 3)


# -- Littlestone dimension -----------------------------------------------------------


def test_ldim_singleton_class_is_zero():
    concepts = concepts_for([PHI0])
    assert ldim_oracle(concepts, probe_domain(8)) == 0


def test_ldim_two_constants_is_one():
    assert ldim_oracle([lambda x: 0, lambda x: 1], ["00", "01"]) == 1


def test_ldim_restricted_cert_class_is_one():
    concepts = concepts_for(exhaustive_formulas(2, 1))
    probe = probe_domain(8)
    dim = ldim_oracle(concepts, probe)
    assert dim == 1
    vc = cert_class_vc(concepts).dimension
    assert dim >= vc


LDIM_POOL = concepts_for(exhaustive_formulas(2, 2)) + [
    CertConcept(V2, ENC2.encode(f), DEFAULT_CODE_PARAMS, kind="uniform") for f in exhaustive_formulas(2, 1)
]
LDIM_POINTS = sorted({x for c in LDIM_POOL for x in c.one_points()})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ldim_oracle_matches_the_per_concept_minimax(data):
    """Searching distinct label vectors, with juntas labelled in one call,
    gives the value of the minimax over concepts, each called per point."""
    lay = LDIM_POOL[0].layout
    point = st.sampled_from(LDIM_POINTS) | st.text("01", min_size=lay.example_len, max_size=lay.example_len)
    domain = data.draw(st.lists(point, max_size=16))
    base = data.draw(st.lists(st.sampled_from(LDIM_POOL), max_size=5))
    base += [JuntaHypothesis(w, lay) for w in data.draw(st.lists(st.integers(0, (1 << 16) - 1), max_size=6))]
    duplicates = data.draw(st.lists(st.sampled_from(base), max_size=3)) if base else []
    wrapped = [lambda x, c=c: c(x) for c in data.draw(st.lists(st.sampled_from(LDIM_POOL), max_size=2))]
    dictators = [lambda x, k=k: x[k] == "1" for k in data.draw(st.lists(st.integers(0, lay.example_len - 1), max_size=2))]
    concepts = data.draw(st.permutations(base + duplicates + wrapped + dictators))
    assert ldim_oracle(concepts, domain) == reference_ldim(concepts, domain)


def test_ldim_budget_guard():
    with pytest.raises(BudgetError):
        ldim_oracle([lambda x: 0], [int_to_bits(v, 5) for v in range(20)])


# -- online-to-PAC conversion ---------------------------------------------------------


class FixedHypothesisLearner:
    """0-mistake learner: always plays one fixed concept."""

    def __init__(self, concept):
        self.concept = concept

    def predict(self, x):
        return self.concept(x)

    def observe(self, x, label):
        pass

    def current_hypothesis(self):
        return self.concept


def test_conversion_sample_count_formula():
    conv = OnlineToPacLearner(make_single, 1, eps=0.1, delta=0.1)
    expected = math.ceil(ONLINE_TO_PAC_KAPPA * (1 + math.log(10)) / 0.1)
    assert conv.sample_size == expected == 661


def test_conversion_of_zero_mistake_learner_returns_the_concept():
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)
    conv = OnlineToPacLearner(lambda: FixedHypothesisLearner(c), 0, eps=0.1, delta=0.1)
    pts = [Z0 + int_to_bits(v, 4) for v in range(16)]
    dist = Distribution.uniform(pts)
    sample = draw_sample(dist, labels_on(dist, c), conv.sample_size, random.Random(0))
    h = conv(sample)
    assert h is c
    assert error_of(dist, labels_on(dist, c), h) == 0.0


def test_conversion_monte_carlo_success():
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)
    pts = [Z0 + int_to_bits(v, 4) for v in range(16)]
    dist = Distribution.uniform(pts)
    conv = OnlineToPacLearner(make_single, 1, eps=0.1, delta=0.1)
    ok = 0
    trials = 40
    for t in range(trials):
        sample = draw_sample(dist, labels_on(dist, c), conv.sample_size, random.Random(f"mc:{t}"))
        h = conv(sample)
        if error_of(dist, labels_on(dist, c), h) <= 0.1:
            ok += 1
    assert ok / trials >= 0.9


def test_conversion_returns_intermediate_hypothesis():
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)
    seen = []

    class Recorder(SingleMistakeLearner):
        def current_hypothesis(self):
            h = super().current_hypothesis()
            seen.append(h)
            return h

    conv = OnlineToPacLearner(lambda: Recorder(V2, DEFAULT_CODE_PARAMS), 1, 0.1, 0.1)
    pts = [Z0 + int_to_bits(v, 4) for v in range(16)]
    dist = Distribution.uniform(pts)
    sample = draw_sample(dist, labels_on(dist, c), 50, random.Random(1))
    h = conv(sample)
    assert any(h is s for s in seen)
