import random
from collections import Counter
from functools import partial
from itertools import islice, product

import pytest
from hypothesis import given, settings, strategies as st

from certlab.bits import int_to_bits
from certlab.codes import REDUCTION_CODE_PARAMS, LinearCode, get_code
from certlab import paclearn, sat, verifiers
from certlab.concepts import LAYOUT_KINDS, CertConcept, ExampleLayout
from certlab.errors import BudgetError, ConfigError, DataInconsistencyError, ShapeError
from certlab.harness.commands import COMMANDS, cmd_reduce
from certlab.harness.config import read_config
from certlab.paclearn import (
    JuntaHypothesis,
    LabeledSample,
    TableHypothesis,
    error_of,
    junta_learner,
    labels_on,
    sparse_erm,
)
from certlab.reduction import DeciderConfig, _Challenge, _Proof, rtime_decide, sat_decider
from certlab.sat import ThreeSatInstance, brute_force_sat, exhaustive_formulas, random_instance
from certlab.verifiers import FormulaEncoding, ThreeSatVerifier
from oracles import (
    ENC2,
    PHI0,
    PHI_UNSAT,
    V2,
    Z0,
    Z_UNSAT,
    FixedProofMerlin,
    FnVerifier,
    HonestMerlin,
    am_round,
    flip_positions,
    python_calls,
    verify,
)

PARAMS = REDUCTION_CODE_PARAMS
JUNTA_V2 = partial(junta_learner, layout=ExampleLayout.of(V2.n, PARAMS, V2.p, "uniform"))


def constant_zero_learner(sample, counter=None):
    return TableHypothesis(())


def test_am_round_unsat_verdict_zero_for_any_merlin_and_learner():
    rng = random.Random(0)
    for merlin in (HonestMerlin(), FixedProofMerlin("1" * 6), FixedProofMerlin("0" * 6)):
        for learner in (sparse_erm, constant_zero_learner):
            t = am_round(Z_UNSAT, V2, learner, merlin, PARAMS, random.Random(rng.random()), 6)
            assert t.verdict == 0


def test_am_round_honest_completeness_with_coupon_coverage():
    hits = 0
    for seed in range(60):
        t = am_round(Z0, V2, sparse_erm, HonestMerlin(), PARAMS, random.Random(seed), 40)
        hits += t.verdict
    assert hits / 60 >= 2 / 3


def test_am_round_fixed_all_zero_proof_replays_deterministically():
    code = get_code(PARAMS, V2.p)
    direct = int_to_bits(code.decode_value(0), V2.p)
    expected = 1 if verify(V2, Z0, direct) else 0
    t = am_round(
        Z0, V2, constant_zero_learner, FixedProofMerlin("0" * 5), PARAMS, random.Random(9), 5
    )
    assert t.w_tilde == direct
    assert t.verdict == expected
    assert t.y == "0" * (1 << t_layout_ell())


def t_layout_ell() -> int:
    return ExampleLayout.of(V2.n, PARAMS, V2.p).ell


def test_am_round_rejects_unknown_merlin():
    with pytest.raises(ConfigError):
        am_round(Z0, V2, sparse_erm, object(), PARAMS, random.Random(0), 4)


def fn_verifier_like(verifier):
    """The same language through a verifier whose accept mask comes from
    calling its check function on every certificate."""
    return FnVerifier(verifier.n, verifier.p, verifier.check)


@pytest.mark.parametrize("verifier", [V2, fn_verifier_like(V2)], ids=["mask", "check"])
def test_wrong_length_z_is_a_shape_error_for_every_verifier_kind(verifier):
    config = DeciderConfig(m=4, r=2, code_params=PARAMS)
    fixed = FixedProofMerlin("0" * 4)
    for z in ("0101", Z0 + "0"):
        with pytest.raises(ShapeError):
            rtime_decide(z, verifier, config, sparse_erm, 0)
        with pytest.raises(ShapeError):
            am_round(z, verifier, sparse_erm, fixed, PARAMS, random.Random(0), 4)


def test_check_path_verifier_decides_like_the_mask_path():
    config = DeciderConfig(m=6, r=2, code_params=PARAMS)
    fn_v2 = fn_verifier_like(V2)
    for inst in exhaustive_formulas(2, 2)[:12]:
        z = ENC2.encode(inst)
        a = rtime_decide(z, V2, config, sparse_erm, "fn")
        b = rtime_decide(z, fn_v2, config, sparse_erm, "fn")
        assert (a.accept, a.proofs_run) == (b.accept, b.proofs_run)
        assert [r.digest for r in a.repetitions] == [r.digest for r in b.repetitions]


def test_transcript_verdict_matches_final_verifier_check():
    for seed in range(6):
        t = am_round(Z0, V2, sparse_erm, HonestMerlin(), PARAMS, random.Random(seed), 9)
        assert t.verdict == (1 if verify(V2, Z0, t.w_tilde) else 0)


def test_transcript_digest_golden():
    # m = 0 round is fully determined by the code's zero codeword
    t = am_round(Z0, V2, constant_zero_learner, FixedProofMerlin(""), PARAMS,
                 random.Random(0), 0, seed_label="g")
    assert t.w_tilde == "00"
    assert t.digest() == "seed=g idx= labels=- wtilde=0x0 verdict=0"


def test_am_round_transcript_records_everything():
    t = am_round(Z0, V2, sparse_erm, HonestMerlin(), PARAMS, random.Random(4), 7)
    assert len(t.indices) == 7
    assert len(t.merlin_labels) == 7
    assert len(t.y) == 1 << t_layout_ell()
    assert len(t.w_tilde) == V2.p
    assert t.verdict in (0, 1)
    line = t.digest()
    assert "verdict=" in line and "idx=" in line


def test_am_round_learner_failure_is_a_rejecting_transcript():
    from certlab.paclearn import few_sample_learner

    learner = partial(few_sample_learner, verifier=V2, params=PARAMS)
    # a 1-label on an unsatisfiable instance makes the learner raise
    t = am_round(Z_UNSAT, V2, learner, FixedProofMerlin("1111"), PARAMS, random.Random(0), 4)
    assert t.failed and t.verdict == 0


def test_completeness_transfer_error_below_eps_star_implies_accept():
    # trial-by-trial: hypothesis error <= eps* over uniform-on-meaningful-useful
    # points implies <= floor(eps**cp) corruptions, exact decode, verdict 1
    lay = ExampleLayout.of(V2.n, PARAMS, V2.p)
    concept = CertConcept(V2, Z0, PARAMS)
    meaningful = [Z0 + int_to_bits(v, lay.ell) for v in range(lay.cp)]
    from certlab.paclearn import Distribution

    dist = Distribution.uniform(meaningful)
    eps_star = float(PARAMS.eps_star)
    captured = {}

    def recording_learner(sample, counter=None):
        h = sparse_erm(sample)
        captured["h"] = h
        return h

    for seed in range(40):
        t = am_round(
            Z0, V2, recording_learner, HonestMerlin(), PARAMS, random.Random(seed), 12
        )
        err = error_of(dist, labels_on(dist, concept), captured["h"])
        if err <= eps_star + 1e-12:
            assert t.verdict == 1, f"seed {seed}: error {err} but verdict 0"


# -- the one-sided decider -----------------------------------------------------------


def test_soundness_exhaustive_all_unsat_two_var_formulas_twenty_seeds():
    config = DeciderConfig(m=8, r=1, code_params=PARAMS)
    unsat = [f for f in exhaustive_formulas(2, 3) if not brute_force_sat(f)]
    assert unsat
    for inst in unsat:
        z = ENC2.encode(inst)
        for seed in range(20):
            res = rtime_decide(z, V2, config, sparse_erm, seed)
            assert not res.accept
            assert all(not rec.accept for rec in res.repetitions)


def test_enumeration_dominance_per_seed():
    # exhaustive accept bit equals the OR over all fixed-proof transcripts
    m = 4
    instances = (PHI0, PHI_UNSAT, ThreeSatInstance(2, [(1,)]), ThreeSatInstance(2, []))
    for variant, learner in (("standard", sparse_erm), ("uniform", JUNTA_V2)):
        config = DeciderConfig(m=m, r=1, code_params=PARAMS, variant=variant)
        for inst in instances:
            z = ENC2.encode(inst)
            for seed in ("a", "b", 3):
                res = rtime_decide(z, V2, config, learner, seed)
                or_over_proofs = False
                honest_verdict = am_round(
                    z, V2, learner, HonestMerlin(), PARAMS,
                    random.Random(f"{seed}:rep0"), m, variant=variant,
                ).verdict
                for labels in product("01", repeat=m):
                    t = am_round(
                        z, V2, learner, FixedProofMerlin("".join(labels)), PARAMS,
                        random.Random(f"{seed}:rep0"), m, variant=variant,
                    )
                    or_over_proofs = or_over_proofs or bool(t.verdict)
                assert res.repetitions[0].accept == or_over_proofs
                # honest Merlin's labels are among the enumerated proofs
                assert or_over_proofs >= bool(honest_verdict)


def test_rtime_decide_deterministic():
    config = DeciderConfig(m=10, r=3, code_params=PARAMS)
    a = rtime_decide(Z0, V2, config, sparse_erm, 123)
    b = rtime_decide(Z0, V2, config, sparse_erm, 123)
    assert a.accept == b.accept
    assert [r.digest for r in a.repetitions] == [r.digest for r in b.repetitions]
    assert a.proofs_run == b.proofs_run


def test_rtime_decide_m_zero_degenerate():
    config = DeciderConfig(m=0, r=2, code_params=PARAMS)
    code = get_code(PARAMS, V2.p)
    w = int_to_bits(code.decode_value(0), V2.p)
    expected = verify(V2, Z0, w)
    res = rtime_decide(Z0, V2, config, constant_zero_learner, 5)
    assert res.accept == expected
    res_u = rtime_decide(Z_UNSAT, V2, config, constant_zero_learner, 5)
    assert not res_u.accept


def test_learner_error_target_reads_code_params():
    from fractions import Fraction

    from certlab.reduction import learner_error_target

    assert learner_error_target(PARAMS, "standard") == PARAMS.eps_star
    assert learner_error_target(PARAMS, "uniform") == PARAMS.eps_star / 100
    assert learner_error_target(PARAMS, "uniform") == Fraction(1, 800)
    with pytest.raises(ConfigError):
        learner_error_target(PARAMS, "sideways")


def test_decider_config_validation():
    with pytest.raises(BudgetError, match=r"^2\^20 proofs exceed the 2\^16 cap$"):
        DeciderConfig(m=20, r=1, code_params=PARAMS)
    with pytest.raises(ConfigError, match=r"^need m >= 0 and r >= 1$"):
        DeciderConfig(m=4, r=0, code_params=PARAMS)
    with pytest.raises(ConfigError, match=r"^need m >= 0 and r >= 1$"):
        DeciderConfig(-1, 3, PARAMS)
    with pytest.raises(ConfigError, match=r"^unknown variant 'sideways' \(choose from standard, uniform\)$"):
        DeciderConfig(m=4, r=1, code_params=PARAMS, variant="sideways")
    config = DeciderConfig(12, 5, PARAMS)
    assert config == DeciderConfig(m=12, r=5, code_params=PARAMS, variant="standard")
    assert repr(config) == (
        "DeciderConfig(m=12, r=5, code_params=CodeParams(c=4, eps_star=Fraction(1, 8)), variant='standard')"
    )


class UncallableJunta(JuntaHypothesis):
    """A junta that must be answered by its word: calling it fails."""

    __slots__ = ()

    def __call__(self, x):
        raise AssertionError("a junta on the challenge's layout is answered by its word")


@pytest.mark.parametrize("variant", LAYOUT_KINDS)
def test_layouts_made_apart_are_one_value(variant):
    a, b = (ExampleLayout.of(V2.n, PARAMS, V2.p, variant) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    other = next(kind for kind in LAYOUT_KINDS if kind != variant)
    assert a != ExampleLayout.of(V2.n, PARAMS, V2.p, other)
    # a distribution's index values are made once per layout value
    dist = paclearn.Distribution.uniform([a.example(Z0, v) for v in range(1 << a.ell)])
    assert dist.index_values(a) is dist.index_values(b) == tuple(range(1 << a.ell))
    # the challenge makes its own layout, and answers a junta learned on an
    # equal one by its word
    challenge = _Challenge(Z0, V2, sparse_erm, PARAMS, variant)
    assert challenge.layout is not a and challenge.layout == a
    _, read_at = challenge.layout.draw(random.Random(5), Z0, 0)
    junta = UncallableJunta(0b10110101, a, Z0[: a.matched])
    assert challenge.answers(junta, read_at) == 0b10110101


def test_sat_decider_agrees_with_brute_force_on_a_slice():
    config = DeciderConfig(m=12, r=5, code_params=PARAMS)
    for i, inst in enumerate(exhaustive_formulas(2, 2)[:40]):
        report = sat_decider(inst, V2, config, sparse_erm, f"slice:{i}")
        truth = brute_force_sat(inst)
        if not truth:
            assert not report.accept
        else:
            assert report.accept  # m=12 over 8 index values: effectively certain
        assert report.lines()


def test_sat_decider_tautology_and_contradiction():
    config = DeciderConfig(m=12, r=5, code_params=PARAMS)
    taut = ThreeSatInstance(2, [(1, -1)])
    assert sat_decider(taut, V2, config, sparse_erm, 0).accept
    assert not sat_decider(PHI_UNSAT, V2, config, sparse_erm, 0).accept


def test_crafted_unsat_three_var_never_accepts():
    # all eight width-3 clauses over three variables: unsatisfiable
    import itertools

    clauses = [
        tuple(s * v for v, s in zip((1, 2, 3), signs))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    inst = ThreeSatInstance(3, clauses)
    assert not brute_force_sat(inst)
    enc = FormulaEncoding(max_vars=3, max_clauses=8)
    v = ThreeSatVerifier(enc)
    config = DeciderConfig(m=10, r=3, code_params=PARAMS)
    for seed in range(5):
        assert not sat_decider(inst, v, config, sparse_erm, seed).accept


# -- one learner call per proof ------------------------------------------------------


class CountingLearner:
    def __init__(self, learner) -> None:
        self.learner = learner
        self.calls = 0

    def __call__(self, sample, counter=None):
        self.calls += 1
        return self.learner(sample, counter=counter)


class CountingVerifier(ThreeSatVerifier):
    """Counts its checks by (instance, certificate)."""

    def __init__(self, encoding) -> None:
        super().__init__(encoding)
        self.checks: Counter = Counter()

    def check(self, z: str, w: str) -> bool:
        self.checks[z, w] += 1
        return super().check(z, w)


@pytest.mark.parametrize("variant", LAYOUT_KINDS)
def test_the_decider_calls_the_learner_once_per_proof(variant, monkeypatch):
    # and checks each distinct decoded value once per instance, not once per proof
    decoded = []
    real_decode = LinearCode.decode_value

    def recording_decode(self, y_int):
        decoded.append(real_decode(self, y_int))
        return decoded[-1]

    monkeypatch.setattr(LinearCode, "decode_value", recording_decode)
    inner = JUNTA_V2 if variant == "uniform" else sparse_erm
    config = DeciderConfig(m=6, r=3, code_params=PARAMS, variant=variant)
    verifier = CountingVerifier(ENC2)
    for z in (Z0, Z_UNSAT):
        for seed in range(3):
            learner = CountingLearner(inner)
            verifier.checks.clear()
            decoded.clear()
            result = rtime_decide(z, verifier, config, learner, seed)
            assert result.proofs_run > 0
            assert learner.calls == result.proofs_run
            assert verifier.checks == Counter((z, int_to_bits(v, V2.p)) for v in set(decoded))
            learner = CountingLearner(inner)
            am_round(
                z, verifier, learner, HonestMerlin(), PARAMS, random.Random(seed), 6,
                variant=variant,
            )
            assert learner.calls == 1


def test_the_decider_rejects_an_uncoded_p_before_checking_a_certificate():
    # the codes take p in 2..16, and that is checked before any certificate is
    enc = FormulaEncoding(max_vars=17, max_clauses=1)
    verifier = CountingVerifier(enc)
    z = enc.encode(ThreeSatInstance(17, [(-17,)]))
    config = DeciderConfig(m=4, r=1, code_params=PARAMS)
    with pytest.raises(ConfigError, match="message length 17 unsupported"):
        rtime_decide(z, verifier, config, sparse_erm, 0)
    assert not verifier.checks


def test_no_decider_path_builds_an_accept_mask(tmp_path, monkeypatch):
    # the verdicts come from the verifier's check: both layouts and `reduce`
    # at its defaults run with every accept-mask function refused
    def no_mask(*args):
        raise AssertionError("an accept mask was built")

    for owner in (sat, verifiers):
        monkeypatch.setattr(owner, "satisfying_mask", no_mask)
    monkeypatch.setattr(ThreeSatVerifier, "accept_mask", no_mask)
    for variant, learner in zip(LAYOUT_KINDS, (sparse_erm, JUNTA_V2)):
        config = DeciderConfig(m=6, r=3, code_params=PARAMS, variant=variant)
        accepts = [
            rtime_decide(z, V2, config, learner, seed).accept
            for z in (Z0, Z_UNSAT)
            for seed in range(3)
        ]
        assert any(accepts[:3]) and not any(accepts[3:]), variant
    cfg = read_config({}, COMMANDS["reduce"], "reduce")
    assert cmd_reduce(cfg, tmp_path, 0) == 0


# -- uniform variant -----------------------------------------------------------------


def test_uniform_round_unsat_always_rejects():
    learner = JUNTA_V2
    for seed in range(10):
        t = am_round(
            Z_UNSAT, V2, learner, HonestMerlin(), PARAMS, random.Random(seed), 8,
            variant="uniform",
        )
        assert t.verdict == 0


def test_uniform_round_honest_completeness():
    learner = JUNTA_V2
    hits = 0
    for seed in range(60):
        t = am_round(
            Z0, V2, learner, HonestMerlin(), PARAMS, random.Random(seed), 40,
            variant="uniform",
        )
        hits += t.verdict
    assert hits / 60 >= 2 / 3


def test_uniform_zero_error_hypothesis_recovers_first_certificate():
    concept = CertConcept(V2, Z0, PARAMS, kind="uniform")
    lay = concept.layout
    # full index coverage: junta equals the concept, so y has zero corruptions
    pairs = []
    for v in range(1 << lay.ell):
        x = int_to_bits(v, lay.ell) + "0" * lay.n
        pairs.append((x, concept(x)))
    h = junta_learner(LabeledSample(tuple(pairs)), lay)
    code = get_code(PARAMS, V2.p)
    y_int = 0
    for v in range(lay.cp):
        if h(int_to_bits(v, lay.ell) + "0" * lay.n):
            y_int |= 1 << v
    assert format(code.decode_value(y_int), f"0{V2.p}b") == concept.first_cert


def test_uniform_decider_routes_and_stays_sound():
    config = DeciderConfig(m=10, r=3, code_params=PARAMS, variant="uniform")
    learner = JUNTA_V2
    assert not rtime_decide(Z_UNSAT, V2, config, learner, 7).accept
    assert rtime_decide(Z0, V2, config, learner, 7).accept


# -- table hypotheses answered from their table ---------------------------------------


class OpaqueHypothesis:
    """Answers as the wrapped hypothesis does, but is no TableHypothesis, so
    the decider queries it at every index value."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def __call__(self, x: str) -> int:
        return self.inner(x)


def opaque_sparse_erm(sample, counter=None):
    return OpaqueHypothesis(sparse_erm(sample, counter=counter))


def answers_via_run(challenge, hypothesis, read_at: str) -> int:
    """The answers `run` reads off the hypothesis, handed to it by a learner."""
    challenge.learner = lambda sample: hypothesis
    return challenge.run((LabeledSample(()),), read_at)[2].answers


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_answers_match_the_per_index_loop(data):
    variant = data.draw(st.sampled_from(LAYOUT_KINDS))
    z = data.draw(st.sampled_from([Z0, Z_UNSAT]))
    challenge = _Challenge(z, V2, sparse_erm, PARAMS, variant)
    lay = challenge.layout
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(2):  # a second read-out point rebuilds the queries in the uniform layout
        _, read_at = lay.draw(rng, z, 0)
        queries = [lay.example(read_at, v) for v in range(1 << lay.ell)]
        # a query with one bit of its read-out point flipped is no query
        near_misses = [
            lay.example(flip_positions(read_at, [j]), j % (1 << lay.ell)) for j in range(lay.n)
        ]
        ones = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(queries),
                    st.sampled_from(near_misses),
                    st.text("01", min_size=lay.example_len, max_size=lay.example_len),
                    st.text("01", max_size=lay.example_len + 2),
                ),
                max_size=12,
            )
        )
        table = TableHypothesis(ones)
        word = answers_via_run(challenge, table, read_at)
        assert word == answers_via_run(challenge, OpaqueHypothesis(table), read_at)
        assert word == sum(1 << v for v, x in enumerate(queries) if x in table)


#: Certificate concepts of both layouts: on Z0 (the challenges' instance), on
#: another satisfiable instance, and on an unsatisfiable one.
CERT_CONCEPTS = [
    CertConcept(V2, z, PARAMS, kind=kind)
    for kind in LAYOUT_KINDS
    for z in (Z0, ENC2.encode(ThreeSatInstance(2, [(1,)])), Z_UNSAT)
]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_junta_answers_match_the_per_index_loop(data):
    """A junta on the challenge's layout, a certificate concept included, is
    answered by its word when read_at starts with its head and by 0
    otherwise; one on the other layout is queried, and reads the read-out
    point's bits."""
    variant = data.draw(st.sampled_from(LAYOUT_KINDS))
    challenge = _Challenge(Z0, V2, sparse_erm, PARAMS, variant)
    lay = challenge.layout
    _, read_at = lay.draw(random.Random(data.draw(st.integers(0, 2**32))), Z0, 0)
    queries = [lay.example(read_at, v) for v in range(1 << lay.ell)]
    drawn = data.draw(st.integers(0, (1 << (1 << lay.ell)) - 1))
    juntas = [
        JuntaHypothesis(drawn, ExampleLayout.of(V2.n, PARAMS, V2.p, junta_kind))
        for junta_kind in LAYOUT_KINDS
    ]
    for junta in juntas + CERT_CONCEPTS:
        word = challenge.answers(junta, read_at)
        assert word == challenge.answers(OpaqueHypothesis(junta), read_at)
        assert word == sum(1 << v for v, x in enumerate(queries) if junta(x))


class ReadoutTableLearner:
    """The junta learner's hypothesis as a table: the queries at the
    repetition's read-out point whose index values are labelled 1.  The
    repetition is told by its drawn points."""

    def __init__(self, z: str, config: DeciderConfig, seed: int) -> None:
        self.layout = ExampleLayout.of(V2.n, PARAMS, V2.p, config.variant)
        self.read_at = {}
        for rep in range(config.r):
            points, read_at = self.layout.draw(random.Random(f"{seed}:rep{rep}"), z, config.m)
            self.read_at[frozenset(points)] = read_at

    def __call__(self, sample, counter=None):
        lay = self.layout
        read_at = self.read_at[frozenset(x for x, _ in sample)]
        return TableHypothesis(lay.example(read_at, lay.index(x)) for x, y in sample if y)


@pytest.mark.parametrize("variant", LAYOUT_KINDS)
def test_table_answers_leave_the_decider_result_unchanged(variant):
    config = DeciderConfig(m=6, r=3, code_params=PARAMS, variant=variant)
    results = {}
    for z in (Z0, Z_UNSAT):
        results[z] = rtime_decide(z, V2, config, sparse_erm, 0)
        assert results[z] == rtime_decide(z, V2, config, opaque_sparse_erm, 0)
    assert not results[Z_UNSAT].accept
    if variant == "standard":
        # a rejecting repetition, then one that accepts on a proof past the first
        assert [rec.accept for rec in results[Z0].repetitions] == [False, True]
        return
    # each uniform repetition has its own queries: tables with ones at them,
    # a rejecting repetition and then an accepting one
    table_learner = ReadoutTableLearner(Z0, config, 6)
    result = rtime_decide(Z0, V2, config, table_learner, 6)
    opaque = lambda sample, counter=None: OpaqueHypothesis(table_learner(sample))
    assert result == rtime_decide(Z0, V2, config, opaque, 6)
    assert [rec.accept for rec in result.repetitions] == [False, True]


def test_decider_checks_the_points_once_per_repetition(monkeypatch):
    calls = []
    real = paclearn.check_bits
    monkeypatch.setattr(paclearn, "check_bits", lambda *a, **k: calls.append(a) or real(*a, **k))
    config = DeciderConfig(m=6, r=3, code_params=PARAMS)
    res = rtime_decide(Z_UNSAT, V2, config, sparse_erm, 0)
    assert len(res.repetitions) == 3 and res.proofs_run > 3
    assert len(calls) == 3 * 6


class RecordingLearner:
    def __init__(self, learner) -> None:
        self.learner = learner
        self.samples = []

    def __call__(self, sample, counter=None):
        self.samples.append(sample)
        return self.learner(sample, counter=counter)


def reference_samples(z, layout, seed, rep, m):
    """Every proof's sample for one repetition, in the decider's order: the
    label strings run in product order over the sorted distinct points, and
    each draw takes its point's label."""
    points, _ = layout.draw(random.Random(f"{seed}:rep{rep}"), z, m)
    distinct = sorted(set(points))
    for assignment in product((0, 1), repeat=len(distinct)):
        label_of = dict(zip(distinct, assignment))
        labels = [label_of[pt] for pt in points]
        yield LabeledSample(tuple(zip(points, labels)))


@pytest.mark.parametrize("variant", LAYOUT_KINDS)
def test_the_decider_hands_the_learner_every_label_string_in_product_order(variant):
    inner = JUNTA_V2 if variant == "uniform" else sparse_erm
    layout = ExampleLayout.of(V2.n, PARAMS, V2.p, variant)
    # one drawn point is a sample of its own, without a slot lookup
    for m, z, seed in product((1, 6), (Z0, Z_UNSAT), range(3)):
        config = DeciderConfig(m=m, r=3, code_params=PARAMS, variant=variant)
        learner = RecordingLearner(inner)
        result = rtime_decide(z, V2, config, learner, seed)
        expected = []
        for rec in result.repetitions:
            samples = reference_samples(z, layout, seed, rec.rep, config.m)
            # an accepting repetition stops at its accepting proof
            expected += islice(samples, rec.proofs_run) if rec.accept else samples
        assert learner.samples == expected
        for sample in learner.samples:
            # the tuple `product` or `itemgetter` built, not a copy of it
            assert type(sample) is tuple and len(sample) == m
            assert all(type(pair) is tuple for pair in sample)
            assert all(type(y) is int and y in (0, 1) for _, y in sample)


class FixedDecode:
    """A code whose decoder returns one set value whatever word it gets."""

    def __init__(self, w_val: int) -> None:
        self.w_val = w_val

    def decode_value(self, word: int) -> int:
        return self.w_val


ENC8 = FormulaEncoding(max_vars=8, max_clauses=6)


@pytest.mark.parametrize(
    "enc,inst", [(ENC2, PHI0), (ENC8, random_instance(random.Random(5), 8, 6))]
)
def test_the_verdict_is_the_mask_bit_at_the_decoded_value(enc, inst):
    verifier = ThreeSatVerifier(enc)
    z = enc.encode(inst)
    mask = verifier.accept_mask(z)
    assert 0 < mask < (1 << (1 << verifier.p)) - 1  # both verdicts occur
    challenge = _Challenge(z, verifier, constant_zero_learner, PARAMS, "standard")
    _, read_at = challenge.layout.draw(random.Random(0), z, 0)
    for w_val in range(1 << verifier.p):
        challenge.code = FixedDecode(w_val)
        proof = challenge.run((LabeledSample(()),), read_at)[2]
        assert proof.w_val == w_val
        assert proof.verdict == (mask >> w_val) & 1


# -- one proof loop per repetition ---------------------------------------------------


class RaisingLearner:
    """Raises on the samples it is given, and learns every other sample with
    the inner learner."""

    def __init__(self, learner, failing) -> None:
        self.learner = learner
        self.failing = failing

    def __call__(self, sample, counter=None):
        if sample in self.failing:
            raise DataInconsistencyError("a chosen sample")
        return self.learner(sample, counter=counter)


def reference_run(challenge, mask: int, samples, read_at: str):
    """`_Challenge.run` as a per-sample loop: every index value's query asked
    of the hypothesis, then the decode and the bit of the accept mask."""
    lay = challenge.layout
    queries = [lay.example(read_at, v) for v in range(1 << lay.ell)]
    run, sample, proof = 0, None, None
    for sample in samples:
        run += 1
        try:
            hypothesis = challenge.learner(sample)
        except DataInconsistencyError:
            proof = None
            continue
        answers = sum(1 << v for v, x in enumerate(queries) if hypothesis(x))
        w_val = challenge.code.decode_value(answers & ((1 << lay.cp) - 1))
        proof = (answers, w_val, (mask >> w_val) & 1)
        if proof[2]:
            break
    return run, sample, proof


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_run_returns_what_the_per_sample_loop_returns(data):
    variant = data.draw(st.sampled_from(LAYOUT_KINDS))
    z = data.draw(st.sampled_from([Z0, Z_UNSAT]))
    layout = ExampleLayout.of(V2.n, PARAMS, V2.p, variant)
    inner = data.draw(
        st.sampled_from([sparse_erm, opaque_sparse_erm, partial(junta_learner, layout=layout)])
    )
    challenge = _Challenge(z, V2, inner, PARAMS, variant)
    concept = CertConcept(V2, z, PARAMS, kind=variant)
    mask = V2.accept_mask(z)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for _ in range(2):  # a second read-out point, as in the decider's next repetition
        drawn, read_at = layout.draw(rng, z, 4)
        queries = [layout.example(read_at, v) for v in range(1 << layout.ell)]
        # pairs labelled at random or by the concept, which accepts on Z0
        pair = st.one_of(
            st.tuples(st.sampled_from(queries + drawn), st.integers(0, 1)),
            st.sampled_from([(x, concept(x)) for x in queries + drawn]),
        )
        samples = data.draw(st.lists(st.lists(pair, max_size=10).map(LabeledSample), max_size=6))
        # the learner may raise on any sample, the last included
        chosen = data.draw(st.sets(st.integers(0, 5), max_size=2))
        failing = [sample for j, sample in enumerate(samples) if j in chosen]
        challenge.learner = RaisingLearner(inner, failing)
        run, sample, proof = challenge.run(iter(samples), read_at)
        assert (run, sample, proof) == reference_run(challenge, mask, samples, read_at)
        if z == Z_UNSAT:
            assert run == len(samples) and (proof is None or proof.verdict == 0)
        if samples and samples[-1] in failing and run == len(samples):
            assert proof is None


@pytest.mark.parametrize("variant", LAYOUT_KINDS)
def test_a_decider_run_builds_no_per_proof_frame_around_its_learner_and_decoder(variant):
    """Proof records, `answers` and the query dict are not made per proof: a
    repetition on Z_UNSAT runs all its proofs and builds a record for its
    last one only, and a table hypothesis is answered in the loop."""
    config = DeciderConfig(m=6, r=3, code_params=PARAMS, variant=variant)
    run = (rtime_decide, Z_UNSAT, V2, config, sparse_erm, 0)
    assert rtime_decide(*run[1:]).proofs_run > 3 * config.r
    assert python_calls(*run, code=_Proof.__new__.__code__) == config.r
    assert python_calls(*run, code=_Challenge.answers.__code__) == 0
    assert python_calls(*run, code=_Challenge._bits_at.__code__) <= config.r
