"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest -s tests/test_acceptance.py -v`.
"""

import math
import time
from functools import lru_cache, partial

from certlab.bits import int_to_bits
from certlab.codes import DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS, radius_recovery
from certlab.concepts import (
    CertConcept,
    build_decision_tree,
    cert_class_vc,
    dt_eval,
    ldim_oracle,
)
from certlab.harness.commands import (
    probe_domain,
    distribution_suite,
)
from certlab.harness.corpus import (
    exhaustive_two_var_corpus,
    forcing_formula,
    random_corpus,
    single_clause_corpus,
)
from certlab.harness.cli import main as cli_main
from certlab.paclearn import few_sample_learner, junta_learner, labels_on, pac_trial_suite, sparse_erm
from certlab.reduction import DeciderConfig, sat_decider
from certlab.concepts import ExampleLayout
from certlab.sat import brute_force_sat
from certlab.verifiers import FormulaEncoding, StepCounter, ThreeSatVerifier, first_certificate
from online_learners import OnlineToPacLearner, SingleMistakeLearner, SortedListLearner
from oracles import exhaustive_adversary_max_mistakes


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"\ncriterion-{num:02d} {status} {detail} [{elapsed:.1f}s, budget {budget:.0f}s]")
    assert ok, f"criterion-{num:02d}: {detail}"
    assert elapsed < budget, f"criterion-{num:02d} exceeded its {budget}s budget"


@lru_cache(maxsize=None)
def two_var_concepts():
    corpus = exhaustive_two_var_corpus()
    return corpus, [
        CertConcept(corpus.verifier, corpus.verifier.encoding.encode(f), DEFAULT_CODE_PARAMS)
        for f in corpus.instances
    ]


@lru_cache(maxsize=None)
def few_sample_target():
    """Satisfiable 16-variable formula whose first certificate sits deep in
    the search order, so the brute-force step is exercised at p = 16."""
    formula = forcing_formula(16, 8, 4)
    encoding = FormulaEncoding(max_vars=16, max_clauses=len(formula.clauses))
    verifier = ThreeSatVerifier(encoding)
    concept = CertConcept(verifier, encoding.encode(formula), DEFAULT_CODE_PARAMS)
    assert concept.first_cert is not None
    return verifier, concept


@lru_cache(maxsize=None)
def decider_corpora():
    """The two corpora with their formulas listed, since several tests read them."""
    corpora = exhaustive_two_var_corpus(), random_corpus("acceptance", count=200)
    return tuple(corpus._replace(instances=list(corpus.instances)) for corpus in corpora)


def test_criterion_01_vc_dimension_is_one():
    t0 = time.perf_counter()
    _corpus, concepts = two_var_concepts()
    rep = cert_class_vc(concepts)
    all_pairs = rep.candidate_points * (rep.candidate_points - 1) // 2
    ok = (
        rep.dimension == 1
        and rep.shattered_singleton is not None
        and rep.pairs_checked == all_pairs
    )
    report(
        1,
        ok,
        f"vc=1 singleton={rep.shattered_singleton is not None} "
        f"pairs_checked={rep.pairs_checked} (zero shattered)",
        time.perf_counter() - t0,
        10,
    )


def test_criterion_02_littlestone_dimension_is_one():
    t0 = time.perf_counter()
    _corpus, concepts = two_var_concepts()
    probe = probe_domain(concepts, limit=16)
    assert len(probe) <= 16
    ldim = ldim_oracle(concepts, probe)
    vc = cert_class_vc(concepts).dimension
    ok = ldim == 1 and ldim >= vc
    report(2, ok, f"ldim={ldim} >= vc={vc} (probe {len(probe)} pts, depth 3)",
           time.perf_counter() - t0, 60)


def test_criterion_03_code_radius_exhaustive_recovery():
    t0 = time.perf_counter()
    res = radius_recovery(DEFAULT_CODE_PARAMS, 8, exhaustive_limit=10**6, samples=10**4, seed=0)
    ok = res.exhaustive and res.recovered == res.tested and res.tested == 679_121
    report(
        3,
        ok,
        f"m=8 c={DEFAULT_CODE_PARAMS.c} eps*={DEFAULT_CODE_PARAMS.eps_star}: "
        f"{res.recovered}/{res.tested} patterns recovered "
        f"({'exhaustive' if res.exhaustive else 'sampled'})",
        time.perf_counter() - t0,
        60,
    )


def test_criterion_04_few_sample_learner_succeeds_at_47_samples():
    t0 = time.perf_counter()
    eps = 0.1
    m = math.ceil(math.log(100) / eps)
    assert m == 47
    verifier, concept = few_sample_target()
    learner = partial(few_sample_learner, verifier=verifier, params=DEFAULT_CODE_PARAMS)

    rates = {}
    ok = True
    for name, dist in distribution_suite(concept):
        res = pac_trial_suite(learner, labels_on(dist, concept), dist, eps, m, 200, f"c4:{name}")
        rates[name] = res.success_rate
        ok = ok and res.success_rate >= 0.95
    detail = " ".join(f"{k}={v:.3f}" for k, v in rates.items())
    report(4, ok, f"m=47 eps=0.1 p=16: {detail} (all >= 0.95)", time.perf_counter() - t0, 60)


def test_criterion_05_sparse_erm_succeeds_at_union_bound_samples():
    t0 = time.perf_counter()
    eps = 0.1
    sparsity = 16  # class sparsity bound c*p with p = 2 certificate bits
    m = math.ceil((sparsity * math.log(2) + math.log(100)) / eps)
    assert m == 157
    corpus, concepts = two_var_concepts()
    concept = next(c for c in concepts if c.first_cert is not None and c.sparsity >= 4)
    assert concept.layout.cp == sparsity

    rates = {}
    ok = True
    for name, dist in distribution_suite(concept):
        res = pac_trial_suite(sparse_erm, labels_on(dist, concept), dist, eps, m, 200, f"c5:{name}")
        rates[name] = res.success_rate
        ok = ok and res.success_rate >= 0.95
    detail = " ".join(f"{k}={v:.3f}" for k, v in rates.items())
    report(5, ok, f"m=157 eps=0.1 sparsity=16: {detail} (all >= 0.95)",
           time.perf_counter() - t0, 60)


def test_criterion_06_decider_agrees_with_brute_force():
    t0 = time.perf_counter()
    config = DeciderConfig(m=12, r=5, code_params=REDUCTION_CODE_PARAMS)
    false_accepts = 0
    sat_total = sat_hit = 0
    unsat_total = 0
    idx = 0
    for corpus in decider_corpora():
        for inst in corpus.instances:
            truth = brute_force_sat(inst)
            rep = sat_decider(inst, corpus.verifier, config, sparse_erm, f"c6:{idx}")
            idx += 1
            if truth:
                sat_total += 1
                sat_hit += int(rep.accept)
            else:
                unsat_total += 1
                if rep.accept:
                    false_accepts += 1
    rate = sat_hit / sat_total
    ok = false_accepts == 0 and rate >= 0.99
    report(
        6,
        ok,
        f"{idx} instances ({sat_total} sat, {unsat_total} unsat): "
        f"false_accepts={false_accepts} sat_accept_rate={rate:.4f} (>= 0.99)",
        time.perf_counter() - t0,
        600,
    )


def test_criterion_07_uniform_pipeline():
    t0 = time.perf_counter()
    config = DeciderConfig(m=10, r=5, code_params=REDUCTION_CODE_PARAMS, variant="uniform")
    false_accepts = 0
    sat_total = sat_hit = 0
    idx = 0
    for corpus in decider_corpora():
        v = corpus.verifier
        layout = ExampleLayout.of(v.n, REDUCTION_CODE_PARAMS, v.p, "uniform")
        learner = partial(junta_learner, layout=layout)
        for inst in corpus.instances:
            truth = brute_force_sat(inst)
            rep = sat_decider(inst, v, config, learner, f"c7:{idx}")
            idx += 1
            if truth:
                sat_total += 1
                sat_hit += int(rep.accept)
            elif rep.accept:
                false_accepts += 1
    rate = sat_hit / sat_total
    ok = false_accepts == 0 and rate >= 0.9
    report(
        7,
        ok,
        f"{idx} instances: false_accepts={false_accepts} sat_accept_rate={rate:.4f} (>= 0.9)",
        time.perf_counter() - t0,
        600,
    )


def test_criterion_08_online_mistake_bounds():
    t0 = time.perf_counter()
    corpus, all_concepts = two_var_concepts()
    concepts = [c for c in all_concepts if c.first_cert is not None][:10]
    concepts += [c for c in all_concepts if c.first_cert is None][:2]
    probe = probe_domain(concepts, limit=8)
    assert len(probe) == 8

    def make_single():
        return SingleMistakeLearner(corpus.verifier, DEFAULT_CODE_PARAMS)

    worst_single = exhaustive_adversary_max_mistakes(make_single, concepts, probe, 6)

    cp = concepts[0].layout.cp
    def make_sorted():
        return SortedListLearner()

    worst_sorted = exhaustive_adversary_max_mistakes(make_sorted, concepts, probe, 6)
    domain_sparsity = max(sum(c(x) for x in probe) for c in concepts)

    # online-to-PAC at delta = 0.1: threshold 1 - delta - slack, slack 0.05
    # (binomial at 200 trials: P[rate < 0.85 | p >= 0.9] < 2%)
    conv = OnlineToPacLearner(make_single, 1, eps=0.1, delta=0.1)
    verifier16, concept16 = few_sample_target()

    def conv_single_16():
        return SingleMistakeLearner(verifier16, DEFAULT_CODE_PARAMS)

    conv16 = OnlineToPacLearner(conv_single_16, 1, eps=0.1, delta=0.1)
    rates = {}
    conv_ok = True
    for name, dist in distribution_suite(concept16):
        res = pac_trial_suite(conv16, labels_on(dist, concept16), dist, 0.1, conv16.sample_size, 200, f"c8:{name}")
        rates[name] = res.success_rate
        conv_ok = conv_ok and res.success_rate >= 1 - 0.1 - 0.05

    ok = worst_single <= 1 and worst_sorted <= min(cp, domain_sparsity) and conv_ok
    detail = (
        f"single<= {worst_single} (bound 1), sorted<= {worst_sorted} "
        f"(sparsity {min(cp, domain_sparsity)}), conversion M={conv.sample_size} "
        + " ".join(f"{k}={v:.3f}" for k, v in rates.items())
    )
    report(8, ok, detail, time.perf_counter() - t0, 300)


def test_criterion_09_tradeoff_curve(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = 17\n")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["tradeoff", "--config", str(cfg), "--out", str(out1)])
    code2 = cli_main(["tradeoff", "--config", str(cfg), "--out", str(out2)])
    csv1 = (out1 / "tradeoff.csv").read_bytes()
    csv2 = (out2 / "tradeoff.csv").read_bytes()
    summary = (out1 / "tradeoff_summary.txt").read_text()
    ratio = float(next(l for l in summary.splitlines() if l.startswith("step ratio")).split()[3])
    ok = code1 == 0 and code2 == 0 and csv1 == csv2 and ratio >= 100
    report(
        9,
        ok,
        f"p=16 step ratio {ratio:.0f}x >= 100x, CSV byte-identical across re-runs",
        time.perf_counter() - t0,
        600,
    )


def test_criterion_10_structural_checks():
    t0 = time.perf_counter()
    small = single_clause_corpus()
    small = small._replace(instances=list(small.instances))  # read again below
    ok = True
    checked = 0
    for inst in small.instances:
        z = small.verifier.encoding.encode(inst)
        c = CertConcept(small.verifier, z, DEFAULT_CODE_PARAMS)
        lay = c.layout
        assert lay.n + lay.ell <= 20
        tree = build_decision_tree(c)
        ok = ok and tree.size <= lay.n + 2 * lay.cp
        for v in range(1 << (lay.n + lay.ell)):
            x = int_to_bits(v, lay.n + lay.ell)
            if dt_eval(tree, x) != c(x):
                ok = False
                break
        checked += 1

    # first_certificate cost: at most p oracle calls on every corpus instance
    calls_ok = True
    two_var, rand_corpus = decider_corpora()
    for corpus in (small, two_var, rand_corpus):
        for inst in corpus.instances:
            ctr = StepCounter()
            first_certificate(corpus.verifier, corpus.verifier.encoding.encode(inst), counter=ctr)
            calls_ok = calls_ok and ctr.oracle_calls <= corpus.verifier.p
    v16, concept16 = few_sample_target()
    ctr = StepCounter()
    first_certificate(v16, concept16.z, counter=ctr)
    calls_ok = calls_ok and ctr.oracle_calls <= v16.p

    sizes_ok = True
    for inst in two_var.instances:
        c = CertConcept(two_var.verifier, two_var.verifier.encoding.encode(inst), DEFAULT_CODE_PARAMS)
        sizes_ok = sizes_ok and build_decision_tree(c).size <= c.layout.n + 2 * c.layout.cp

    ok = ok and calls_ok and sizes_ok
    report(
        10,
        ok,
        f"tree/eval exhaustive agreement on {checked} concepts (n+ell=16), "
        f"sizes within n+2cp, first_certificate <= p oracle calls corpus-wide",
        time.perf_counter() - t0,
        60,
    )
