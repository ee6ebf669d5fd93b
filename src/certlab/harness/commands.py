"""The six experiment commands behind the CLI.

Every command is deterministic given its config (seeds included); CSV output
is byte-stable across re-runs.  Wall-clock readings go to the plain-text
summaries only, never into CSV.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from functools import partial
from pathlib import Path

from ..codes import (
    DEFAULT_CODE_PARAMS,
    REDUCTION_CODE_PARAMS,
    CodeParams,
    get_code,
    radius_recovery,
)
from ..concepts import (
    LDIM_DEPTH,
    CertConcept,
    ExampleLayout,
    build_decision_tree,
    cert_class_vc,
    distinct_concept_count,
    ldim_oracle,
    serialize_tree,
)
from ..errors import ConfigError
from ..paclearn import (
    Distribution,
    few_sample_learner,
    junta_learner,
    labels_on,
    pac_trial_suite,
    sparse_erm,
)
from ..reduction import DeciderConfig, learner_error_target, sat_decider
from ..sat import brute_force_sat
from ..verifiers import FormulaEncoding, ThreeSatVerifier
from .config import FRACTION, INT, INTS, NAMES, NUMBER, STR
from .corpus import CORPUS_KEYS, Corpus, build_corpus, forcing_formula


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write each line as it arrives, ending in a newline, or raise a one-line
    ConfigError.  A run that raises part-way removes the file it opened."""
    try:
        out = path.open("w", newline="\n")
        try:
            with out:
                out.writelines(line + "\n" for line in lines)
        except BaseException:
            path.unlink()
            raise
    except OSError as exc:
        raise ConfigError(f"output file cannot be written: {path} ({exc.strerror})") from None


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    write_lines(path, lines)


def code_params_from(cfg: dict) -> CodeParams:
    return CodeParams(c=cfg["code.c"], eps_star=cfg["code.eps_star"])


# -- learners: learner(sample, counter=None) -> hypothesis ----------------------------


def make_sparse_erm():
    """`sparse_erm` as this module holds it now (perfbench's decide learner)."""
    return sparse_erm


#: name -> factory of (verifier, params); `learn.learners` names some, `tradeoff` runs all.
#: Each factory looks its learner up when called, so traced runs see the wrapped one.
LEARNERS = {
    "few_sample": lambda v, params: partial(few_sample_learner, verifier=v, params=params),
    "sparse_erm": lambda v, params: sparse_erm,
}


def resolve_learner(name: str, verifier, params):
    if name not in LEARNERS:
        raise ConfigError(f"unknown learner {name!r} (choose from {sorted(LEARNERS)})")
    return LEARNERS[name](verifier, params)


# -- distribution suite -----------------------------------------------------------


def useless_point(concept: CertConcept) -> str:
    """A fixed example whose prefix mismatches the concept's instance."""
    lay = concept.layout
    if lay.matched == 0:
        raise ConfigError("the uniform layout has no useless example")
    z = concept.z
    flipped = ("1" if z[0] == "0" else "0") + z[1:]
    return lay.example(flipped, 0)


def uniform_useful(concept: CertConcept) -> Distribution:
    """Uniform on the concept's useful examples, one per index value."""
    lay = concept.layout
    return Distribution.uniform([lay.example(concept.z, v) for v in range(1 << lay.ell)])


def distribution_suite(concept: CertConcept) -> list[tuple[str, Distribution]]:
    """The adversarial distributions every batch-learner criterion runs against:
    uniform on useful points, 90% mass on one useless point, and point masses."""
    far = useless_point(concept)
    uniform = uniform_useful(concept)
    useful = list(uniform.points)
    ones = concept.one_points()
    suite = [
        ("uniform_useful", uniform),
        (
            "useless_mass",
            Distribution([far] + useful, [0.9] + [0.1 / len(useful)] * len(useful)),
        ),
        ("pm_useful", Distribution.point_mass(ones[0] if ones else useful[0])),
        ("pm_useless", Distribution.point_mass(far)),
    ]
    return suite


# -- commands -----------------------------------------------------------------------


def corpus_concepts(corpus: Corpus, params: CodeParams) -> Iterator[CertConcept]:
    """Each formula's concept, in corpus order, as the formulas arrive."""
    for inst in corpus.instances:
        yield CertConcept(corpus.verifier, corpus.verifier.encode(inst), params)


def cmd_enumerate(cfg: dict, out_dir: Path, seed) -> int:
    concepts = corpus_concepts(build_corpus(cfg, seed), code_params_from(cfg))
    lines = (f"{c.z} {serialize_tree(build_decision_tree(c))}" for c in concepts)
    write_lines(out_dir / "trees.txt", lines)
    return 0


def probe_domain(concepts: list[CertConcept], limit: int = 16) -> list[str]:
    pts: list[str] = []
    seen = set()

    def add(x: str) -> None:
        if x not in seen and len(pts) < limit:
            seen.add(x)
            pts.append(x)

    for c in concepts:
        if c.first_cert is None:
            continue
        ones = c.one_points()
        for x in ones[:2]:
            add(x)
        lay = c.layout
        zeros = [v for v in range(1 << lay.ell) if not (c.word >> v) & 1]
        for v in zeros[:1]:
            add(lay.example(c.z, v))
        if len(pts) >= limit - 2:
            break
    for c in concepts[:2]:
        add(useless_point(c))
    return pts


def cmd_vcdim(cfg: dict, out_dir: Path, seed) -> int:
    # the class, not the corpus: the first concept of each distinct (head, word),
    # and the corpus's first two, whose useless points the probe takes
    count, first_two, distinct = 0, [], {}
    for count, c in enumerate(corpus_concepts(build_corpus(cfg, seed), code_params_from(cfg)), 1):
        if count <= 2:
            first_two.append(c)
        distinct.setdefault((c.head, c.word), c)
    concepts = list(distinct.values())
    report = cert_class_vc(concepts)
    n_distinct = distinct_concept_count(concepts)
    probe = probe_domain(first_two + concepts)
    ldim = ldim_oracle(concepts, probe) if probe else 0
    log_bound = math.log2(n_distinct) if n_distinct else 0.0
    ok = report.dimension <= log_bound + 1e-9 and ldim >= report.dimension
    lines = [
        f"concepts = {count}",
        f"distinct_concepts = {n_distinct}",
        f"vc_dimension = {report.dimension}",
        f"shattered_singleton = {report.shattered_singleton or '-'}",
        f"candidate_points = {report.candidate_points}",
        f"pairs_checked = {report.pairs_checked}",
        f"ldim = {ldim} (probe of {len(probe)} points, depth {LDIM_DEPTH})",
        f"vc_le_log2_class_size = {report.dimension} <= {_fmt(log_bound)}: {'ok' if ok else 'VIOLATED'}",
    ]
    write_lines(out_dir / "dimension_report.txt", lines)
    return 0 if ok else 1


def cmd_codes_test(cfg: dict, out_dir: Path, seed) -> int:
    params = code_params_from(cfg)
    lengths, samples = cfg["codes.lengths"], cfg["codes.samples"]
    if samples < 1:
        raise ConfigError(f"codes.samples must be >= 1, got {samples}")
    lines = [f"code: c={params.c} eps_star={params.eps_star}"]
    ok = True
    for m in lengths:
        code = get_code(params, m)
        rng = random.Random(f"codes-test:{seed}:{m}")
        # zero-corruption round trips
        clean = True
        for _ in range(100):
            v = rng.getrandbits(m)
            clean = clean and code.decode_value(code.encode_value(v)) == v
        res = radius_recovery(
            params, m, exhaustive_limit=cfg["codes.exhaustive_limit"], samples=samples, seed=seed
        )
        # beyond-radius inputs must not crash: flip bits 0..radius
        code.decode_value(code.encode_value(rng.getrandbits(m)) ^ ((1 << (code.radius + 1)) - 1))
        ok = ok and clean and res.recovered == res.tested
        lines.append(
            f"m={m} len={code.codeword_len} distance={code.distance} "
            f"contract_radius={code.contract_radius} certified_radius={code.radius} "
            f"patterns={res.tested} recovered={res.recovered} "
            f"mode={'exhaustive' if res.exhaustive else 'sampled'} clean_roundtrip={clean}"
        )
    write_lines(out_dir / "radius_report.txt", lines)
    return 0 if ok else 1


def pac_trial_grid(concept, verifier, params, names, budgets, suite, eps, trials, seed, seed_label):
    """Yield (learner name, m, distribution name, SuiteResult) by learner, then budget, then
    (name, Distribution) of suite.  Each learner is resolved once, and the target is its
    labels on each support, made once; trials are seeded by seed_label formatted with seed,
    name, m and dist."""
    learners = [(name, resolve_learner(name, verifier, params)) for name in names]
    labelled = [(dist_name, dist, labels_on(dist, concept)) for dist_name, dist in suite]
    for name, learner in learners:
        for m in budgets:
            for dist_name, dist, labels in labelled:
                label = seed_label.format(seed=seed, name=name, m=m, dist=dist_name)
                yield name, m, dist_name, pac_trial_suite(learner, labels, dist, eps, m, trials, label)


def _target_concept(concepts: Iterable[CertConcept]) -> CertConcept:
    fallback = None
    for concept in concepts:
        if concept.first_cert is not None:
            if concept.sparsity > 0:
                return concept
            fallback = fallback or concept
    if fallback is not None:
        return fallback
    raise ConfigError("corpus has no satisfiable instance to learn")


LEARN_CSV_HEADER = ["n", "p", "learner", "distribution", "m", "trials", "success_rate", "mean_error", "mean_steps"]


def cmd_learn(cfg: dict, out_dir: Path, seed) -> int:
    corpus = build_corpus(cfg, seed)
    params = code_params_from(cfg)
    eps, trials, budgets = cfg["learn.eps"], cfg["learn.trials"], cfg["learn.m"]
    names, min_success = cfg["learn.learners"], cfg["learn.min_success"]
    if not 0 <= min_success <= 1:
        raise ConfigError(f"learn.min_success must lie in [0, 1], got {min_success}")
    concept = _target_concept(corpus_concepts(corpus, params))
    v = corpus.verifier
    suite = distribution_suite(concept)
    seed_label = "{seed}:{name}:{m}:{dist}"
    grid = list(pac_trial_grid(concept, v, params, names, budgets, suite, eps, trials, seed, seed_label))
    rows = [
        (v.n, v.p, name, dist_name, m, trials, res.success_rate, res.mean_error, res.mean_steps)
        for name, m, dist_name, res in grid
    ]
    write_csv(out_dir / "learn.csv", LEARN_CSV_HEADER, rows)
    return 0 if all(res.success_rate >= min_success for *_, res in grid) else 1


def cmd_reduce(cfg: dict, out_dir: Path, seed) -> int:
    corpus = build_corpus(cfg, seed)
    params = code_params_from(cfg)
    variant = cfg["decider.variant"]
    config = DeciderConfig(m=cfg["decider.m"], r=cfg["decider.r"], code_params=params, variant=variant)
    v = corpus.verifier
    if variant == "uniform":
        learner = partial(junta_learner, layout=ExampleLayout.of(v.n, params, v.p, variant))
    else:
        learner = sparse_erm
    lines = [
        f"decider: m={config.m} r={config.r} variant={variant} "
        f"code=(c={params.c}, eps_star={params.eps_star}) "
        f"learner_error_target={learner_error_target(params, variant)}"
    ]
    false_accepts = 0
    sat_total = 0
    sat_accepted = 0
    for i, inst in enumerate(corpus.instances):
        # the decider first: it rejects p > 16 before brute force walks 2^p assignments
        report = sat_decider(inst, v, config, learner, f"{seed}:{i}")
        truth = brute_force_sat(inst)
        if report.accept and not truth:
            false_accepts += 1
        if truth:
            sat_total += 1
            sat_accepted += int(report.accept)
        first, *rest = report.lines()
        lines.append(f"[{i}] sat={int(truth)} {first}")
        lines.extend(rest)
    rate = (sat_accepted / sat_total) if sat_total else 1.0
    lines.append(
        f"summary: instances={i + 1} satisfiable={sat_total} "
        f"accept_rate_on_sat={_fmt(rate)} false_accepts={false_accepts}"
    )
    write_lines(out_dir / "decider_report.txt", lines)
    return 0 if false_accepts == 0 else 1


TRADEOFF_CSV_HEADER = ["n", "p", "learner", "m", "trials", "success_rate", "mean_error", "mean_steps"]


def cmd_tradeoff(cfg: dict, out_dir: Path, seed) -> int:
    params = code_params_from(cfg)
    num_vars = cfg["tradeoff.vars"]
    if num_vars < 1:
        raise ConfigError(f"tradeoff.vars must be >= 1, got {num_vars}")
    formula = forcing_formula(num_vars=num_vars, forced=max(1, num_vars // 2), extra=4)
    encoding = FormulaEncoding(max_vars=num_vars, max_clauses=len(formula.clauses))
    v = ThreeSatVerifier(encoding)
    concept = CertConcept(v, v.encode(formula), params)
    if concept.first_cert is None:
        raise ConfigError("tradeoff formula must be satisfiable")
    eps, trials, budgets = cfg["tradeoff.eps"], cfg["tradeoff.trials"], cfg["tradeoff.m"]
    factor = cfg["tradeoff.factor"]
    if factor <= 0:
        raise ConfigError(f"tradeoff.factor must be > 0, got {factor}")
    suite = [("uniform_useful", uniform_useful(concept))]
    grid = list(pac_trial_grid(concept, v, params, LEARNERS, budgets, suite, eps, trials, seed, "{seed}:{name}:{m}"))
    rows = [
        (v.n, v.p, name, m, trials, res.success_rate, res.mean_error, res.mean_steps)
        for name, m, _, res in grid
    ]
    write_csv(out_dir / "tradeoff.csv", TRADEOFF_CSV_HEADER, rows)
    largest = max(budgets)
    steps = {(name, m): res.mean_steps for name, m, _, res in grid}
    slow = steps[("few_sample", largest)]
    fast = max(steps[("sparse_erm", largest)], 1e-12)
    ratio = slow / fast
    ok = ratio >= factor
    lines = [
        f"p = {v.p}, largest budget m = {largest}",
        f"few_sample mean steps = {_fmt(slow)}",
        f"sparse_erm mean steps = {_fmt(fast)}",
        f"step ratio = {_fmt(ratio)} (required >= {_fmt(factor)}): {'ok' if ok else 'BELOW THRESHOLD'}",
        "wall clock (informational, excluded from CSV):",
    ]
    lines.extend(f"  {name} m={m}: {res.wall_s:.4f}s" for name, m, _, res in grid)
    write_lines(out_dir / "tradeoff_summary.txt", lines)
    return 0 if ok else 1


#: `seed` and the code keys at the module preset, which every command takes.
COMMON_KEYS = {
    "seed": (INT, 0),
    "code.c": (INT, DEFAULT_CODE_PARAMS.c),
    "code.eps_star": (FRACTION, DEFAULT_CODE_PARAMS.eps_star),
}

#: command -> its config keys, key -> (kind, default).  `cli.main` runs
#: `cmd_<command>` ("-" read as "_"), looked up when run: traced runs wrap it.
COMMANDS = {
    "enumerate": COMMON_KEYS | CORPUS_KEYS,
    "learn": COMMON_KEYS | CORPUS_KEYS | {
        "learn.learners": (NAMES, list(LEARNERS)),
        "learn.m": (INTS, [47]),
        "learn.eps": (NUMBER, 0.1),
        "learn.trials": (INT, 200),
        "learn.min_success": (NUMBER, 0.0),
    },
    "reduce": COMMON_KEYS | CORPUS_KEYS | {
        "code.c": (INT, REDUCTION_CODE_PARAMS.c),
        "code.eps_star": (FRACTION, REDUCTION_CODE_PARAMS.eps_star),
        "decider.m": (INT, 12),
        "decider.r": (INT, 5),
        "decider.variant": (STR, "standard"),
    },
    "tradeoff": COMMON_KEYS | {
        "tradeoff.vars": (INT, 16),
        "tradeoff.m": (INTS, [1, 2, 4, 8, 16, 47]),
        "tradeoff.eps": (NUMBER, 0.1),
        "tradeoff.trials": (INT, 5),
        "tradeoff.factor": (NUMBER, 100.0),
    },
    "vcdim": COMMON_KEYS | CORPUS_KEYS,
    "codes-test": COMMON_KEYS | {
        "codes.lengths": (INTS, [8, 12]),
        "codes.samples": (INT, 2000),
        "codes.exhaustive_limit": (INT, 0),
    },
}
