import contextlib
import hashlib
import io
import random
import re
import signal
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st

from certlab import verifiers
from certlab.codes import DEFAULT_CODE_PARAMS, LinearCode
from certlab.concepts import CertConcept, ExampleLayout, dt_eval, serialize_tree
from certlab.errors import ConfigError, FormatError
from certlab.harness import commands
from certlab.harness.cli import build_parser, main
from certlab.harness.commands import COMMANDS, distribution_suite, resolve_learner, write_csv
from certlab.harness.config import FRACTION, INT, INTS, NAMES, parse_config, read_config
from certlab.harness.corpus import (
    build_corpus,
    dimacs_corpus,
    exhaustive_two_var_corpus,
    forcing_formula,
    random_corpus,
    single_clause_corpus,
)
from certlab.paclearn import (
    Distribution,
    SuiteResult,
    draw_sample,
    few_sample_learner,
    junta_learner,
    labels_on,
    pac_trial_suite,
    sparse_erm,
)
from certlab.sat import ThreeSatInstance, brute_force_sat, random_instance
from certlab.verifiers import FormulaEncoding, StepCounter, ThreeSatVerifier
from oracles import parse_tree, reference_trial_suite, serialize_config, to_dimacs


def test_config_parse_serialize_round_trip():
    text = "# comment\nseed = 7\ndecider.m = 12\n\nlearn.m = 1,2,4\n"
    cfg = parse_config(text)
    assert cfg == {"seed": "7", "decider.m": "12", "learn.m": "1,2,4"}
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert parse_config(serialize_config(again)) == cfg


def test_config_errors():
    with pytest.raises(FormatError):
        parse_config("novalue\n")
    with pytest.raises(FormatError):
        parse_config("a = 1\na = 2\n")
    cfg = parse_config("x = 3\nf = 1/8\nlist = 1,2\nnames = a , b,\n")
    keys = {"x": (INT, None), "missing": (INT, 9), "f": (FRACTION, None), "list": (INTS, None), "names": (NAMES, None)}
    assert read_config(cfg, keys, "test") == {"x": 3, "missing": 9, "f": Fraction(1, 8), "list": [1, 2], "names": ["a", "b"]}
    with pytest.raises(ConfigError):
        read_config(cfg, {**keys, "f": (INT, None)}, "test")
    with pytest.raises(ConfigError):
        read_config({**cfg, "absent": "1"}, keys, "test")


def test_corpora_shapes():
    assert len(list(exhaustive_two_var_corpus().instances)) == 93
    assert len(list(single_clause_corpus().instances)) == 9
    rc = list(random_corpus(0, count=30).instances)
    assert len(rc) == 30
    assert all(brute_force_sat(f) for f in rc)  # clause count = vars keeps them sat
    assert list(random_corpus("s", 10).instances) == list(random_corpus("s", 10).instances)
    with pytest.raises(ConfigError):
        random_corpus(0, 5, vars_min=2)


def test_dimacs_corpus(tmp_path):
    f = forcing_formula(4, 2, 1)
    p = tmp_path / "a.cnf"
    p.write_text(to_dimacs(f))
    corpus = dimacs_corpus([str(p)])
    assert list(corpus.instances) == [f]
    # a leading UTF-8 byte order mark is skipped, not read as a clause
    bom = tmp_path / "bom.cnf"
    bom.write_bytes(b"\xef\xbb\xbf" + to_dimacs(f).encode())
    assert list(dimacs_corpus([str(bom)]).instances) == [f]
    with pytest.raises(ConfigError):
        dimacs_corpus([str(tmp_path / "missing.cnf")])


def parsed(command: str, cfg: dict[str, str]) -> dict:
    """command's config values, cfg's over the defaults of its table."""
    return read_config(cfg, COMMANDS[command], command)


def test_build_corpus_kinds(tmp_path):
    assert len(list(build_corpus(parsed("vcdim", {"corpus.kind": "exhaustive2var"}), 0).instances)) == 93
    assert len(list(build_corpus(parsed("vcdim", {"corpus.kind": "random", "corpus.count": "5"}), 1).instances)) == 5
    with pytest.raises(ConfigError):
        build_corpus(parsed("vcdim", {"corpus.kind": "nope"}), 0)


def test_the_verifier_remembers_each_corpus_formula_as_decoding_would(tmp_path):
    cnf = tmp_path / "dup.cnf"
    # repeated and unsorted literals, which the DIMACS parser canonicalises
    cnf.write_text("p cnf 5 3\n3 -1 3 0\n-2 2 0\n5 0\n")
    kinds = [
        {"corpus.kind": "exhaustive2var"},
        {"corpus.kind": "single_clause"},
        {"corpus.kind": "random", "corpus.count": "60", "corpus.vars_max": "8"},
        {"corpus.kind": "dimacs", "corpus.paths": f"{cnf},{cnf}"},
    ]
    for cfg in kinds:
        corpus = build_corpus(parsed("vcdim", cfg), 3)
        fresh = ThreeSatVerifier(corpus.verifier.encoding)
        for inst in corpus.instances:
            z = corpus.verifier.encode(inst)
            # (z, formula, no mask until one is read), as reading z would remember them
            assert corpus.verifier._memo == fresh._read(z)
            assert corpus.verifier._memo[1] == corpus.verifier.encoding.decode(z)


def test_forcing_formula_is_satisfiable_with_high_rank_witness():
    f = forcing_formula(10, 5, 3)
    assert brute_force_sat(f)
    from oracles import solutions

    first = solutions(f)[0]
    assert first.startswith("1" * 5)


def test_write_csv_six_significant_digits(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [(0.123456789, 3), (1 / 3, "s")])
    assert path.read_text() == "a,b\n0.123457,3\n0.333333,s\n"


def test_distribution_suite_shapes():
    from certlab.codes import DEFAULT_CODE_PARAMS
    from certlab.concepts import CertConcept

    corpus = exhaustive_two_var_corpus()
    inst = next(f for f in corpus.instances if brute_force_sat(f))
    concept = CertConcept(corpus.verifier, corpus.verifier.encoding.encode(inst), DEFAULT_CODE_PARAMS)
    suite = distribution_suite(concept)
    names = [name for name, _ in suite]
    assert names == ["uniform_useful", "useless_mass", "pm_useful", "pm_useless"]
    heavy = dict(suite)["useless_mass"]
    assert max(heavy.weights) == pytest.approx(0.9)
    uniform, alone = dict(suite)["uniform_useful"], commands.uniform_useful(concept)
    assert (uniform.points, uniform.weights) == (alone.points, alone.weights)


def test_tradeoff_builds_only_the_distribution_it_sweeps(tmp_path, monkeypatch):
    built = []
    real_init = Distribution.__init__

    def counting_init(self, points, weights):
        built.append(len(points))
        real_init(self, points, weights)

    monkeypatch.setattr(Distribution, "__init__", counting_init)
    assert commands.cmd_tradeoff(parsed("tradeoff", {}), tmp_path, 0) == 0
    assert built == [128]  # uniform on the 2^7 useful points


TWO_VAR = exhaustive_two_var_corpus()
TWO_VAR_SAT = [f for f in TWO_VAR.instances if brute_force_sat(f)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(TWO_VAR_SAT),
    st.sampled_from(sorted(commands.LEARNERS)),
    st.integers(0, 30),
    st.integers(1, 4),
    st.integers(0, 2**32),
)
def test_trial_suites_match_the_reference_trial_loop(inst, name, m, trials, seed):
    """A suite run on the target's support labels, drawing pre-labelled
    support positions, equals the loop that draws points and calls the concept."""
    v = TWO_VAR.verifier
    concept = CertConcept(v, TWO_VAR.verifier.encoding.encode(inst), DEFAULT_CODE_PARAMS)
    learner = resolve_learner(name, v, DEFAULT_CODE_PARAMS)
    for dist_name, dist in distribution_suite(concept):
        a = pac_trial_suite(learner, labels_on(dist, concept), dist, 0.1, m, trials, f"{seed}:{dist_name}")
        b = reference_trial_suite(learner, concept, dist, 0.1, m, trials, f"{seed}:{dist_name}")
        assert (a.success_rate, a.mean_error, a.mean_steps) == b


def _same_as_direct(learner, direct, sample, support):
    """learner(sample) and learner(sample, counter=c) answer as direct(sample, c)
    does on the support, and c ends with direct's step count."""
    direct_counter, counter = StepCounter(), StepCounter()
    want = [direct(sample, direct_counter)(x) for x in support]
    assert [learner(sample)(x) for x in support] == want
    assert [learner(sample, counter=counter)(x) for x in support] == want
    assert counter.steps == direct_counter.steps


@pytest.mark.parametrize("name", ["few_sample", "sparse_erm"])
def test_every_table_learner_is_the_learner_it_names(name):
    assert set(commands.LEARNERS) == {"few_sample", "sparse_erm"}
    v = TWO_VAR.verifier
    params = DEFAULT_CODE_PARAMS
    direct = {
        "few_sample": lambda s, c: few_sample_learner(s, v, params, counter=c),
        "sparse_erm": lambda s, c: sparse_erm(s, counter=c),
    }[name]
    learners = [resolve_learner(name, v, params)]
    if name == "sparse_erm":
        learners.append(commands.make_sparse_erm())
    for inst in TWO_VAR_SAT[:4]:
        concept = CertConcept(v, TWO_VAR.verifier.encoding.encode(inst), params)
        for dist_name, dist in distribution_suite(concept):
            sample = draw_sample(dist, labels_on(dist, concept), 12, random.Random(dist_name))
            for learner in learners:
                _same_as_direct(learner, direct, sample, dist.points)


def test_reduce_plugs_in_the_junta_learner_on_the_uniform_layout(tmp_path, monkeypatch):
    plugged = []

    class Plugged(Exception):
        pass

    def capture(inst, verifier, config, learner, master_seed):
        plugged.append((verifier, config, learner))
        raise Plugged

    monkeypatch.setattr(commands, "sat_decider", capture)
    cfg = parsed("reduce", {"corpus.kind": "single_clause", "decider.variant": "uniform"})
    with pytest.raises(Plugged):
        commands.cmd_reduce(cfg, tmp_path, 0)
    (v, config, learner), = plugged
    layout = ExampleLayout.of(v.n, config.code_params, v.p, "uniform")
    inst = next(f for f in single_clause_corpus().instances if brute_force_sat(f))
    concept = CertConcept(v, v.encoding.encode(inst), config.code_params, kind="uniform")
    points = [layout.example("0" * v.n, i) for i in range(1 << layout.ell)]
    dist = Distribution.uniform(points)
    sample = draw_sample(dist, labels_on(dist, concept), 10, random.Random(0))
    _same_as_direct(learner, lambda s, c: junta_learner(s, layout, counter=c), sample, points)


def test_reduce_and_tradeoff_decode_no_formula(tmp_path, monkeypatch):
    """Both commands hold each formula and have the verifier encode it, so no
    instance string is decoded back into the formula it came from."""
    decoded = []
    real_decode = FormulaEncoding.decode

    def counting_decode(self, bits):
        decoded.append(bits)
        return real_decode(self, bits)

    monkeypatch.setattr(FormulaEncoding, "decode", counting_decode)
    assert commands.cmd_reduce(parsed("reduce", {"corpus.kind": "random", "corpus.count": "20"}), tmp_path, 0) == 0
    assert commands.cmd_tradeoff(parsed("tradeoff", {}), tmp_path, 0) == 0
    assert decoded == []


def record_searches(monkeypatch) -> list[int]:
    """The p of each accept mask built and each first certificate searched
    from now on, recorded in their place."""
    built = []
    monkeypatch.setattr(verifiers, "satisfying_mask", lambda inst, p: built.append(p))
    monkeypatch.setattr(verifiers, "first_satisfying", lambda inst, p: built.append(p))
    return built


def test_tradeoff_rejects_an_uncoded_p_before_building_the_mask(tmp_path, monkeypatch):
    built = record_searches(monkeypatch)
    with pytest.raises(ConfigError, match=r"^message length 24 unsupported \(supported: 2\.\.16\)$"):
        commands.cmd_tradeoff(parsed("tradeoff", {"tradeoff.vars": "24"}), tmp_path, 0)
    assert built == []


@pytest.mark.parametrize("command", ["enumerate", "learn", "vcdim"])
def test_a_corpus_command_rejects_an_uncoded_p_before_building_the_mask(tmp_path, monkeypatch, command):
    built = record_searches(monkeypatch)
    cfg = parsed(command, {"corpus.kind": "random", "corpus.vars_min": "24", "corpus.vars_max": "24"})
    with pytest.raises(ConfigError, match=r"^message length 24 unsupported \(supported: 2\.\.16\)$"):
        getattr(commands, f"cmd_{command}")(cfg, tmp_path, 0)
    assert built == []


def test_tradeoff_labels_its_support_once_per_sweep(tmp_path, monkeypatch):
    """Leaving out the slow learner and the concepts it builds, which it
    returns as its hypotheses, a sweep never calls the target concept: its
    128 support points are labelled once, from the concept's word."""
    depth = [0]
    learned = {}  # the concepts built inside the learner, kept alive by id
    outside = []
    real_init = CertConcept.__init__
    real_call = CertConcept.__call__
    real_learner = commands.few_sample_learner

    def marking_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if depth[0]:
            learned[id(self)] = self

    def counting_call(self, x):
        if not depth[0] and id(self) not in learned:
            outside.append(x)
        return real_call(self, x)

    def marked_learner(*args, **kwargs):
        depth[0] += 1
        try:
            return real_learner(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(CertConcept, "__init__", marking_init)
    monkeypatch.setattr(CertConcept, "__call__", counting_call)
    monkeypatch.setattr(commands, "few_sample_learner", marked_learner)
    assert commands.cmd_tradeoff(parsed("tradeoff", {}), tmp_path, 0) == 0
    assert learned
    assert outside == []


def test_learn_and_tradeoff_run_their_grids_in_order_with_their_seed_labels(tmp_path, monkeypatch):
    """learner, then budget, then distribution; each support labelled once;
    the rows, the step ratio and the wall-clock lines in the order run."""
    calls, labelled, made = [], [], []
    real_labels = commands.labels_on

    def labels(dist, concept):
        labelled.append(dist)
        made.append(real_labels(dist, concept))
        return made[-1]

    def suite(learner, f, dist, eps, m, trials, master_seed):
        calls.append((learner, f, dist, m, master_seed))
        n = float(len(calls))
        return SuiteResult(success_rate=1.0, mean_error=0.0, mean_steps=n, wall_s=n)

    def ran(learner, name):
        return learner is sparse_erm if name == "sparse_erm" else learner.func is few_sample_learner

    monkeypatch.setattr(commands, "labels_on", labels)
    monkeypatch.setattr(commands, "pac_trial_suite", suite)
    cfg = "corpus.kind = single_clause\nlearn.learners = sparse_erm,few_sample\nlearn.m = 5,0\n"
    assert run_cli(tmp_path, "learn", cfg, seed=77) == 0
    concept = commands._target_concept(commands.corpus_concepts(single_clause_corpus(), DEFAULT_CODE_PARAMS))
    dists = distribution_suite(concept)
    grid = [(name, m, d) for name in ("sparse_erm", "few_sample") for m in (5, 0) for d in range(4)]
    want = [(m, f"77:{name}:{m}:{dists[d][0]}") for name, m, d in grid]
    assert [(m, label) for *_, m, label in calls] == want
    assert [(dist.points, dist.weights) for dist in labelled] == [(d.points, d.weights) for _, d in dists]
    for (name, _, d), (learner, f, dist, _, _) in zip(grid, calls):
        assert ran(learner, name) and dist is labelled[d] and f is made[d]
    rows = (tmp_path / "learn.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == [str(i) for i in range(1, 17)]

    calls.clear()
    labelled.clear()
    made.clear()
    cfg = "tradeoff.vars = 4\ntradeoff.m = 3,1\ntradeoff.factor = 0.1\n"
    assert run_cli(tmp_path, "tradeoff", cfg, seed=77) == 0
    grid = [(name, m) for name in ("few_sample", "sparse_erm") for m in (3, 1)]
    assert [(m, label) for *_, m, label in calls] == [(m, f"77:{name}:{m}") for name, m in grid]
    assert len(labelled) == 1
    for (name, _), (learner, f, dist, _, _) in zip(grid, calls):
        assert ran(learner, name) and dist is labelled[0] and f is made[0]
    rows = (tmp_path / "tradeoff.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["1", "2", "3", "4"]
    summary = (tmp_path / "tradeoff_summary.txt").read_text().splitlines()
    assert summary[1:4] == [
        "few_sample mean steps = 1",
        "sparse_erm mean steps = 3",
        "step ratio = 0.333333 (required >= 0.1): ok",
    ]
    assert summary[5:] == [f"  {name} m={m}: {i}.0000s" for i, (name, m) in enumerate(grid, 1)]


def test_learn_skips_blank_learner_names_and_needs_one(tmp_path, capsys):
    cfg = "corpus.kind = single_clause\nlearn.m = 0\nlearn.trials = 1\nlearn.learners = sparse_erm,\n"
    assert run_cli(tmp_path, "learn", cfg) == 0
    rows = (tmp_path / "learn.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["sparse_erm"] * 4
    assert run_cli(tmp_path, "learn", "learn.learners =\n") == 2
    assert capsys.readouterr().err == "configuration error: config key 'learn.learners' must list at least one name\n"


def test_uniform_concepts_have_no_useless_example():
    from certlab.codes import DEFAULT_CODE_PARAMS
    from certlab.concepts import CertConcept
    from certlab.errors import ConfigError
    from certlab.harness.commands import probe_domain

    corpus = exhaustive_two_var_corpus()
    inst = next(f for f in corpus.instances if brute_force_sat(f))
    z = corpus.verifier.encoding.encode(inst)
    concept = CertConcept(corpus.verifier, z, DEFAULT_CODE_PARAMS, kind="uniform")
    for build in (distribution_suite, lambda c: probe_domain([c])):
        with pytest.raises(ConfigError, match="no useless example"):
            build(concept)


ROOT = Path(__file__).resolve().parents[1]


def test_readme_config_block_lists_exactly_the_keys_read():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Config format", 1)[1].split("```", 2)[1]
    # (key, value, comment) in the order the block lists them
    listed = re.findall(r"^(\S+) = (\S+) +# (.*)$", block, flags=re.MULTILINE)
    assert len(listed) == len(block.strip().splitlines())
    keys = [key for key, _, _ in listed]
    assert len(keys) == len(set(keys))
    assert set(keys) == {key for table in COMMANDS.values() for key in table}
    # reduce's code preset is the one the note under the block names
    note = re.search(r"`reduce` defaults to .*?\(`c=(\S+), eps_star=(\S+)`\)", readme)
    reduce_code = {"code.c": note[1], "code.eps_star": note[2]}
    for command, table in COMMANDS.items():
        for key, value, comment in listed:
            if key not in table:
                continue
            if command == "reduce":
                value = reduce_code.get(key, value)
            default = table[key][1]
            if default is None:
                assert "(no default)" in comment, key
            else:
                assert read_config({key: value}, table, command)[key] == default, (command, key)


# -- CLI end-to-end -------------------------------------------------------------------


def run_cli(tmp_path, command, cfg_text, seed=None):
    cfg = tmp_path / "cfg.txt"
    if isinstance(cfg_text, bytes):
        cfg.write_bytes(cfg_text)
    else:
        cfg.write_text(cfg_text)
    args = [command, "--config", str(cfg), "--out", str(tmp_path)]
    if seed is not None:
        args += ["--seed", str(seed)]
    return main(args)


def test_cli_missing_config_is_exit_2(tmp_path):
    assert main(["vcdim", "--config", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]) == 2


def test_cli_bad_config_is_exit_2(tmp_path):
    assert run_cli(tmp_path, "reduce", "decider.m = not_an_int\n") == 2
    assert run_cli(tmp_path, "vcdim", "corpus.kind = bogus\n") == 2


@pytest.mark.parametrize(
    "command,cfg_text",
    [
        ("learn", "learn.eps = 1e400\n"),
        ("learn", "learn.eps = -1\n"),
        ("learn", "learn.eps = 0\n"),
        ("tradeoff", "tradeoff.eps = -1\n"),
        ("tradeoff", "tradeoff.eps = 0\n"),
        ("tradeoff", "tradeoff.eps = 1\n"),
        ("tradeoff", "tradeoff.eps = 5\n"),
        ("codes-test", "code.c = 1000000\ncodes.lengths = 2\n"),
        ("tradeoff", "tradeoff.m =\n"),
        ("codes-test", "codes.lengths =\n"),
        ("tradeoff", "tradeoff.vars = 0\n"),
        ("tradeoff", "tradeoff.vars = -3\n"),
        ("tradeoff", "tradeoff.factor = 0\n"),
        ("tradeoff", "tradeoff.factor = -5\n"),
        ("learn", "learn.min_success = 1.5\n"),
        ("learn", "learn.min_success = -0.1\n"),
        ("learn", "learn.learners =\n"),
        ("learn", "learn.learners = ,\n"),
        ("enumerate", "corpus.kind = random\ncorpus.count = 0\n"),
        ("vcdim", "corpus.kind = random\ncorpus.count = -1\n"),
        ("codes-test", "codes.lengths = 4\ncodes.samples = -1\n"),
        ("codes-test", "codes.lengths = 4\ncodes.samples = 0\n"),
        ("enumerate", "corpus.kind = dimacs\ncorpus.paths = {tmp}/empty_dir\n"),
        ("enumerate", "corpus.kind = dimacs\ncorpus.paths = {tmp}/not_utf8.cnf\n"),
        ("enumerate", "corpus.kind = dimacs\ncorpus.paths = ,\n"),
        ("vcdim", b"seed = 1 # \xff\n"),
        ("vcdim", "seed = abc\n"),
        ("vcdim", "seed = 1.5\n"),
        ("vcdim", None),  # --config names a directory
    ],
)
def test_cli_rejects_unusable_values_in_one_line(tmp_path, capsys, command, cfg_text):
    (tmp_path / "empty_dir").mkdir()
    (tmp_path / "not_utf8.cnf").write_bytes(b"c \xff\np cnf 1 1\n1 0\n")
    if cfg_text is None:
        code = main([command, "--config", str(tmp_path / "empty_dir"), "--out", str(tmp_path)])
    else:
        if isinstance(cfg_text, str):
            cfg_text = cfg_text.format(tmp=tmp_path)
        code = run_cli(tmp_path, command, cfg_text)
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("configuration error: ")


@pytest.mark.parametrize(
    "command,cfg_text,message",
    [
        # a byte order mark before the first key does not hide that key
        ("vcdim", b"\xef\xbb\xbfcorpus.kind = bogus\n", "unknown corpus.kind 'bogus'"),
        ("enumerate", "corpus.kind = dimacs\ncorpus.paths = ,\n", "config key 'corpus.paths' must list at least one name"),
        ("enumerate", "corpus.kind = dimacs\n", "missing config key 'corpus.paths'"),
        # a declared key's value is read even on a run that does not use it
        ("enumerate", "corpus.count = junk\n", "config key 'corpus.count' must be an integer, got 'junk'"),
        ("reduce", "decider.variant = bogus\n", "unknown variant 'bogus' (choose from standard, uniform)"),
    ],
)
def test_cli_error_names_the_key_or_value_at_fault(tmp_path, capsys, command, cfg_text, message):
    assert run_cli(tmp_path, command, cfg_text) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize(
    "command,typo,foreign",
    [
        ("enumerate", "corpus.kinds", "decider.m"),
        ("learn", "learn.trial", "tradeoff.m"),
        ("reduce", "decider.mm", "tradeoff.vars"),
        ("tradeoff", "tradeoff.var", "learn.eps"),
        ("vcdim", "corpus.cont", "tradeoff.vars"),
        ("codes-test", "codes.length", "corpus.kind"),
    ],
)
def test_a_key_outside_the_command_table_is_named_in_one_line_exit_2(tmp_path, capsys, command, typo, foreign):
    for key in (typo, foreign):
        assert key not in COMMANDS[command]
        assert run_cli(tmp_path, command, f"{key} = 4\n") == 2
        assert capsys.readouterr().err == f"configuration error: unknown config key {key!r} for {command}\n"


@pytest.mark.parametrize(
    "args,message",
    [
        (["tradeoff", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["tradeoff", "--seed"], "argument --seed: expected one argument"),
        (["tradeoff", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["tradeoff", "extra"], "unrecognized arguments: extra"),
        ([], "missing command (choose from enumerate, learn, reduce, tradeoff, vcdim, codes-test)"),
        (["frob"], "argument command: invalid choice: 'frob'"),
    ],
)
def test_cli_argument_errors_are_one_line_exit_2(tmp_path, capsys, args, message):
    assert main([*args, "--out", str(tmp_path / "out")] if args else args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {message}")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args,option",
    [
        (["--seed", "1", "tradeoff"], "--seed"),
        (["--seed=1", "tradeoff"], "--seed"),
        (["--config", "lab.cfg", "learn"], "--config"),
        (["--config=lab.cfg", "learn"], "--config"),
        (["--out", "{out}", "vcdim"], "--out"),
        (["--out={out}", "vcdim"], "--out"),
    ],
)
def test_cli_option_before_the_command_is_named_in_one_line(tmp_path, capsys, args, option):
    out = tmp_path / "out"
    assert main([a.format(out=out) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"configuration error: option {option} must follow the command "
        f"(certlab COMMAND {option} VALUE)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "args,usage", [(["--help"], "usage: certlab [-h]"), (["tradeoff", "--help"], "usage: certlab tradeoff")]
)
def test_cli_help_prints_usage_and_exits_0(capsys, args, usage):
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage) and captured.err == ""


def test_one_parser_serves_calls_in_a_row_without_leaking_state(tmp_path, capsys):
    cfg = "corpus.kind = random\ncorpus.count = 4\ndecider.m = 6\ndecider.r = 1\n"
    (tmp_path / "flag.cfg").write_text(cfg)
    (tmp_path / "seeded.cfg").write_text(cfg + "seed = 2\n")
    calls = [
        ["reduce", "--config", str(tmp_path / "flag.cfg"), "--seed", "3"],
        ["reduce", "--config", str(tmp_path / "seeded.cfg")],
    ]

    def report(argv, out):
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "decider_report.txt").read_text()

    fresh = []
    for i, argv in enumerate(calls):
        build_parser.cache_clear()
        fresh.append(report(argv, f"fresh{i}"))
    assert fresh[0] != fresh[1]  # a seed left over from the first call would show
    build_parser.cache_clear()
    assert [report(argv, f"row{i}") for i, argv in enumerate(calls)] == fresh
    assert build_parser.cache_info().misses == 1
    # a call that fails to parse leaves the parser as it found it
    assert main(["tradeoff", "--seed", "x", "--out", str(tmp_path / "bad")]) == 2
    assert report(calls[1], "after") == fresh[1]
    assert build_parser.cache_info().misses == 1
    assert capsys.readouterr().err == "configuration error: argument --seed: invalid int value: 'x'\n"


def test_cli_reduce_on_a_17_variable_file_is_exit_2(tmp_path, capsys):
    # all-zeros satisfies it, so the brute-force truth returns at once and the
    # decider is the first to meet the unsupported certificate length
    (tmp_path / "v17.cnf").write_text("p cnf 17 1\n-17 0\n")
    cfg = f"corpus.kind = dimacs\ncorpus.paths = {tmp_path}/v17.cnf\n"
    assert run_cli(tmp_path, "reduce", cfg) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: message length 17 unsupported (supported: 2..16)\n"


def test_enumerate_that_fails_part_way_leaves_no_trees_file(tmp_path, capsys):
    # each concept gets its length-17 code first, so the run fails at the
    # first formula, once the file is open and before any line is written;
    # the next test fails after a line
    (tmp_path / "unsat.cnf").write_text("p cnf 17 2\n1 0\n-1 0\n")
    (tmp_path / "sat.cnf").write_text("p cnf 17 1\n-17 0\n")
    cfg = f"corpus.kind = dimacs\ncorpus.paths = {tmp_path}/unsat.cnf,{tmp_path}/sat.cnf\n"
    assert run_cli(tmp_path, "enumerate", cfg) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: message length 17 unsupported (supported: 2..16)\n"
    assert not (tmp_path / "trees.txt").exists()


def test_write_lines_that_fails_after_a_line_leaves_no_file(tmp_path):
    def lines():
        yield "first"
        raise ConfigError("stopped part-way")

    path = tmp_path / "out.txt"
    with pytest.raises(ConfigError, match="^stopped part-way$"):
        commands.write_lines(path, lines())
    assert not path.exists()


def test_enumerate_memory_does_not_grow_with_the_corpus(tmp_path):
    """Formulas, concepts and lines stream: a run holds one formula at a
    time, so its traced peak stays far below what 800 lines would take."""
    cfg = parsed("enumerate", {"corpus.kind": "random", "corpus.count": "800", "corpus.vars_max": "6"})
    commands.cmd_enumerate(cfg, tmp_path, 0)  # builds the codes and masks the run reuses
    tracemalloc.start()
    try:
        assert commands.cmd_enumerate(cfg, tmp_path, 0) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "trees.txt").read_text().splitlines()) == 800
    assert peak < 1 << 20, f"traced peak {peak} bytes"


def test_vcdim_memory_holds_the_class_not_the_corpus(tmp_path):
    """vcdim keeps one concept per distinct (head, word), and over exactly 3
    variables there are few of them, so four times the formulas must not
    take much more memory."""

    def vcdim_peak(count: int) -> int:
        cfg = parsed("vcdim", {"corpus.kind": "random", "corpus.count": str(count),
                               "corpus.vars_min": "3", "corpus.vars_max": "3"})
        tracemalloc.start()
        try:
            assert commands.cmd_vcdim(cfg, tmp_path, 0) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    vcdim_peak(1000)  # builds the codes and masks the runs reuse
    small, large = vcdim_peak(1000), vcdim_peak(4000)
    assert large < 1.5 * small, f"traced peaks {small} and {large} bytes"


#: The probe's useless points come from a corpus's first two concepts, so a
#: corpus whose first two files hold one formula has one useless point.
FIRST_TWO_ALIKE = (
    ThreeSatInstance(3, [(1, -2, 3), (-1, 2), (2, 3)]),
    ThreeSatInstance(3, [(1, -2, 3), (-1, 2), (2, 3)]),
    ThreeSatInstance(2, [(1,), (-1,)]),
    ThreeSatInstance(3, [(-1,), (2, 3)]),
    ThreeSatInstance(3, [(1,), (-2,), (3,)]),
)


def vcdim_dimacs_report(tmp_path, formulas, repeat: int = 1) -> str:
    """vcdim's report on the formulas as DIMACS files, listed `repeat` times."""
    paths = []
    for i, f in enumerate(formulas):
        path = tmp_path / f"f{i}.cnf"
        path.write_text(to_dimacs(f))
        paths.append(str(path))
    assert run_cli(tmp_path, "vcdim", f"corpus.kind = dimacs\ncorpus.paths = {','.join(paths * repeat)}\n") == 0
    return (tmp_path / "dimension_report.txt").read_text()


def test_vcdim_on_a_corpus_whose_first_two_files_are_one_formula(tmp_path):
    report = vcdim_dimacs_report(tmp_path, FIRST_TWO_ALIKE)
    assert "(probe of 10 points, depth 3)" in report
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "eeb2ded690d2736b33b797c7058fb2abcad5e09b83208d98ca229ed2db19059a"
    )


def test_vcdim_on_files_listed_twice_reports_them_as_listed_once(tmp_path):
    rng = random.Random("twice")
    formulas = [*FIRST_TWO_ALIKE[2:], *(random_instance(rng, v, v) for v in (3, 4, 3, 4, 4))]
    once = vcdim_dimacs_report(tmp_path, formulas).splitlines()
    twice = vcdim_dimacs_report(tmp_path, formulas, repeat=2).splitlines()
    assert once[0] == "concepts = 8" and twice[0] == "concepts = 16"
    assert once[1:] == twice[1:]


#: A small config per command, so that a fuzzed value that is accepted
#: still runs in milliseconds.
FUZZ_BASES = {
    "enumerate": {"corpus.kind": "random", "corpus.count": "2"},
    "vcdim": {"corpus.kind": "single_clause"},
    "codes-test": {"codes.lengths": "4", "codes.samples": "20"},
    "learn": {"corpus.kind": "single_clause", "learn.m": "2", "learn.trials": "2"},
    "reduce": {"corpus.kind": "random", "corpus.count": "2", "decider.m": "2", "decider.r": "1"},
    "tradeoff": {"tradeoff.vars": "3", "tradeoff.m": "1,2", "tradeoff.trials": "1"},
}
FUZZ_VALUES = [
    "-1", "-7", "0", "1", "2", "3", "1/3", "1/2", "3/2", "0.5", "-0.25", "nan", "inf",
    "-inf", "1e400", "", "junk", "0x10", "1/0", "1,2", "2,,3", "-1,4", "nan,1", "1 2",
]
FUZZ_CASE_SECONDS = 10


def _case_timed_out(signum, frame):
    raise TimeoutError(f"a fuzzed CLI case ran for over {FUZZ_CASE_SECONDS} s")


# No shrinking: a case is at most three keys already, and shrinking a hang
# would wait out the time limit once per step.
@settings(max_examples=300, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(
    st.sampled_from(sorted(FUZZ_BASES)).flatmap(
        lambda command: st.tuples(
            st.just(command),
            # the command's own keys, so every case gets past the key check to its values
            st.dictionaries(st.sampled_from(list(COMMANDS[command])), st.sampled_from(FUZZ_VALUES), min_size=1, max_size=3),
        )
    )
)
def test_cli_fuzzed_config_values_exit_0_1_or_2_with_one_line(case):
    command, overrides = case
    cfg_text = serialize_config({**FUZZ_BASES[command], **overrides})
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _case_timed_out)
    signal.alarm(FUZZ_CASE_SECONDS)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            code = run_cli(Path(tmp), command, cfg_text)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), cfg_text
    if code:
        assert len(err.getvalue().splitlines()) == 1, (cfg_text, err.getvalue())


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_cli_out_that_cannot_be_a_directory_is_one_line_exit_2(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("")
    assert main(["vcdim", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: output directory cannot be made: {tmp_path / out} (")


@pytest.mark.parametrize(
    "command,name",
    [
        ("enumerate", "trees.txt"),
        ("vcdim", "dimension_report.txt"),
        ("codes-test", "radius_report.txt"),
        ("learn", "learn.csv"),
        ("reduce", "decider_report.txt"),
        ("tradeoff", "tradeoff.csv"),
        ("tradeoff", "tradeoff_summary.txt"),
    ],
)
def test_cli_output_file_that_cannot_be_written_is_one_line_exit_2(tmp_path, capsys, command, name):
    (tmp_path / name).mkdir()
    assert run_cli(tmp_path, command, serialize_config(FUZZ_BASES[command])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: output file cannot be written: {tmp_path / name} (")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("preset", ["", "code.c = 4\ncode.eps_star = 1/8\n"], ids=["default_code", "reduction_code"])
@pytest.mark.parametrize(
    "corpus_text",
    [
        "corpus.kind = single_clause\n",
        "corpus.kind = exhaustive2var\n",
        "corpus.kind = random\ncorpus.count = 40\ncorpus.vars_min = 3\ncorpus.vars_max = 8\n",
    ],
    ids=["single_clause", "exhaustive2var", "random"],
)
def test_cli_enumerate(tmp_path, corpus_text, preset):
    """Line k of trees.txt is instance k's encoding and its concept's exact
    tree: the text re-serializes to itself, has matched + 2^ell leaves (one
    without a certificate), and gives the concept's label at every useful
    index value and at a useless point."""
    assert run_cli(tmp_path, "enumerate", corpus_text + preset) == 0
    cfg = read_config(parse_config(corpus_text + preset), COMMANDS["enumerate"], "enumerate")
    corpus = build_corpus(cfg, cfg["seed"])
    params = commands.code_params_from(cfg)
    lines = (tmp_path / "trees.txt").read_text().splitlines()
    instances = list(corpus.instances)
    assert len(lines) == len(instances)
    for line, inst in zip(lines, instances):
        z, text = line.split(" ", 1)
        assert z == corpus.verifier.encoding.encode(inst)
        tree = parse_tree(text)
        assert serialize_tree(tree) == text
        concept = CertConcept(corpus.verifier, z, params)
        lay = concept.layout
        assert tree.size == (1 if concept.first_cert is None else lay.matched + (1 << lay.ell))
        points = [lay.example(z, v) for v in range(1 << lay.ell)] + [commands.useless_point(concept)]
        assert [dt_eval(tree, x) for x in points] == [concept(x) for x in points]


def test_cli_vcdim(tmp_path):
    assert run_cli(tmp_path, "vcdim", "corpus.kind = single_clause\n") == 0
    report = (tmp_path / "dimension_report.txt").read_text()
    assert "vc_dimension = 1" in report
    assert "ldim = 1" in report
    assert "ok" in report


def test_cli_codes_test(tmp_path):
    assert run_cli(tmp_path, "codes-test", "codes.lengths = 4,8\ncodes.samples = 200\n") == 0
    report = (tmp_path / "radius_report.txt").read_text()
    assert "m=8" in report and "recovered" in report


def test_codes_test_decodes_a_word_beyond_the_certified_radius(tmp_path, monkeypatch):
    # every decode reads a word made from the codeword encoded just before it
    last = None
    decoded = []  # (code, that codeword, received word) per decode
    real_encode, real_decode = LinearCode.encode_value, LinearCode.decode_value

    def encode_value(code, value):
        nonlocal last
        last = real_encode(code, value)
        return last

    def decode_value(code, y):
        decoded.append((code, last, y))
        return real_decode(code, y)

    monkeypatch.setattr(LinearCode, "encode_value", encode_value)
    monkeypatch.setattr(LinearCode, "decode_value", decode_value)
    cfg = parsed("codes-test", {"codes.lengths": "8,12,16", "codes.samples": "20"})
    assert commands.cmd_codes_test(cfg, tmp_path, 0) == 0
    beyond = [code.message_len for code, cw, y in decoded if (y ^ cw).bit_count() > code.radius]
    assert beyond == [8, 12, 16]


def test_cli_learn_small(tmp_path):
    cfg = (
        "corpus.kind = single_clause\n"
        "learn.learners = few_sample,sparse_erm\n"
        "learn.m = 0,20\n"
        "learn.trials = 10\n"
        "seed = 3\n"
    )
    assert run_cli(tmp_path, "learn", cfg) == 0
    body = (tmp_path / "learn.csv").read_text().splitlines()
    assert body[0].startswith("n,p,learner,distribution,m,trials")
    # 2 learners x 2 budgets x 4 distributions
    assert len(body) == 1 + 16

    # m = 0 rows: success is exactly whether constant-0 is eps-close
    from certlab.codes import DEFAULT_CODE_PARAMS
    from certlab.harness.commands import _target_concept, corpus_concepts
    from certlab.paclearn import TableHypothesis, error_of

    corpus = single_clause_corpus()
    concept = _target_concept(corpus_concepts(corpus, DEFAULT_CODE_PARAMS))
    expected = {
        name: 1.0 if error_of(dist, labels_on(dist, concept), TableHypothesis(())) <= 0.1 else 0.0
        for name, dist in distribution_suite(concept)
    }
    header = body[0].split(",")
    for line in body[1:]:
        row = dict(zip(header, line.split(",")))
        if row["m"] == "0":
            assert float(row["success_rate"]) == expected[row["distribution"]]


def test_cli_reduce_smoke_and_dimacs(tmp_path):
    cfg = (
        "corpus.kind = single_clause\n"
        "decider.m = 8\n"
        "decider.r = 3\n"
        "seed = 5\n"
    )
    assert run_cli(tmp_path, "reduce", cfg) == 0
    report = (tmp_path / "decider_report.txt").read_text()
    assert "false_accepts=0" in report
    # single DIMACS file smoke
    from certlab.harness.corpus import forcing_formula as ff

    cnf = tmp_path / "one.cnf"
    cnf.write_text(to_dimacs(ff(4, 2, 1)))
    cfg2 = f"corpus.kind = dimacs\ncorpus.paths = {cnf}\ndecider.m = 8\ndecider.r = 2\n"
    assert run_cli(tmp_path, "reduce", cfg2) == 0
    assert "accept=1" in (tmp_path / "decider_report.txt").read_text()


def test_cli_reduce_uniform_variant_routes(tmp_path):
    cfg = (
        "corpus.kind = single_clause\n"
        "decider.m = 8\n"
        "decider.r = 2\n"
        "decider.variant = uniform\n"
    )
    assert run_cli(tmp_path, "reduce", cfg) == 0
    assert "false_accepts=0" in (tmp_path / "decider_report.txt").read_text()


def test_cli_tradeoff_deterministic_csv(tmp_path):
    cfg = (
        "tradeoff.vars = 10\n"
        "tradeoff.m = 1,4,8\n"
        "tradeoff.trials = 2\n"
        "tradeoff.factor = 50\n"
        "seed = 11\n"
    )
    assert run_cli(tmp_path, "tradeoff", cfg) == 0
    first = (tmp_path / "tradeoff.csv").read_bytes()
    rows = first.decode().splitlines()
    assert len(rows) == 1 + 3 * 2  # header + |m grid| x |learners|
    assert run_cli(tmp_path, "tradeoff", cfg) == 0
    assert (tmp_path / "tradeoff.csv").read_bytes() == first
    summary = (tmp_path / "tradeoff_summary.txt").read_text()
    assert "step ratio" in summary and "ok" in summary


def test_cli_enumerate_and_learn_on_a_wide_instance(tmp_path):
    # a satisfiable 14-variable, 60-clause formula: its encoding is 1,090 bits
    # wide, so its decision tree is deeper than the interpreter's recursion limit
    rng = random.Random("wide")
    inst = random_instance(rng, 14, num_clauses=60)
    while not brute_force_sat(inst):
        inst = random_instance(rng, 14, num_clauses=60)
    cnf = tmp_path / "wide.cnf"
    cnf.write_text(to_dimacs(inst))
    corpus = f"corpus.kind = dimacs\ncorpus.paths = {cnf}\n"
    assert run_cli(tmp_path, "enumerate", corpus) == 0
    z, text = (tmp_path / "trees.txt").read_text().rstrip("\n").split(" ", 1)
    assert len(z) == 1090
    assert text.count("Q") > 1090  # one query per prefix bit, then the index bits
    assert run_cli(tmp_path, "learn", corpus + "learn.m = 0,4\nlearn.trials = 3\n") == 0
    assert len((tmp_path / "learn.csv").read_text().splitlines()) == 1 + 2 * 2 * 4


def test_cli_enumerate_reads_a_satlib_file(tmp_path):
    cnf = tmp_path / "satlib.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 3 0\n-1 2 0\n%\n0\n")
    assert run_cli(tmp_path, "enumerate", f"corpus.kind = dimacs\ncorpus.paths = {cnf}\n") == 0
    assert len((tmp_path / "trees.txt").read_text().splitlines()) == 1


def test_cli_seed_override_changes_output(tmp_path):
    cfg = "corpus.kind = random\ncorpus.count = 4\ndecider.m = 6\ndecider.r = 1\n"
    assert run_cli(tmp_path, "reduce", cfg, seed=1) == 0
    a = (tmp_path / "decider_report.txt").read_text()
    assert run_cli(tmp_path, "reduce", cfg, seed=2) == 0
    b = (tmp_path / "decider_report.txt").read_text()
    assert a != b
