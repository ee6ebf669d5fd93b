"""The benchmark in perfbench/ reaches into certlab by module and attribute
name.  These checks fail when a change to certlab moves or renames something
the benchmark uses, instead of leaving a traced layer silently absent or a
workload unable to start.  They read perfbench/ and never edit it."""

import hashlib
import importlib
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_entry_point_resolves(perfbench_modules):
    spans = perfbench_modules("spans")
    assert spans.LAYER_ENTRY_POINTS
    for _name, module_name, path in spans.LAYER_ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module_name}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner)


def test_workloads_import_cleanly(perfbench_modules):
    workloads = perfbench_modules("workloads")
    assert callable(workloads.make_sparse_erm)
    assert issubclass(workloads.Decide, workloads.Workload)


def test_perfbench_selftest_passes():
    """The benchmark's reference checks still agree with brute force."""
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_learners_are_looked_up_when_made(monkeypatch):
    """A traced run replaces `sparse_erm` and `few_sample_learner` where the
    harness module holds them; the learners it hands out must be those."""
    from certlab.codes import DEFAULT_CODE_PARAMS
    from certlab.harness import commands
    from certlab.harness.corpus import exhaustive_two_var_corpus

    calls = []

    def traced_sparse_erm(sample, counter=None):
        calls.append(("sparse_erm", sample, counter))

    def traced_few_sample(sample, verifier, params, *, counter=None):
        calls.append(("few_sample", sample, verifier, params, counter))

    monkeypatch.setattr(commands, "sparse_erm", traced_sparse_erm)
    monkeypatch.setattr(commands, "few_sample_learner", traced_few_sample)
    verifier = exhaustive_two_var_corpus().verifier
    assert commands.make_sparse_erm() is traced_sparse_erm
    assert commands.resolve_learner("sparse_erm", verifier, DEFAULT_CODE_PARAMS) is traced_sparse_erm
    learner = commands.resolve_learner("few_sample", verifier, DEFAULT_CODE_PARAMS)
    learner("sample", counter="counter")
    assert calls == [("few_sample", "sample", verifier, DEFAULT_CODE_PARAMS, "counter")]


def test_commands_are_looked_up_when_run(monkeypatch, tmp_path):
    """A traced run replaces `cmd_tradeoff` where the harness module holds it
    (the `harness.cmd_tradeoff` span); the CLI must run that one."""
    from certlab.harness import commands
    from certlab.harness.cli import main

    ran = []
    monkeypatch.setattr(commands, "cmd_tradeoff", lambda cfg, out_dir, seed: ran.append(seed) or 0)
    assert main(["tradeoff", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert ran == [3]


def test_a_decide_round_keeps_its_counts(perfbench_modules, monkeypatch, tmp_path):
    """One `decide` round at seed 0, in-process: its proofs, learner calls,
    decodes, accepts and accepting digests, as recorded before the decider's
    proofs ran in one loop."""
    from certlab import codes

    workloads = perfbench_modules("workloads")
    calls = {"learner": 0, "decode": 0}

    def counting(learner):
        def counted(sample, counter=None):
            calls["learner"] += 1
            return learner(sample, counter=counter)

        return counted

    decode_value = codes.LinearCode.decode_value

    def counted_decode(code, word):
        calls["decode"] += 1
        return decode_value(code, word)

    monkeypatch.setattr(codes.LinearCode, "decode_value", counted_decode)
    decide = workloads.Decide(0, tmp_path, learner_wrap=counting)
    proofs = accepts = 0
    digests = hashlib.sha256()
    for inp in decide.round_inputs(0):
        result = decide.run(inp).result
        proofs += result.proofs_run
        accepts += result.accept
        for rec in result.repetitions:
            if rec.accept:
                digests.update(rec.digest.encode() + b"\n")
    assert (proofs, calls["learner"], calls["decode"], accepts) == (112716, 112716, 112716, 59)
    assert digests.hexdigest() == "f03f580a24325ce7ef64e2d8cbf54bfaff1ef37edd7247d65549a63d9318dea6"
