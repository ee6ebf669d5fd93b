"""End-to-end CLI runs: one table of rows and one runner.

Each row is data only.  The runner starts `python -m certlab.harness.cli`
in a fresh directory that holds the row's files, with `PYTHONPATH` set to
`src/` alone and a 1 GiB address-space cap.  pytest puts `tests/` on the
path too, which would hide a `src/` module that imports from `tests/`; a
child that sees only `src/` fails on such an import.  The cap makes a run
that builds a 2^40-bit mask fail fast instead of exhausting the machine.

A new end-to-end check is one more row.
"""

import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from certlab.harness.commands import COMMANDS

SRC = Path(__file__).resolve().parents[1] / "src"

#: The reduction preset, which `reduce` uses by default.
REDUCTION_CODE = "code.c = 4\ncode.eps_star = 1/8\n"
V40_CNF = "p cnf 40 1\n1 0\n"
BUDGET_40 = "certificate length 40 exceeds enumeration budget of 24 bits"


@dataclass(frozen=True)
class Run:
    """`certlab <argv>` run in a directory that holds `files` (a None text
    makes a directory) and, when `config` is given, `run.cfg`, passed as
    `--config run.cfg`.  The run must end within `timeout` seconds with exit
    code `exit`, nothing on stdout, and on stderr nothing for exit 0, else
    the one line `stderr`.  `lines`, when given, is (output file, its line
    count)."""

    name: str
    argv: str
    config: str | None = None
    files: dict = field(default_factory=dict)
    exit: int = 0
    stderr: str = ""
    lines: tuple[str, int] | None = None
    timeout: float = 60


def budget_runs(command):
    """A corpus past the enumeration budget ends before any accept mask is
    built: at p = 40 one mask is 2^40 bits, far past the cap."""
    return [
        Run(
            f"{command}-budget-random",
            command,
            config="corpus.kind = random\ncorpus.count = 3\ncorpus.vars_max = 40\n",
            exit=2,
            stderr=f"configuration error: {BUDGET_40}",
            timeout=30,
        ),
        Run(
            f"{command}-budget-dimacs",
            command,
            config="corpus.kind = dimacs\ncorpus.paths = v40.cnf\n",
            files={"v40.cnf": V40_CNF},
            exit=2,
            stderr=f"configuration error: {BUDGET_40}",
            timeout=30,
        ),
    ]


RUNS = [
    Run("codes-test", "codes-test"),
    Run("codes-test-exhaustive", "codes-test", config="codes.lengths = 4,6\ncodes.exhaustive_limit = 1000000\n"),
    # m=16, where a decode beyond the radius walks up to 256 high parts
    Run("codes-test-16", "codes-test", config="codes.lengths = 16\ncodes.samples = 200\n"),
    # several high parts under both presets, at the default 2,000 samples:
    # words within the radius decode from an information set
    Run("codes-test-long", "codes-test", config="codes.lengths = 9,12,16\n"),
    Run("codes-test-long-reduction", "codes-test", config="codes.lengths = 9,12,16\n" + REDUCTION_CODE),
    # the shortest lengths, where flipping bits 0..radius beyond the
    # certified radius changes the largest share of the codeword
    Run("codes-test-short", "codes-test", config="codes.lengths = 2,3\n"),
    Run("codes-test-short-reduction", "codes-test", config="codes.lengths = 2,3\n" + REDUCTION_CODE),
    Run("tradeoff", "tradeoff"),
    # the m=0 draw and the smallest supports
    Run("tradeoff-small", "tradeoff", config="tradeoff.vars = 4\ntradeoff.m = 0,1,47\ntradeoff.factor = 1\n"),
    Run("learn-small-m", "learn", config="learn.m = 0,1\n"),
    # a blank name in the learner list is skipped, as in the integer lists
    Run(
        "learn-trailing-comma",
        "learn",
        config="corpus.kind = single_clause\nlearn.trials = 20\nlearn.learners = sparse_erm,\n",
    ),
    Run("learn", "learn", config="corpus.kind = single_clause\nlearn.trials = 20\n"),
    Run("learn-default", "learn"),
    Run("enumerate", "enumerate"),
    # 3,000 random formulas over 3..12 variables: one tree line for each
    Run(
        "enumerate-random",
        "enumerate",
        config="corpus.kind = random\ncorpus.count = 3000\ncorpus.vars_min = 3\ncorpus.vars_max = 12\n",
        lines=("trees.txt", 3000),
    ),
    # 500 formulas over 3..16 variables: p = 16 is the widest encoding a
    # command accepts (codes.MAX_MESSAGE_LEN), with a 4-bit variable field
    Run(
        "enumerate-16",
        "enumerate",
        config="corpus.kind = random\ncorpus.count = 500\ncorpus.vars_min = 3\ncorpus.vars_max = 16\n",
        lines=("trees.txt", 500),
    ),
    Run("vcdim", "vcdim"),
    # 20,427 candidate points: a walk over their 208,620,951 pairs takes
    # about a minute on two cores, testing their pairs of masks a second
    Run("vcdim-5000", "vcdim", config="corpus.kind = random\ncorpus.count = 5000\n", timeout=20),
    # 31,405 candidate points; each mask is as wide as its head's concepts
    Run("vcdim-8000", "vcdim", config="corpus.kind = random\ncorpus.count = 8000\n", timeout=20),
    # 2,000 formulas over 3..8 variables: up to 64 positions per word
    Run("vcdim-vars8", "vcdim", config="corpus.kind = random\ncorpus.count = 2000\ncorpus.vars_max = 8\n", timeout=20),
    Run("reduce", "reduce", config="corpus.kind = random\ncorpus.count = 4\ndecider.m = 6\n"),
    Run(
        "reduce-uniform",
        "reduce",
        config="corpus.kind = random\ncorpus.count = 4\ndecider.m = 6\ndecider.variant = uniform\n",
    ),
    # the CLI contract: a bad input ends at once with exit 2 and one stderr line.
    # Brute force over 40 variables would walk 2^40 assignments, so the
    # verifier checks the budget when it is made, before any formula
    Run(
        "reduce-wide",
        "reduce",
        config="corpus.kind = dimacs\ncorpus.paths = wide.cnf\n",
        files={"wide.cnf": V40_CNF},
        exit=2,
        stderr=f"configuration error: {BUDGET_40}",
        timeout=30,
    ),
    # a contract no linear code meets ends before the search: at m=2, c=8
    # distance 2*floor(9/20 * 16)+1 = 15 exceeds the Plotkin bound 16*2/3
    Run(
        "codes-test-contract-unmet",
        "codes-test",
        config="codes.lengths = 2\ncode.eps_star = 9/20\n",
        exit=2,
        stderr="configuration error: distance 15 needed at length 2 exceeds the Plotkin bound 10 "
        "of a [16, 2] linear code",
    ),
    # ... and at the longest lengths, where the whole capped search is 400 attempts
    Run(
        "codes-test-contract-unmet-long",
        "codes-test",
        config="codes.lengths = 14,16\ncode.eps_star = 9/20\n",
        exit=2,
        stderr="configuration error: distance 101 needed at length 14 exceeds the Plotkin bound 56 "
        "of a [112, 14] linear code",
        timeout=10,
    ),
    # ... and within the Plotkin bound, past the Griesmer bound: distance 63
    # at m=16 needs length 63+32+16+8+4+2+1+9 = 135 > 128
    Run(
        "codes-test-contract-past-griesmer",
        "codes-test",
        config="codes.lengths = 16\ncode.eps_star = 31/128\n",
        exit=2,
        stderr="configuration error: distance 63 needed at length 16 needs codeword length 135 "
        "by the Griesmer bound, above 128",
    ),
    # an output file that is a directory
    Run(
        "codes-test-unwritable",
        "codes-test --out unwritable",
        files={"unwritable/radius_report.txt": None},
        exit=2,
        stderr="configuration error: output file cannot be written: unwritable/radius_report.txt (Is a directory)",
    ),
    # a command-line argument that does not parse
    Run(
        "bad-seed",
        "tradeoff --seed x",
        exit=2,
        stderr="configuration error: argument --seed: invalid int value: 'x'",
    ),
    # an option before the command is named, not its value
    Run(
        "misplaced-seed",
        "--seed 1 tradeoff",
        exit=2,
        stderr="configuration error: option --seed must follow the command (certlab COMMAND --seed VALUE)",
    ),
    # a learner list with no name in it
    Run(
        "learn-no-learners",
        "learn",
        config="learn.learners =\n",
        exit=2,
        stderr="configuration error: config key 'learn.learners' must list at least one name",
    ),
    # a negative sample size, also after a budget that has run
    Run(
        "learn-negative-m",
        "learn",
        config="learn.m = 0,-1\n",
        exit=2,
        stderr="configuration error: sample size must be nonnegative",
    ),
    # past the codes' lengths: the 2^24-bit accept mask is never built
    Run(
        "tradeoff-wide",
        "tradeoff",
        config="tradeoff.vars = 24\n",
        exit=2,
        stderr="configuration error: message length 24 unsupported (supported: 2..16)",
        timeout=30,
    ),
    # p = 24 is within the budget but past the codes' lengths: each concept
    # gets its code first, so no 2^24-bit accept mask is built
    Run(
        "enumerate-wide",
        "enumerate",
        config="corpus.kind = random\ncorpus.vars_min = 24\ncorpus.vars_max = 24\n",
        exit=2,
        stderr="configuration error: message length 24 unsupported (supported: 2..16)",
        timeout=30,
    ),
    Run(
        "tradeoff-negative-m",
        "tradeoff",
        config="tradeoff.m = -1\n",
        exit=2,
        stderr="configuration error: sample size must be nonnegative",
    ),
    # a config saved with a UTF-8 byte order mark keeps its first key
    Run(
        "bom",
        "vcdim",
        config="\ufeffcorpus.kind = bogus\n",
        exit=2,
        stderr="configuration error: unknown corpus.kind 'bogus'",
    ),
    # a path list with no path in it is named by its key
    Run(
        "no-paths",
        "enumerate",
        config="corpus.kind = dimacs\ncorpus.paths = ,\n",
        exit=2,
        stderr="configuration error: config key 'corpus.paths' must list at least one name",
    ),
    # a key the command does not take, a typo or another command's, is named
    Run(
        "reduce-typo",
        "reduce",
        config="decider.mm = 4\n",
        exit=2,
        stderr="configuration error: unknown config key 'decider.mm' for reduce",
    ),
    Run(
        "vcdim-foreign",
        "vcdim",
        config="tradeoff.vars = 4\n",
        exit=2,
        stderr="configuration error: unknown config key 'tradeoff.vars' for vcdim",
    ),
    *budget_runs("enumerate"),
    *budget_runs("vcdim"),
    *budget_runs("learn"),
]


def run_child(args, cwd, timeout):
    """`python <args>` in cwd, with only src/ importable and the address
    space capped at 1 GiB."""
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # noqa: E731
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        preexec_fn=cap,
    )


@pytest.mark.parametrize("row", RUNS, ids=[row.name for row in RUNS])
def test_cli_run(tmp_path, row):
    for name, text in row.files.items():
        path = tmp_path / name
        if text is None:
            path.mkdir(parents=True)
        else:
            path.write_text(text, encoding="utf-8")
    argv = row.argv.split()
    if row.config is not None:
        (tmp_path / "run.cfg").write_text(row.config, encoding="utf-8")
        argv += ["--config", "run.cfg"]
    done = run_child(["-m", "certlab.harness.cli", *argv], tmp_path, row.timeout)
    stderr = f"{row.stderr}\n" if row.exit else ""
    assert (done.returncode, done.stdout, done.stderr) == (row.exit, "", stderr)
    if row.lines is not None:
        name, count = row.lines
        assert (tmp_path / name).read_bytes().count(b"\n") == count


def test_every_command_has_an_exit_0_row():
    commands = {row.argv.split()[0] for row in RUNS if row.exit == 0}
    assert commands == set(COMMANDS)


def test_a_run_cannot_import_a_module_of_tests(tmp_path):
    done = run_child(["-c", "import oracles"], tmp_path, 30)
    assert done.returncode != 0
    assert "ModuleNotFoundError: No module named 'oracles'" in done.stderr


def test_certlab_loads_only_stdlib_modules_and_none_of_the_costly_ones(tmp_path):
    """Every certlab module, imported in a child without site packages,
    loads only certlab and standard-library modules, and not `dataclasses`,
    `inspect` or `typing`, which cost most of a start-up."""
    names = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for path in (SRC / "certlab").rglob("*.py")
    )
    code = "import sys\nfor name in sys.argv[1:]: __import__(name)\nprint(*sorted(sys.modules))"
    done = run_child(["-S", "-c", code, *names], tmp_path, 30)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "certlab.harness.cli" in names and loaded >= set(names)
    allowed = sys.stdlib_module_names | {"certlab", "__main__"}
    assert sorted(name for name in loaded if name.split(".")[0] not in allowed) == []
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing"})
