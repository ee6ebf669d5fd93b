"""src/ holds only what a command runs: every function defined there is
reached by one of the six commands, is a name the benchmark calls, or is on
the allowlist below with its reason.  Code only tests need lives under
tests/ (oracles.py holds the brute-force and reference views,
online_learners.py the online learners)."""

import ast
import importlib
import sys
from pathlib import Path

import certlab
from certlab import codes, sat
from certlab.harness.cli import build_parser, main
from certlab.harness.corpus import forcing_formula
from oracles import to_dimacs

SRC = Path(certlab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: src/'s size at the seed, in lines; src/ stays below it.
SRC_LINE_LIMIT = 2990

#: Functions no command runs that stay in src/, by qualified name (a class
#: name covers its methods), each with its reason.  Empty: a function only
#: tests run goes beside them.
ALLOWLIST: dict[str, str] = {}
#: Methods Python calls on a class's behalf, whatever the commands do.
EXEMPT = {"__repr__", "__eq__", "__hash__"}

COMMANDS = [
    ("enumerate", ""),
    ("vcdim", ""),
    # length 9 has two high parts, so its decodes build the information
    # sets; the length-16 search certifies its attempts with the lane walk
    ("codes-test", "code.c = 4\ncode.eps_star = 1/8\ncodes.lengths = 4,9,16\ncodes.samples = 20\n"),
    ("learn", "corpus.kind = single_clause\nlearn.m = 0,6\nlearn.trials = 3\n"),
    ("tradeoff", "tradeoff.vars = 4\ntradeoff.m = 1,8\ntradeoff.trials = 2\ntradeoff.factor = 1\n"),
    ("reduce", "corpus.kind = random\ncorpus.count = 4\ndecider.m = 4\ndecider.r = 2\n"),
    ("reduce", "corpus.kind = random\ncorpus.count = 4\ndecider.m = 4\ndecider.variant = uniform"),
    ("reduce", "corpus.kind = dimacs\ncorpus.paths = {cnf}\ndecider.m = 4\ndecider.r = 2\n"),
]


def defined_functions():
    """(file, first line) -> qualified name of every function in src/; the
    first line is a decorator's when there is one, as in the code object."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = f"{prefix}.{child.name}"
                    walk(child, f"{prefix}.{child.name}.<locals>")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}.{child.name}")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(encoding="utf-8")), module)
    return out


def code_key(fn):
    code = fn.__code__
    return (str(Path(code.co_filename).resolve()), code.co_firstlineno)


def perfbench_functions(perfbench_modules):
    """Code keys of the functions perfbench wraps in spans or imports."""
    names = [(module, attr) for _, module, attr in perfbench_modules("spans").LAYER_ENTRY_POINTS]
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("certlab"):
            names.extend((node.module, alias.name) for alias in node.names)
    keys = set()
    for module, attr in names:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        if hasattr(obj, "__code__"):
            keys.add(code_key(obj))
    return keys


def reached_by_commands(tmp_path):
    cnf = tmp_path / "force.cnf"
    cnf.write_text(to_dimacs(forcing_formula(5, 2, 2)))
    reached = set()
    resolved = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = resolved.get(code.co_filename)
            if path is None:
                path = resolved[code.co_filename] = str(Path(code.co_filename).resolve())
            reached.add((path, code.co_firstlineno))

    for i, (command, cfg) in enumerate(COMMANDS):
        cfg_path = tmp_path / f"cfg{i}.txt"
        cfg_path.write_text(cfg.format(cnf=cnf))
        argv = ["--config", str(cfg_path), "--out", str(tmp_path / f"out{i}"), "--seed", "1"]
        sys.setprofile(profile)
        try:
            code = main([command, *argv])
        finally:
            sys.setprofile(None)
        assert code == 0, (command, cfg)
    return reached


def under(name: str, entry: str) -> bool:
    return name == entry or name.startswith(entry + ".")


def allowed(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in EXEMPT or any(under(name, e) for e in ALLOWLIST)


def test_every_function_in_src_is_run_by_a_command_or_allowed(
    tmp_path, perfbench_modules, monkeypatch
):
    # start from empty module caches, so the commands build what they use
    monkeypatch.setattr(codes, "_CODE_CACHE", {})
    monkeypatch.setattr(sat, "_LIT_MASKS", {})
    build_parser.cache_clear()
    defined = defined_functions()
    covered = reached_by_commands(tmp_path) | perfbench_functions(perfbench_modules)
    unrun = [name for key, name in defined.items() if key not in covered]
    unreached = sorted(name for name in unrun if not allowed(name))
    assert unreached == [], "functions no command runs; move them beside the tests that use them"
    # every allowlist entry still names a function that no command reaches
    for entry in ALLOWLIST:
        assert any(under(name, entry) for name in unrun), entry


def test_src_stays_below_the_seed_line_count():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py"))
    assert lines < SRC_LINE_LIMIT, f"src/ has {lines} lines; keep it below {SRC_LINE_LIMIT}"
