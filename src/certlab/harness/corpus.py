"""Formula corpora and their verifiers, built from config."""

from __future__ import annotations

import random
from collections import namedtuple

from ..errors import ConfigError
from ..sat import ThreeSatInstance, exhaustive_formulas, parse_dimacs, random_instance
from ..verifiers import FormulaEncoding, ThreeSatVerifier
from .config import INT, NAMES, STR, read_text_file


#: A corpus's instances, an iterator of ThreeSatInstance read once, and the
#: verifier they are encoded for.
Corpus = namedtuple("Corpus", "instances verifier")


def exhaustive_two_var_corpus() -> Corpus:
    """All formulas with up to 3 distinct clauses over 2 variables (93 of them)."""
    return Corpus(iter(exhaustive_formulas(2, 3)), ThreeSatVerifier(FormulaEncoding(max_vars=2, max_clauses=3)))


def single_clause_corpus() -> Corpus:
    """Tiny corpus (2 variables, at most one clause): small enough that the
    whole example domain is exhaustively enumerable."""
    return Corpus(iter(exhaustive_formulas(2, 1)), ThreeSatVerifier(FormulaEncoding(max_vars=2, max_clauses=1)))


def random_corpus(seed: int | str, count: int, vars_min: int = 3, vars_max: int = 4) -> Corpus:
    """Seeded random formulas, each drawn from one RNG stream as it is read:
    its variable count v, then its v width-3 clauses.  They rule out at most
    v*2^(v-3) of the 2^v assignments, which proves satisfiability for v <= 7 only."""
    if not 3 <= vars_min <= vars_max:
        raise ConfigError("random corpus needs 3 <= vars_min <= vars_max")
    if count < 1:
        raise ConfigError(f"random corpus needs count >= 1, got {count}")
    rng = random.Random(f"corpus:{seed}")
    sizes = (rng.randint(vars_min, vars_max) for _ in range(count))
    instances = (random_instance(rng, v, num_clauses=v) for v in sizes)
    return Corpus(instances, ThreeSatVerifier(FormulaEncoding(max_vars=vars_max, max_clauses=vars_max)))


def dimacs_corpus(paths: list[str]) -> Corpus:
    instances = [parse_dimacs(read_text_file(path, "DIMACS file")) for path in paths]
    if not instances:
        raise ConfigError("DIMACS corpus needs at least one file")
    max_vars = max(inst.num_vars for inst in instances)
    max_clauses = max(len(inst.clauses) for inst in instances)
    encoding = FormulaEncoding(max_vars=max(1, max_vars), max_clauses=max(1, max_clauses))
    return Corpus(iter(instances), ThreeSatVerifier(encoding))


#: The corpus keys, key -> (kind, default); `corpus.paths` has no default.
CORPUS_KEYS = {
    "corpus.kind": (STR, "exhaustive2var"),
    "corpus.count": (INT, 200),
    "corpus.vars_min": (INT, 3),
    "corpus.vars_max": (INT, 4),
    "corpus.paths": (NAMES, None),
}


def build_corpus(cfg: dict, seed: int | str) -> Corpus:
    kind = cfg["corpus.kind"]
    if kind == "exhaustive2var":
        return exhaustive_two_var_corpus()
    if kind == "single_clause":
        return single_clause_corpus()
    if kind == "random":
        return random_corpus(seed, cfg["corpus.count"], cfg["corpus.vars_min"], cfg["corpus.vars_max"])
    if kind == "dimacs":
        if cfg["corpus.paths"] is None:
            raise ConfigError("missing config key 'corpus.paths'")
        return dimacs_corpus(cfg["corpus.paths"])
    raise ConfigError(f"unknown corpus.kind {kind!r}")


def forcing_formula(num_vars: int = 16, forced: int = 8, extra: int = 4) -> ThreeSatInstance:
    """Formula whose lexicographically first satisfying assignment has high
    rank: unit clauses force the leading variables to 1, then a few wide
    clauses over the remaining variables keep it nontrivial (and satisfiable:
    the all-ones assignment always works)."""
    clauses = [(v,) for v in range(1, forced + 1)]
    rng = random.Random("forcing")
    free = range(forced + 1, num_vars + 1)
    pool = list(free) if len(free) >= 3 else list(range(1, num_vars + 1))
    width = min(3, len(pool))
    for _ in range(extra):
        vs = rng.sample(pool, width)
        signs = [rng.random() < 0.5 for _ in vs]
        clause = tuple(v if s else -v for v, s in zip(vs, signs))
        # keep the all-ones assignment satisfying
        if all(l < 0 for l in clause):
            clause = (abs(clause[0]),) + clause[1:]
        clauses.append(clause)
    return ThreeSatInstance(num_vars, clauses)
