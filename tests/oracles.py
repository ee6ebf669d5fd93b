"""Brute-force oracles and reference views the tests check certlab against.

No command needs these.  They are the slow, obviously correct versions of
what the package computes, the field-by-field formula encoding, the
NP-oracle view of its verifiers, the PAC trial loop, the single challenge
round, the writers its parsers' round trips read back, the (z, tree) class
enumerator and the reader of the tree text `enumerate` writes, and the
Python frame counter the call-count tests share.  They are kept apart from
the code they check the way perfbench/reference.py keeps the benchmark's
checks.  The two-variable formulas many test modules share are defined
here once.
"""

from __future__ import annotations

import gc
import itertools
import random
import sys
from dataclasses import dataclass

from certlab.bits import bits_of_rank, check_bits, int_to_bits, is_bits
from certlab.codes import CodeParams
from certlab.concepts import (
    CertConcept,
    CertVcReport,
    DecisionTree,
    ExampleLayout,
    Node,
    build_decision_tree,
    dt_eval,
)
from certlab.errors import (
    BudgetError,
    CertlabError,
    ConfigError,
    DataInconsistencyError,
    FormatError,
    ShapeError,
)
from certlab.paclearn import LabeledSample
from certlab.reduction import _Challenge
from certlab.sat import ThreeSatInstance, eval_assignment
from certlab.verifiers import (
    FormulaEncoding,
    StepCounter,
    ThreeSatVerifier,
    _check_budget,
)


#: Two-variable formulas over a 3-clause encoding: PHI0 is satisfiable,
#: PHI_UNSAT is not.  V2 remembers only its last instance, keyed by the
#: instance string, so sharing it changes no result.
ENC2 = FormulaEncoding(max_vars=2, max_clauses=3)
V2 = ThreeSatVerifier(ENC2)
PHI0 = ThreeSatInstance(2, [(1, 2), (-1, 2)])
PHI_UNSAT = ThreeSatInstance(2, [(1,), (-1,)])
Z0 = ENC2.encode(PHI0)
Z_UNSAT = ENC2.encode(PHI_UNSAT)


def bits_to_int(s: str) -> int:
    """The integer value of a bitstring; the empty string is 0."""
    return int(s, 2) if s else 0


def flip_positions(s: str, positions) -> str:
    """Return s, a bitstring, with exactly the given bit positions flipped."""
    out = list(s)
    for p in positions:
        if not 0 <= p < len(s):
            raise ShapeError(f"flip position {p} out of range for length {len(s)}")
        out[p] = "1" if out[p] == "0" else "0"
    return "".join(out)


VAR_MASKS: dict[tuple[int, int], int] = {}


def var_mask(p: int, j: int) -> int:
    """The assignments v in {0,1}^p whose bit (p-j) is set, that is x_j = 1,
    as a 2^p-bit mask; cached by (p, j)."""
    key = (p, j)
    cached = VAR_MASKS.get(key)
    if cached is not None:
        return cached
    # one period (2^b zeros then 2^b ones), doubled by shifts to 2^p bits;
    # a big-int division would be quadratic in the mask width
    b = p - j
    mask = ((1 << (1 << b)) - 1) << (1 << b)
    width = 1 << (b + 1)
    while width < (1 << p):
        mask |= mask << width
        width <<= 1
    VAR_MASKS[key] = mask
    return mask


def clausewise_mask(inst: ThreeSatInstance, p: int) -> int:
    """satisfying_mask computed clause by clause at the full 2^p-bit width:
    the AND over clauses of the OR of their literal masks."""
    if p < inst.num_vars:
        raise ShapeError(f"p={p} smaller than num_vars={inst.num_vars}")
    full = (1 << (1 << p)) - 1
    mask = full
    for clause in inst.clauses:
        sat = 0
        for lit in clause:
            m = var_mask(p, abs(lit))
            sat |= m if lit > 0 else (full ^ m)
        mask &= sat
        if not mask:
            break
    return mask


def solutions(inst: ThreeSatInstance) -> list[str]:
    """All satisfying assignments in lexicographic order (direct evaluation)."""
    n = inst.num_vars
    out = []
    for v in range(1 << n):
        a = format(v, f"0{n}b") if n else ""
        if eval_assignment(inst, a):
            out.append(a)
    return out


def verify(v: ThreeSatVerifier, z: str, w: str) -> bool:
    """Run the verifier's deterministic check; shape errors on bad lengths."""
    check_bits(z, length=v.n, name="instance")
    check_bits(w, length=v.p, name="certificate")
    return bool(v.check(z, w))


def naive_first_certificate(v: ThreeSatVerifier, z: str) -> str | None:
    """Reference scan in rank order; test oracle for first_certificate."""
    check_bits(z, length=v.n, name="instance")
    _check_budget(v)
    for rank in range(1, (1 << v.p) + 1):
        w = bits_of_rank(rank, v.p)
        if v.check(z, w):
            return w
    return None


def enumerate_class(verifier: ThreeSatVerifier, params: CodeParams, zs):
    """Yield (z, decision tree) for each seed instance, in the given order:
    the trees `enumerate` writes, as objects."""
    for z in zs:
        concept = CertConcept(verifier, z, params)
        yield z, build_decision_tree(concept)


class TreeHypothesis:
    __slots__ = ("tree",)

    def __init__(self, tree: DecisionTree) -> None:
        self.tree = tree

    def __call__(self, x: str) -> int:
        return dt_eval(self.tree, x)


def erm_learner(stream, sample: LabeledSample):
    """First enumerated tree with zero empirical error (enumeration order
    breaks ties); the realizable setting guarantees one exists."""
    for _z, tree in stream:
        if all(dt_eval(tree, x) == y for x, y in sample):
            return TreeHypothesis(tree)
    raise DataInconsistencyError("no enumerated concept is consistent with the sample")


def reference_junta_table(sample: LabeledSample, layout: ExampleLayout) -> tuple[int, ...]:
    """The junta learner's answers as a tuple over the 2^ell index values,
    read with a dict of the labels seen per index slice."""
    if sample:
        check_bits(sample[0][0], length=layout.example_len, name="example")
    lo, hi = layout.matched, layout.matched + layout.ell
    table: dict[int, int] = {}
    for x, y in sample:
        idx = int(x[lo:hi], 2)
        prev = table.get(idx)
        if prev is not None and prev != y:
            raise DataInconsistencyError(f"index {idx} observed with both labels")
        table[idx] = y
    return tuple(int(table.get(i, 0)) for i in range(1 << layout.ell))


def reference_junta_label(h, x: str) -> int:
    """A junta's label of one example, read per point: the word's bit at the
    example's index value when the example starts with the head, else 0."""
    i = h.layout.index(x)
    return 1 if (h.word >> i) & 1 and x.startswith(h.head) else 0


def reference_error(dist, f, h) -> float:
    """The weighted disagreement of f and h, one call of each per support
    point: the weights where int(f(x)) != int(h(x)), summed in support order
    by the builtin sum."""
    return sum(w for x, w in zip(dist.points, dist.weights) if int(f(x)) != int(h(x)))


def reference_trial_suite(learner, concept, dist, eps, m, trials, master_seed):
    """(success_rate, mean_error, mean_steps) of the trial loop as the paper
    states it: trial t draws m points i.i.d. from the distribution with the
    generator seeded by (master_seed, t), labels each by calling the concept,
    runs the learner with a fresh counter, and scores it by `reference_error`;
    a learner that raises a CertlabError fails its trial with error 1.0."""
    errors, steps = [], 0
    for t in range(trials):
        rng = random.Random(f"{master_seed}:{t}")
        points = rng.choices(dist.points, cum_weights=dist.cum_weights, k=m)
        sample = LabeledSample((x, int(concept(x))) for x in points)
        counter = StepCounter()
        try:
            h = learner(sample, counter=counter)
        except CertlabError:
            errors.append(1.0)
        else:
            errors.append(reference_error(dist, concept, h))
        steps += counter.steps
    successes = sum(err <= eps + 1e-12 for err in errors)
    return successes / trials, sum(errors) / trials, steps / trials


# -- writers whose output the parsers read back, and the tree-text reader -------


def to_dimacs(inst: ThreeSatInstance) -> str:
    lines = [f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    for clause in inst.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def serialize_config(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def parse_tree(text: str) -> DecisionTree:
    """The tree a preorder token text writes (README "Decision tree text"),
    or FormatError; every text it accepts re-serializes to itself."""
    tokens = text.split()
    pos = size = 0
    # open query nodes: [var] until the low child is read, then [var, lo]
    stack: list[list] = []
    while True:
        if pos >= len(tokens):
            raise FormatError("tree text ends prematurely")
        tok = tokens[pos]
        pos += 1
        if tok.startswith("L"):
            if tok not in ("L0", "L1"):
                raise FormatError(f"bad leaf token {tok!r}")
            node = int(tok[1])
            size += 1
        elif tok.startswith("Q"):
            var = tok[1:]
            if not (var.isascii() and var.isdigit()) or (var[0] == "0" and var != "0"):
                raise FormatError(f"bad query token {tok!r}")
            stack.append([int(var)])
            continue
        else:
            raise FormatError(f"bad token {tok!r}")
        # a finished subtree completes every open node waiting for its high child
        while stack and len(stack[-1]) == 2:
            var, lo = stack.pop()
            node = Node(var, lo, node)
        if not stack:
            break
        stack[-1].append(node)
    if pos != len(tokens):
        raise FormatError("trailing tokens after tree")
    return DecisionTree(root=node, size=size)


# -- the formula encoding, field by field --------------------------------------------


def reference_encode(enc: FormulaEncoding, inst) -> str:
    """FormulaEncoding.encode joined slot by slot; inst needs only num_vars
    and clauses, so raw clause lists encode as they are."""
    if inst.num_vars > enc.max_vars:
        raise ConfigError(f"instance has {inst.num_vars} vars, encoding allows {enc.max_vars}")
    if len(inst.clauses) > enc.max_clauses:
        raise ConfigError(
            f"instance has {len(inst.clauses)} clauses, encoding allows {enc.max_clauses}"
        )
    parts = [
        int_to_bits(inst.num_vars, enc.num_vars_bits),
        int_to_bits(len(inst.clauses), enc.clause_count_bits),
    ]
    for clause in inst.clauses:
        block = []
        for lit in clause:
            block.append("1" + ("1" if lit > 0 else "0") + int_to_bits(abs(lit) - 1, enc.var_bits))
        block.extend("0" * enc.slot_bits for _ in range(3 - len(clause)))
        parts.append("".join(block))
    parts.extend("0" * enc.clause_bits for _ in range(enc.max_clauses - len(inst.clauses)))
    return "".join(parts)


def reference_decode(enc: FormulaEncoding, bits: str) -> ThreeSatInstance:
    """FormulaEncoding.decode read field by field, checking every field as
    it goes, the variable range included."""
    if not isinstance(bits, str) or not is_bits(bits):
        raise FormatError(f"encoded formula must be a string over 0/1, got {bits!r}")
    if len(bits) != enc.width:
        raise FormatError(f"encoded formula must have {enc.width} bits, got {len(bits)}")
    pos = 0

    def take(k: int) -> str:
        nonlocal pos
        out = bits[pos : pos + k]
        pos += k
        return out

    num_vars = bits_to_int(take(enc.num_vars_bits))
    if num_vars > enc.max_vars:
        raise FormatError(f"num_vars field {num_vars} exceeds {enc.max_vars}")
    count = bits_to_int(take(enc.clause_count_bits))
    if count > enc.max_clauses:
        raise FormatError(f"clause count field {count} exceeds {enc.max_clauses}")
    clauses = []
    for b in range(enc.max_clauses):
        lits = []
        ended = False
        for _ in range(3):
            present, polarity, var_field = take(1), take(1), take(enc.var_bits)
            if present == "0":
                if polarity != "0" or bits_to_int(var_field) != 0:
                    raise FormatError("nonzero bits in an absent literal slot")
                ended = True
                continue
            if b >= count or ended:
                raise FormatError("literal slot set outside the declared clause layout")
            var = bits_to_int(var_field) + 1
            if var > num_vars:
                raise FormatError(f"literal references variable {var} > num_vars {num_vars}")
            lits.append(var if polarity == "1" else -var)
        clauses.append(tuple(lits))
    return ThreeSatInstance(num_vars, clauses[:count])


def reference_random_instance(rng: random.Random, num_vars: int, num_clauses: int) -> ThreeSatInstance:
    """sat.random_instance drawn with the same RNG calls, each clause in sample
    order and canonicalised by the checked constructor."""
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return ThreeSatInstance(num_vars, clauses)


def assert_canonical(inst: ThreeSatInstance) -> None:
    """The formula is a fixed point of the checked constructor: the same
    tuple of clause tuples, every literal a plain int."""
    again = ThreeSatInstance(inst.num_vars, inst.clauses)
    assert type(inst.num_vars) is int and type(inst.clauses) is tuple
    assert inst.clauses == again.clauses
    assert all(type(c) is tuple and all(type(lit) is int for lit in c) for c in inst.clauses)


# -- verifiers and the NP-oracle view --------------------------------------------


@dataclass
class FnVerifier:
    """Verifier backed by an arbitrary check function; its accept mask calls
    the function on every certificate in rank order, and its first accepted
    value on each until one is accepted."""

    n: int
    p: int
    fn: object

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ConfigError("certificate length p must be >= 1")

    def check(self, z: str, w: str) -> bool:
        return bool(self.fn(z, w))

    def accept_mask(self, z: str) -> int:
        mask = 0
        for v in range(1 << self.p):
            if self.check(z, format(v, f"0{self.p}b")):
                mask |= 1 << v
        return mask

    def first_accepted(self, z: str) -> int | None:
        accepted = (v for v in range(1 << self.p) if self.check(z, format(v, f"0{self.p}b")))
        return next(accepted, None)


def lex_rank(w: str) -> int:
    """1-indexed position of w in MSB-first lexicographic order of {0,1}^|w|.

    Equals the integer value of w plus one.
    """
    check_bits(w, name="w")
    return bits_to_int(w) + 1


@dataclass(frozen=True)
class LexQuery:
    """A (instance, rank threshold) query against Lex of a verifier."""

    instance: str
    k: int


def lex_verify(v, query: LexQuery, w: str) -> bool:
    """Accept iff the certificate is within the first k strings and accepted."""
    if not 1 <= query.k <= (1 << v.p):
        raise ShapeError(f"rank threshold {query.k} out of [1, 2^{v.p}]")
    check_bits(query.instance, length=v.n, name="instance")
    check_bits(w, length=v.p, name="certificate")
    return lex_rank(w) <= query.k and verify(v, query.instance, w)


def lex_oracle(v, z: str, k: int, *, counter: StepCounter | None = None) -> bool:
    """Accept iff some certificate of rank <= k is accepted.

    Checks the certificates in rank order with early exit; the counter
    records one oracle call plus the number of candidates checked.  This is
    the scan whose cost first_certificate charges without running it.
    """
    check_bits(z, length=v.n, name="instance")
    if not 1 <= k <= (1 << v.p):
        raise ShapeError(f"rank threshold {k} out of [1, 2^{v.p}]")
    _check_budget(v)
    if counter is not None:
        counter.oracle_calls += 1
    for rank in range(1, k + 1):
        if counter is not None:
            counter.steps += 1
        if v.check(z, bits_of_rank(rank, v.p)):
            return True
    return False


def nondet_oracle(v, z: str) -> bool:
    """Deterministic 2^p simulation of the nondeterministic oracle."""
    return lex_oracle(v, z, 1 << v.p)


# -- dimension and mistake-bound oracles ---------------------------------------------


def is_shattered(points, concepts, *, budget: int = 10_000_000) -> bool:
    """True iff every labeling of the points is realized by some concept."""
    pts = list(points)
    if (1 << len(pts)) * max(1, len(concepts)) > budget:
        raise BudgetError(f"shattering check for {len(pts)} points exceeds budget")
    if not pts:
        return True
    realized = {tuple(int(c(x)) for x in pts) for c in concepts}
    return len(realized) == 1 << len(pts)


def vc_dimension(concepts, domain, *, max_dim: int = 4, budget: int = 10_000_000) -> int:
    """Exact VC dimension of the concepts over the given finite domain.

    Brute force over all subsets of each size; sizes above max_dim raise
    a budget error rather than run forever.
    """
    pts = list(domain)
    concepts = list(concepts)
    dim = 0
    for d in range(1, min(len(pts), max_dim + 1) + 1):
        cost = 1
        for i in range(d):
            cost = cost * (len(pts) - i) // (i + 1)
        if cost * (1 << d) * max(1, len(concepts)) > budget:
            raise BudgetError(f"VC search at size {d} exceeds budget")
        found = False
        for subset in itertools.combinations(pts, d):
            if is_shattered(subset, concepts, budget=budget):
                found = True
                break
        if not found:
            return dim
        dim = d
        if d == max_dim + 1:
            raise BudgetError(f"VC dimension exceeds max_dim={max_dim}")
    return dim


def reference_cert_class_vc(concepts: list[CertConcept]) -> CertVcReport:
    """cert_class_vc by the literal pair walk: candidates are the concepts'
    own one_points(), and every pair of them is tested until one is
    shattered.  Exact in the standard layout; in the uniform layout a
    point's mask lists only the concepts whose z is its trailing part, so it
    can undercount there."""
    full = (1 << len(concepts)) - 1
    point_mask: dict[str, int] = {}
    for ci, concept in enumerate(concepts):
        for x in concept.one_points():
            point_mask[x] = point_mask.get(x, 0) | (1 << ci)
    singleton = next((x for x, mask in point_mask.items() if mask != full), None)
    pairs_checked = 0
    shattered = False
    for a, b in itertools.combinations(point_mask, 2):
        pairs_checked += 1
        ma, mb = point_mask[a], point_mask[b]
        if not ma & mb:
            continue  # labeling (1,1) unrealizable
        if not ma & ~mb & full:
            continue  # labeling (1,0) unrealizable
        if not mb & ~ma & full:
            continue  # labeling (0,1) unrealizable
        if (ma | mb) == full:
            continue  # labeling (0,0) unrealizable
        shattered = True
        break
    return CertVcReport(
        dimension=2 if shattered else 1 if singleton is not None else 0,
        shattered_singleton=singleton,
        candidate_points=len(point_mask),
        pairs_checked=pairs_checked,
    )


def reference_ldim(concepts, domain, depth: int = 3) -> int:
    """min(Ldim, depth) by minimax over concept indices, each concept called
    once per domain point, with a hand-written memo of (version space,
    depth): the search `ldim_oracle` makes over distinct label vectors."""
    domain = list(domain)
    labels = [tuple(int(c(x)) for x in domain) for c in concepts]
    memo: dict[tuple, int] = {}

    def value(vs: frozenset[int], depth: int) -> int:
        if depth == 0 or len(vs) <= 1:
            return 0
        key = (vs, depth)
        if key not in memo:
            out = 0
            for xi in range(len(domain)):
                v0 = frozenset(ci for ci in vs if labels[ci][xi] == 0)
                v1 = vs - v0
                if v0 and v1:
                    out = max(out, 1 + min(value(v0, depth - 1), value(v1, depth - 1)))
            memo[key] = out
        return memo[key]

    return value(frozenset(range(len(labels))), depth)


def exhaustive_adversary_max_mistakes(
    make_learner, concepts, domain, max_rounds: int
) -> int:
    """Most mistakes any consistent adversary can extract within max_rounds.

    Full game-tree search over (point, label) moves; the adversary must keep
    the version space nonempty.  Memoized on (learner state, version space,
    rounds left), so the learner must expose fork() and state_key().
    """
    concepts = list(concepts)
    domain = list(domain)
    labels = [tuple(int(c(x)) for x in domain) for c in concepts]
    memo: dict[tuple, int] = {}

    def best(learner, vs: frozenset[int], rounds_left: int) -> int:
        if rounds_left == 0 or not vs:
            return 0
        key = (learner.state_key(), vs, rounds_left)
        cached = memo.get(key)
        if cached is not None:
            return cached
        out = 0
        for xi, x in enumerate(domain):
            for label in (0, 1):
                nvs = frozenset(ci for ci in vs if labels[ci][xi] == label)
                if not nvs:
                    continue
                child = learner.fork()
                pred = child.predict(x)
                child.observe(x, label)
                got = (1 if pred != label else 0) + best(child, nvs, rounds_left - 1)
                if got > out:
                    out = got
        memo[key] = out
        return out

    return best(make_learner(), frozenset(range(len(concepts))), max_rounds)


# -- one challenge round -------------------------------------------------------------


@dataclass
class AmTranscript:
    """One round's record: y is the hypothesis's answer at each index value,
    w_tilde the decoded certificate; a round whose learner raised has both
    empty and is failed."""

    seed: str
    indices: tuple[str, ...]
    merlin_labels: str
    y: str
    w_tilde: str
    verdict: int
    failed: bool = False

    def digest(self) -> str:
        wt = f"0x{int(self.w_tilde, 2):x}" if self.w_tilde else "-"
        return (
            f"seed={self.seed} idx={','.join(self.indices)} "
            f"labels={self.merlin_labels or '-'} wtilde={wt} verdict={self.verdict}"
        )


class HonestMerlin:
    """Answers with the true concept labels (computed via the first certificate)."""


@dataclass(frozen=True)
class FixedProofMerlin:
    """Answers with a fixed m-bit label string, one bit per requested example."""

    labels: str


def am_round(
    z: str,
    verifier,
    learner,
    merlin,
    params: CodeParams,
    rng: random.Random,
    m: int,
    *,
    variant: str = "standard",
    seed_label: str = "",
) -> AmTranscript:
    """One protocol round: draw m challenge examples in the variant's layout,
    ask Merlin for labels, run the learner, read a codeword off the
    hypothesis, decode, verify.  The standard round reads the codeword at z;
    the uniform round reads it at one uniformly random trailing x."""
    challenge = _Challenge(z, verifier, learner, params, variant)
    points, read_at = challenge.layout.draw(rng, z, m)

    if isinstance(merlin, HonestMerlin):
        concept = CertConcept(verifier, z, params, kind=variant)
        labels = "".join(str(concept(x)) for x in points)
    elif isinstance(merlin, FixedProofMerlin):
        if len(merlin.labels) != m:
            raise ConfigError(f"fixed proof must have {m} labels")
        labels = merlin.labels
    else:
        raise ConfigError("am_round requires an honest or fixed-proof Merlin")

    sample = LabeledSample(tuple(zip(points, [int(b) for b in labels])))
    proof = challenge.run((sample,), read_at)[2]
    lay = challenge.layout
    indices = tuple(int_to_bits(lay.index(x), lay.ell) for x in points)
    if proof is None:
        return AmTranscript(seed_label, indices, labels, "", "", 0, failed=True)
    y = format(proof.answers, f"0{1 << lay.ell}b")[::-1]
    w_tilde = format(proof.w_val, f"0{verifier.p}b")
    return AmTranscript(seed_label, indices, labels, y, w_tilde, proof.verdict)


def python_calls(fn, *args, code=None) -> int:
    """The Python frames entered while fn(*args) runs, fn's own included, or
    only those running the given code object.  The collector is held off: a
    collection set off inside fn would run other objects' Python finalizers
    there and count their frames."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and code in (None, frame.f_code)

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls
