"""Certificate-indexed concept classes, decision trees, and the VC- and
Littlestone-dimension oracles `vcdim` reports.

An example is the first `matched` bits of an instance, an ell-bit index,
then the instance's other bits.  The standard layout matches all n bits of
z, so its examples are (z, i); the uniform layout matches none, puts the
index first and ignores the trailing bits.  An example is useful when its
matched bits equal z's.  Index bits are read MSB-first; value+1 is a
1-indexed position into the codeword, positions beyond c*p are padding and
always labeled 0.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import namedtuple

from .bits import int_to_bits, random_bits
from .codes import CodeParams, get_code
from .errors import BudgetError, ConfigError, ShapeError
from .verifiers import StepCounter, ThreeSatVerifier, first_certificate


#: The two example layouts: "standard" is z then index, "uniform" is index
#: then x, where x is ignored.
LAYOUT_KINDS = ("standard", "uniform")


def check_layout_kind(kind: str) -> str:
    if kind not in LAYOUT_KINDS:
        raise ConfigError(f"unknown variant {kind!r} (choose from {', '.join(LAYOUT_KINDS)})")
    return kind


class ExampleLayout(namedtuple("ExampleLayout", "n cp ell matched")):
    """Shape of the example domain for one (verifier, code) pair: n instance
    bits, cp codeword positions, ell index bits, and the leading instance
    bits a useful example shares with z, `matched` (n or 0)."""

    __slots__ = ()

    @classmethod
    def of(cls, n: int, params: CodeParams, p: int, kind: str = "standard") -> "ExampleLayout":
        cp = params.c * p
        matched = n if check_layout_kind(kind) == "standard" else 0
        return cls(n, cp, (cp - 1).bit_length(), matched)

    @property
    def example_len(self) -> int:
        return self.n + self.ell

    def example(self, part: str, value: int) -> str:
        """The example with index value `value` whose other bits are part's."""
        return part[: self.matched] + int_to_bits(value, self.ell) + part[self.matched :]

    def index(self, x: str) -> int:
        """The example's index value; x's bits were checked where it entered."""
        if len(x) != self.example_len:
            raise ShapeError(f"example must have length {self.example_len}, got {len(x)}")
        return int(x[self.matched : self.matched + self.ell], 2)

    def draw(self, rng: random.Random, z: str, m: int) -> tuple[list[str], str]:
        """m uniform challenge points for the instance z, and the part the
        codeword is read at: z's matched bits, then the rest drawn after the
        points (z itself in the standard layout, a fresh x in the uniform)."""
        head = z[: self.matched]
        points = [head + random_bits(rng, self.example_len - self.matched) for _ in range(m)]
        return points, head + random_bits(rng, self.n - self.matched)


class JuntaHypothesis:
    """Depends only on the index value, gated by a head: bit v of word is the
    answer at index value v for an example that starts with head, and every
    other example is labeled 0.  The head is at most the layout's matched
    bits, so the index bits decide nothing about it; a learned junta has
    none."""

    __slots__ = ("word", "layout", "head")

    def __init__(self, word: int, layout: ExampleLayout, head: str = "") -> None:
        if not 0 <= word < 1 << (1 << layout.ell):
            raise ShapeError(f"junta word must fit in {1 << layout.ell} bits, got {word}")
        self.word = word
        self.layout = layout
        self.head = head

    def __call__(self, x: str) -> int:
        return self.labels((x,))[0]

    def labels(self, points) -> list[int]:
        """The 0/1 label of each point in the sequence, in order; a point of
        the wrong length raises `ExampleLayout.index`'s ShapeError."""
        lay = self.layout
        n = lay.example_len
        for x in points:
            if len(x) != n:
                lay.index(x)  # raises its ShapeError
        lo, hi = lay.matched, lay.matched + lay.ell
        word, head = self.word, self.head
        return [(word >> int(x[lo:hi], 2)) & 1 if x.startswith(head) else 0 for x in points]


class CertConcept(JuntaHypothesis):
    """Reveals one bit of the encoded first certificate per useful example;
    constant 0 when the instance has no accepted certificate.

    Its word is that codeword and its head is z's matched bits: in the
    standard layout the useful examples are those whose prefix is z; in the
    uniform layout every example is useful and its trailing bits are
    ignored, so the concept is a junta on the leading index bits."""

    def __init__(
        self,
        verifier: ThreeSatVerifier,
        z: str,
        params: CodeParams,
        *,
        kind: str = "standard",
        counter: StepCounter | None = None,
    ) -> None:
        layout = ExampleLayout.of(verifier.n, params, verifier.p, kind)
        code = get_code(params, verifier.p)  # a p outside the codes' range ends before any mask
        self.z = z
        self.first_cert = first_certificate(verifier, z, counter=counter)
        word = 0 if self.first_cert is None else code.encode_value(int(self.first_cert, 2))
        super().__init__(word, layout, z[: layout.matched])

    @property
    def sparsity(self) -> int:
        return self.word.bit_count()

    def one_points(self) -> list[str]:
        """All examples labeled 1, in index order (at most c*p of them); in
        the uniform layout, the ones whose trailing part is z."""
        lay = self.layout
        return [lay.example(self.z, i) for i in range(lay.cp) if (self.word >> i) & 1]


# -- decision trees ------------------------------------------------------------


class Node:
    __slots__ = ("var", "lo", "hi")

    def __init__(self, var: int, lo, hi) -> None:
        self.var = var
        self.lo = lo
        self.hi = hi


#: Binary decision tree; leaves are 0/1 ints, size is the leaf count.
DecisionTree = namedtuple("DecisionTree", "root size")


def dt_eval(tree: DecisionTree, x: str) -> int:
    node = tree.root
    while not isinstance(node, int):
        if node.var >= len(x):
            raise ShapeError(f"tree queries bit {node.var}, example has {len(x)}")
        node = node.hi if x[node.var] == "1" else node.lo
    return node


def build_decision_tree(concept: CertConcept) -> DecisionTree:
    """Exact tree for a concept: match the layout's matched bits against z
    with early-exit 0, then fully query the index bits.  Constant-0 when the
    instance has no certificate."""
    if concept.first_cert is None:
        return DecisionTree(root=0, size=1)
    lay = concept.layout
    k = lay.matched

    def index_subtree(depth: int, value: int):
        if depth == lay.ell:
            return (concept.word >> value) & 1
        lo = index_subtree(depth + 1, value << 1)
        hi = index_subtree(depth + 1, (value << 1) | 1)
        return Node(k + depth, lo, hi)

    cur = index_subtree(0, 0)
    for i in reversed(range(k)):
        cur = Node(i, 0, cur) if concept.z[i] == "1" else Node(i, cur, 0)
    return DecisionTree(root=cur, size=k + (1 << lay.ell))


def serialize_tree(tree: DecisionTree) -> str:
    """Preorder token list: Q<var> for internal nodes, L<bit> for leaves."""
    out: list[str] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, int):
            out.append(f"L{node}")
        else:
            out.append(f"Q{node.var}")
            stack.append(node.hi)
            stack.append(node.lo)
    return " ".join(out)


# -- dimension oracles ----------------------------------------------------------


CertVcReport = namedtuple("CertVcReport", "dimension shattered_singleton candidate_points pairs_checked")


def cert_class_vc(concepts: list[CertConcept]) -> CertVcReport:
    """Exact VC dimension of a CertConcept class over its full example
    domain, in either layout; 2 means "at least 2" (larger sets are not
    searched).

    A concept labels an example 1 exactly when the example starts with the
    concept's head and the word's bit at its index value is set.  So every
    concept labels alike all examples with the same head and index value: in
    the standard layout that is the one example (z, i), in the uniform layout
    every trailing part.  A candidate point is one such (head, i) that some
    concept labels 1; a point no concept labels 1 sits in no shattered set.
    Only concepts with the point's head label it 1, so the class is read one
    head at a time, as the head's distinct words: each of the head's points
    gets the mask of the words whose bit is set there, and the table goes
    once the head is done.  With two or more heads no mask nor OR of two is
    full.  Points with one mask cannot take the labels (1, 0), nor points
    with two heads (1, 1), so testing each pair of distinct masks within one
    head decides all `pairs_checked` candidate pairs (in the uniform layout
    every head is "").  The singleton is the first candidate, in head, word
    and index order, with a mask that is not full, as one of its examples: in
    either layout that is concept then index order.
    """
    heads: dict[str, dict[int, CertConcept]] = {}  # head -> word -> its first concept
    for concept in concepts:
        heads.setdefault(concept.head, {}).setdefault(concept.word, concept)
    k, shattered, singleton = 0, False, None
    for words in heads.values():
        points: dict[int, list] = {}  # index value -> [mask, first concept]
        for wi, concept in enumerate(words.values()):
            for i, bit in enumerate(f"{concept.word:b}"[::-1]):
                if bit == "1":
                    points.setdefault(i, [0, concept])[0] |= 1 << wi
        full = (1 << len(words)) - 1 if len(heads) == 1 else -1  # -1: never a mask
        singleton = singleton or next(
            (c.layout.example(c.z, i) for i, (mask, c) in points.items() if mask != full), None
        )
        k += len(points)
        # the labelings (1,1), (1,0), (0,1) and (0,0) are each realized
        shattered = shattered or any(
            ma & mb and ma & ~mb and mb & ~ma and ma | mb != full
            for ma, mb in itertools.combinations({mask for mask, _ in points.values()}, 2)
        )
    return CertVcReport(
        dimension=2 if shattered else 1 if singleton is not None else 0,
        shattered_singleton=singleton,
        candidate_points=k,
        pairs_checked=k * (k - 1) // 2,
    )


#: Largest domain ldim_oracle accepts, and the depth it searches to.
LDIM_MAX_DOMAIN = 16
LDIM_DEPTH = 3


def ldim_oracle(concepts, domain) -> int:
    """Optimal mistake bound via minimax game-tree search.

    Returns min(Ldim, LDIM_DEPTH): the adversary presents a point on which the
    surviving version space splits, the learner predicts optimally, and a
    mistake is forced on the branch the adversary keeps.  Exact whenever the
    result is below LDIM_DEPTH.  A version space is a set of the class's
    distinct label vectors on the domain: concepts that label it alike never
    split.  A junta labels the domain in one call, any other concept is
    called once per point.
    """
    domain = list(domain)
    if len(domain) > LDIM_MAX_DOMAIN:
        raise BudgetError(
            f"ldim search over {len(domain)} points at depth {LDIM_DEPTH} exceeds budget"
        )
    rows = frozenset(
        tuple(c.labels(domain)) if isinstance(c, JuntaHypothesis) else tuple(int(c(x)) for x in domain)
        for c in concepts
    )

    @functools.cache
    def value(vs: frozenset[tuple], depth: int) -> int:
        if depth == 0 or len(vs) <= 1:
            return 0
        out = 0
        for xi in range(len(domain)):
            v0 = frozenset(row for row in vs if row[xi] == 0)
            v1 = vs - v0
            if v0 and v1:
                out = max(out, 1 + min(value(v0, depth - 1), value(v1, depth - 1)))
        return out

    return value(rows, LDIM_DEPTH)


def distinct_concept_count(concepts: list[CertConcept]) -> int:
    """Number of distinct functions on one layout: a concept is its head and
    word, and every concept with word 0 (no certificate, or the all-zero
    one) is the one constant-0 function."""
    return len({(c.head, c.word) if c.word else 0 for c in concepts})
