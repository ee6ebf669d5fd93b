import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from certlab.bits import int_to_bits, random_bits
from certlab.codes import DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS, get_code
from certlab.concepts import (
    LAYOUT_KINDS,
    CertConcept,
    DecisionTree,
    ExampleLayout,
    Node,
    build_decision_tree,
    cert_class_vc,
    distinct_concept_count,
    dt_eval,
    serialize_tree,
)
from certlab.errors import BudgetError, FormatError, ShapeError
from certlab.harness.corpus import exhaustive_two_var_corpus, random_corpus, single_clause_corpus
from certlab.sat import ThreeSatInstance, exhaustive_formulas
from certlab.verifiers import FormulaEncoding, ThreeSatVerifier
from oracles import (
    ENC2,
    PHI0,
    PHI_UNSAT,
    V2,
    Z0,
    Z_UNSAT,
    enumerate_class,
    is_shattered,
    parse_tree,
    reference_cert_class_vc,
    vc_dimension,
)

# small corpus: 2 vars, at most one clause, so n + ell = 16 bits total
ENC_SMALL = FormulaEncoding(max_vars=2, max_clauses=1)
V_SMALL = ThreeSatVerifier(ENC_SMALL)


def concept0() -> CertConcept:
    return CertConcept(V2, Z0, DEFAULT_CODE_PARAMS)


def test_layout_shapes():
    lay = ExampleLayout.of(10, DEFAULT_CODE_PARAMS, 2, "standard")
    assert (lay.cp, lay.ell, lay.example_len) == (16, 4, 14)
    x = "0" * 10 + "1010"
    assert lay.index(x) == 0b1010
    assert lay.example("0" * 10, lay.index(x)) == x
    ulay = ExampleLayout.of(10, DEFAULT_CODE_PARAMS, 2, "uniform")
    ux = "1010" + "0" * 10
    assert ulay.index(ux) == 0b1010
    assert ulay.example("0" * 10, ulay.index(ux)) == ux
    for layout in (lay, ulay):
        with pytest.raises(ShapeError, match="example must have length 14"):
            layout.index("0" * 13)


def test_eval_cert_unsat_is_constant_zero():
    c = CertConcept(V2, Z_UNSAT, DEFAULT_CODE_PARAMS)
    assert c.first_cert is None and c.sparsity == 0
    rng = random.Random(0)
    for _ in range(50):
        x = int_to_bits(rng.getrandbits(c.layout.example_len), c.layout.example_len)
        assert c(x) == 0


def test_eval_cert_prefix_mismatch_is_zero():
    c = concept0()
    other = ("1" if Z0[0] == "0" else "0") + Z0[1:]
    for v in range(16):
        assert c(other + int_to_bits(v, 4)) == 0


def test_eval_cert_useful_examples_reveal_codeword_bits():
    c = concept0()
    assert c.first_cert == "01"
    cw = get_code(DEFAULT_CODE_PARAMS, 2).encode_value(0b01)
    for v in range(16):
        assert c(Z0 + int_to_bits(v, 4)) == (cw >> v) & 1


def test_eval_cert_shape_error():
    with pytest.raises(ShapeError):
        concept0()("01")


def test_sparsity_bounded_by_cp():
    for inst in exhaustive_formulas(2, 2):
        c = CertConcept(V2, ENC2.encode(inst), DEFAULT_CODE_PARAMS)
        assert c.sparsity <= c.layout.cp
        assert len(c.one_points()) == c.sparsity


@pytest.mark.parametrize("params", [DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS])
def test_concept_word_is_the_encoded_first_certificate(params):
    corpus = exhaustive_two_var_corpus()
    for inst in corpus.instances:
        c = CertConcept(corpus.verifier, corpus.verifier.encoding.encode(inst), params)
        if c.first_cert is None:
            assert c.word == 0
            continue
        assert c.word == get_code(params, corpus.verifier.p).encode_value(int(c.first_cert, 2))


def test_build_tree_unsat_single_leaf():
    tree = build_decision_tree(CertConcept(V2, Z_UNSAT, DEFAULT_CODE_PARAMS))
    assert tree.size == 1
    assert dt_eval(tree, "0" * (V2.n + 4)) == 0


def test_tree_agrees_with_eval_exhaustively_small_corpus():
    for inst in exhaustive_formulas(2, 1):
        z = ENC_SMALL.encode(inst)
        c = CertConcept(V_SMALL, z, DEFAULT_CODE_PARAMS)
        tree = build_decision_tree(c)
        total = c.layout.example_len
        assert total == 16
        for v in range(1 << total):
            x = int_to_bits(v, total)
            assert dt_eval(tree, x) == c(x)
        assert tree.size <= c.layout.n + 2 * c.layout.cp


@pytest.mark.parametrize("kind", LAYOUT_KINDS)
def test_tree_agrees_with_concept_on_every_index_in_both_layouts(kind):
    rng = random.Random(kind)
    for params in (DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS):
        for inst in exhaustive_formulas(2, 1):
            z = ENC_SMALL.encode(inst)
            c = CertConcept(V_SMALL, z, params, kind=kind)
            tree = build_decision_tree(c)
            lay = c.layout
            for v in range(1 << lay.ell):
                # z itself, and another part: the uniform concept ignores it,
                # the standard one labels it 0
                for part in (z, random_bits(rng, lay.n)):
                    x = lay.example(part, v)
                    assert dt_eval(tree, x) == c(x), (inst, v, part)


def test_tree_size_bound():
    c = concept0()
    tree = build_decision_tree(c)
    assert tree.size == c.layout.n + (1 << c.layout.ell)
    assert tree.size <= c.layout.n + 2 * c.layout.cp


def test_dt_eval_dictator_and_errors():
    dictator = DecisionTree(Node(0, 0, 1), 2)
    assert dt_eval(dictator, "10") == 1
    assert dt_eval(dictator, "01") == 0
    with pytest.raises(ShapeError):
        dt_eval(DecisionTree(Node(5, 0, 1), 2), "01")


def test_tree_serialization_round_trip():
    for inst in (PHI0, PHI_UNSAT, ThreeSatInstance(2, [])):
        tree = build_decision_tree(CertConcept(V2, ENC2.encode(inst), DEFAULT_CODE_PARAMS))
        text = serialize_tree(tree)
        again = parse_tree(text)
        assert serialize_tree(again) == text
        assert again.size == tree.size
    assert serialize_tree(parse_tree("Q0 L0 L1")) == "Q0 L0 L1"
    for bad, message in (
        ("Q0 L0", "tree text ends prematurely"),
        ("L2", "bad leaf token 'L2'"),
        ("Q0 L0 L1 L0", "trailing tokens after tree"),
        ("X1", "bad token 'X1'"),
        ("", "tree text ends prematurely"),
        ("Q0 Q1 L0 L1 Lx", "bad leaf token 'Lx'"),
        ("Qx L0 L1", "bad query token 'Qx'"),
        ("Q-5 L0 L1", "bad query token 'Q-5'"),
        ("Q+3 L0 L1", "bad query token 'Q+3'"),
        ("Q03 L0 L1", "bad query token 'Q03'"),
        ("Q L0 L1", "bad query token 'Q'"),
        ("Q\u0663 L0 L1", "bad query token 'Q\u0663'"),
    ):
        with pytest.raises(FormatError) as info:
            parse_tree(bad)
        assert str(info.value) == message


def test_deep_tree_round_trips():
    # a chain far deeper than the interpreter's recursion limit
    depth = 5000
    text = " ".join(f"Q{i} L0" for i in range(depth)) + " L1"
    tree = parse_tree(text)
    assert tree.size == depth + 1
    assert serialize_tree(tree) == text
    assert dt_eval(tree, "1" * depth) == 1
    assert dt_eval(tree, "1" * (depth - 1) + "0") == 0
    with pytest.raises(FormatError, match="ends prematurely"):
        parse_tree("Q0 " * depth)


# -- chain evaluation against a node-by-node walk ------------------------------

LEAVES = st.sampled_from(["L0", "L1"])
MAX_VAR = 12


@st.composite
def tree_texts(draw, depth=0):
    """(preorder tokens, [(start, on-path bits)] of its chains): leaves,
    single queries with any var (gaps and repeats), chains over mostly
    consecutive vars in both orientations whose off-path leaves sometimes
    disagree, and full subtrees over consecutive vars."""
    kind = draw(st.sampled_from(["leaf", "node", "chain", "chain", "full"])) if depth < 4 else "leaf"
    if kind == "leaf":
        return [draw(LEAVES)], []
    if kind == "node":
        lo, lo_chains = draw(tree_texts(depth + 1))
        hi, hi_chains = draw(tree_texts(depth + 1))
        return [f"Q{draw(st.integers(0, MAX_VAR))}", *lo, *hi], lo_chains + hi_chains
    start = draw(st.integers(0, MAX_VAR))
    if kind == "full":
        span = draw(st.integers(1, 3))

        def full(var):
            if var == start + span:
                return [draw(LEAVES)]
            return [f"Q{var}", *full(var + 1), *full(var + 1)]

        return full(start), []
    miss = draw(LEAVES)
    steps = draw(st.lists(
        st.tuples(st.sampled_from("01"), st.sampled_from([1, 1, 1, 1, 0, 2]),
                  st.sampled_from([miss] * 3 + ["L0", "L1"])),
        min_size=1, max_size=7,
    ))
    var, nodes = start, []
    for bit, gap, off in steps:
        nodes.append((var, bit, off))
        var += gap
    tokens, chains = draw(tree_texts(depth + 1))
    for var, bit, off in reversed(nodes):  # from the deepest chain node up
        tokens = [f"Q{var}", off, *tokens] if bit == "1" else [f"Q{var}", *tokens, off]
    return tokens, chains + [(start, "".join(bit for _, bit, _ in nodes))]


def walk(tree, x):
    """dt_eval written as one step per node."""
    node = tree.root
    while not isinstance(node, int):
        if node.var >= len(x):
            raise ShapeError(f"tree queries bit {node.var}, example has {len(x)}")
        node = node.hi if x[node.var] == "1" else node.lo
    return node


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


# trees built for concepts, whose matched z prefix is a run, in both layouts
CONCEPT_TREES = [
    (c.z, c.layout.ell, build_decision_tree(c))
    for kind in LAYOUT_KINDS
    for inst in (PHI0, ThreeSatInstance(2, [(1,)]), ThreeSatInstance(2, [(-2,)]), ThreeSatInstance(2, []))
    for c in [CertConcept(V2, ENC2.encode(inst), DEFAULT_CODE_PARAMS, kind=kind)]
]


@st.composite
def concept_cases(draw):
    """(concept tree, string): z whole, with one bit flipped, with one
    character replaced by 2 or \u00e9, or cut short inside the prefix, then
    random index bits."""
    z, ell, tree = draw(st.sampled_from(CONCEPT_TREES))
    at = draw(st.integers(0, len(z) - 1))
    how = draw(st.sampled_from(["whole", "flip", "char", "cut"]))
    if how == "flip":
        z = z[:at] + "10"[int(z[at])] + z[at + 1:]
    elif how == "char":
        z = z[:at] + draw(st.sampled_from("2\u00e9")) + z[at + 1:]
    elif how == "cut":
        z = z[:at]
    return tree, z + draw(st.text(alphabet="01", min_size=ell, max_size=ell))


@settings(max_examples=400, deadline=None)
@given(tree_texts(), st.lists(st.tuples(
    st.text(alphabet="0101012 \u00e9", max_size=MAX_VAR + 12),
    st.integers(0, 20),
    st.one_of(st.none(), st.integers(0, 8)),
), max_size=12), st.lists(concept_cases(), max_size=12), st.data())
def test_dt_eval_matches_a_node_walk(tree, strings, concept_strings, data):
    tokens, chains = tree
    text = " ".join(tokens)
    parsed = parse_tree(text)
    assert serialize_tree(parsed) == text
    assert parsed.size == sum(tok.startswith("L") for tok in tokens)
    for base, which, flip in strings:
        x = base
        if flip is not None and chains:
            # copy a chain's on-path bits into x, so that a whole run matches,
            # or all of it but the bit at flip
            start, pattern = chains[which % len(chains)]
            if flip < len(pattern):
                pattern = pattern[:flip] + "10"[int(pattern[flip])] + pattern[flip + 1:]
            x = x.ljust(start, "0")[:start] + pattern + x[start + len(pattern):]
            x = x[: data.draw(st.integers(0, len(x) + 2))]
        assert outcome(dt_eval, parsed, x) == outcome(walk, parsed, x), (text, x)
    for built, x in concept_strings:
        assert outcome(dt_eval, built, x) == outcome(walk, built, x), x


def test_enumerate_class_matches_eval():
    insts = exhaustive_formulas(2, 1)
    zs = [ENC_SMALL.encode(f) for f in insts]
    pairs = list(enumerate_class(V_SMALL, DEFAULT_CODE_PARAMS, zs))
    assert len(pairs) == len(zs)
    rng = random.Random(4)
    for z, tree in pairs:
        c = CertConcept(V_SMALL, z, DEFAULT_CODE_PARAMS)
        for _ in range(200):
            x = int_to_bits(rng.getrandbits(16), 16)
            assert dt_eval(tree, x) == c(x)


def test_enumerate_class_unsat_seed_list_all_constant():
    zs = [ENC2.encode(f) for f in exhaustive_formulas(2, 3)
          if CertConcept(V2, ENC2.encode(f), DEFAULT_CODE_PARAMS).first_cert is None]
    assert zs
    for _z, tree in enumerate_class(V2, DEFAULT_CODE_PARAMS, zs):
        assert tree.size == 1


def test_unifcert_is_a_junta():
    # 10^3 randomized trailing-bit trials per concept
    rng = random.Random(8)
    cw = get_code(DEFAULT_CODE_PARAMS, 2).encode_value(0b01)
    for z, expected in ((Z0, cw), (Z_UNSAT, 0)):
        c = CertConcept(V2, z, DEFAULT_CODE_PARAMS, kind="uniform")
        lay = c.layout
        for _ in range(1000):
            v = rng.randrange(1 << lay.ell)
            i = int_to_bits(v, lay.ell)
            tail = int_to_bits(rng.getrandbits(lay.n), lay.n)
            want = (expected >> v) & 1
            assert c(i + tail) == want


@settings(max_examples=50)
@given(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1), st.integers(0, 15))
def test_unifcert_ignores_trailing_bits(a, b, idx):
    c = CertConcept(V2, Z0, DEFAULT_CODE_PARAMS, kind="uniform")
    i = int_to_bits(idx, c.layout.ell)
    xa = int_to_bits(a % (1 << c.layout.n), c.layout.n)
    xb = int_to_bits(b % (1 << c.layout.n), c.layout.n)
    assert c(i + xa) == c(i + xb)


# -- dimension oracles ---------------------------------------------------------


def test_is_shattered_examples():
    c = concept0()
    one = c.one_points()[0]
    concepts = [CertConcept(V2, ENC2.encode(f), DEFAULT_CODE_PARAMS)
                for f in (PHI0, PHI_UNSAT)]
    assert is_shattered([one], concepts)
    assert is_shattered([], concepts)
    pts = c.one_points()[:2]
    assert not is_shattered(pts, concepts)


def test_vc_dimension_constant_class():
    concepts = [lambda x: 0, lambda x: 1]
    domain = ["00", "01", "10"]
    assert vc_dimension(concepts, domain) == 1


def test_vc_dimension_full_shattering():
    domain = ["00", "01", "10", "11"]
    concepts = []
    for bits in itertools.product((0, 1), repeat=4):
        concepts.append(lambda x, b=bits, d=tuple(domain): b[d.index(x)])
    assert vc_dimension(concepts, domain, max_dim=4) == 4


def test_vc_dimension_budget_error():
    with pytest.raises(BudgetError):
        vc_dimension([lambda x: 0], [int_to_bits(v, 20) for v in range(3000)], budget=100)


def test_cert_class_vc_on_two_var_corpus():
    concepts = [CertConcept(V2, ENC2.encode(f), DEFAULT_CODE_PARAMS)
                for f in exhaustive_formulas(2, 2)]
    report = cert_class_vc(concepts)
    assert report.dimension == 1
    assert report.shattered_singleton is not None
    # Fact: VC <= log2(|class|)
    import math

    assert report.dimension <= math.log2(distinct_concept_count(concepts))


@pytest.mark.parametrize(
    "corpus, expected",
    [(exhaustive_two_var_corpus(), 46), (random_corpus(0, 200), 66)],
    ids=["exhaustive2var", "random200"],
)
def test_distinct_concept_count_counts_functions(corpus, expected):
    """Concepts are equal functions exactly when their 1-sets are equal, so
    an all-zero certificate's concept is the unsatisfiable one's."""
    concepts = [CertConcept(corpus.verifier, corpus.verifier.encoding.encode(f), DEFAULT_CODE_PARAMS)
                for f in corpus.instances]
    independent = len({frozenset(c.one_points()) for c in concepts})
    assert distinct_concept_count(concepts) == independent == expected


def test_cert_class_vc_all_unsat_is_zero():
    unsat_zs = [ENC2.encode(f) for f in exhaustive_formulas(2, 3)
                if CertConcept(V2, ENC2.encode(f), DEFAULT_CODE_PARAMS).first_cert is None]
    concepts = [CertConcept(V2, z, DEFAULT_CODE_PARAMS) for z in unsat_zs]
    report = cert_class_vc(concepts)
    assert report.dimension == 0
    assert report.shattered_singleton is None


def test_cert_class_vc_matches_naive_oracle_on_small_domain():
    insts = exhaustive_formulas(2, 1)
    concepts = [CertConcept(V_SMALL, ENC_SMALL.encode(f), DEFAULT_CODE_PARAMS) for f in insts]
    report = cert_class_vc(concepts)
    # naive oracle over the candidate points plus some never-1 points
    domain = sorted({x for c in concepts for x in c.one_points()})
    domain += [int_to_bits(v, 16) for v in (0, 1, 2**15)]
    naive = vc_dimension(concepts, sorted(set(domain)), max_dim=2, budget=50_000_000)
    assert report.dimension == naive == 1


VC_CORPORA = {
    "exhaustive2var": exhaustive_two_var_corpus,
    "single_clause": single_clause_corpus,
    **{f"random{s}-200": lambda s=s: random_corpus(s, 200) for s in range(3)},
    **{f"random{s}-60-vars3to8": lambda s=s: random_corpus(s, 60, 3, 8) for s in range(3)},
}


@pytest.mark.parametrize("params", [DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS], ids=["c8", "c4"])
@pytest.mark.parametrize("name", sorted(VC_CORPORA))
def test_cert_class_vc_matches_pair_walk(name, params):
    """Testing each pair of distinct masks reports what the walk over every
    pair of candidate points does, field for field."""
    corpus = VC_CORPORA[name]()
    concepts = [CertConcept(corpus.verifier, corpus.verifier.encoding.encode(f), params)
                for f in corpus.instances]
    assert cert_class_vc(concepts) == reference_cert_class_vc(concepts)


@pytest.mark.parametrize("kind", LAYOUT_KINDS)
@pytest.mark.parametrize("params", [DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS], ids=["c8", "c4"])
@pytest.mark.parametrize("name", sorted(VC_CORPORA))
def test_cert_class_vc_is_blind_to_duplicate_concepts(name, params, kind):
    """A class is a set: listing every concept twice changes no field."""
    corpus = VC_CORPORA[name]()
    concepts = [CertConcept(corpus.verifier, corpus.verifier.encoding.encode(f), params, kind=kind)
                for f in corpus.instances]
    assert cert_class_vc(concepts + concepts) == cert_class_vc(concepts)


@functools.cache
def standard_concepts(name: str) -> list[CertConcept]:
    corpus = VC_CORPORA[name]()
    return [CertConcept(corpus.verifier, corpus.verifier.encoding.encode(f), DEFAULT_CODE_PARAMS)
            for f in corpus.instances]


def structural_vc(concepts) -> int:
    """In the standard layout two examples with different heads are never
    both labelled 1, and the examples of one head take at most two label
    patterns, so no pair is shattered; a singleton is exactly when some
    concept labels an example 1 and another distinct concept exists."""
    return int(any(c.word for c in concepts) and distinct_concept_count(concepts) >= 2)


@pytest.mark.parametrize("name", sorted(VC_CORPORA))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_standard_vc_is_the_structural_value(name, data):
    """On whole corpora, and on small subclasses with duplicates, which reach
    the 0 cases: no concept, only zero words, or one nonzero function."""
    whole = standard_concepts(name)
    assert cert_class_vc(whole).dimension == structural_vc(whole) == 1
    concepts = data.draw(st.lists(st.sampled_from(whole), max_size=4))
    concepts += data.draw(st.lists(st.sampled_from(concepts), max_size=2)) if concepts else []
    assert cert_class_vc(concepts).dimension == structural_vc(concepts)


@pytest.mark.parametrize(
    "corpus, expected",
    [(exhaustive_two_var_corpus(), 2), (single_clause_corpus(), 1), (random_corpus(0, 12), 2)],
    ids=["exhaustive2var", "single_clause", "random12"],
)
def test_cert_class_vc_is_exact_in_the_uniform_layout(corpus, expected):
    """Uniform-layout labels ignore the trailing part, so brute force over
    the 2^ell examples of one trailing part gives the class's dimension."""
    concepts = [CertConcept(corpus.verifier, corpus.verifier.encoding.encode(f), DEFAULT_CODE_PARAMS,
                            kind="uniform") for f in corpus.instances]
    lay = concepts[0].layout
    domain = [lay.example("0" * lay.n, v) for v in range(1 << lay.ell)]
    report = cert_class_vc(concepts)
    assert report.dimension == vc_dimension(concepts, domain) == expected
    assert len({c(report.shattered_singleton) for c in concepts}) == 2


def test_restricted_class_vc_via_generic_oracle():
    # spec example: satisfiable seed list -> 1 over a small probe domain
    concepts = [CertConcept(V2, ENC2.encode(f), DEFAULT_CODE_PARAMS)
                for f in (PHI0, PHI_UNSAT, ThreeSatInstance(2, [(1,)]))]
    domain = [x for c in concepts for x in c.one_points()[:3]]
    assert vc_dimension(concepts, domain, max_dim=3) == 1
