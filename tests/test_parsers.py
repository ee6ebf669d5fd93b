"""The three text parsers raise nothing but FormatError, whatever the text,
and read back what the matching writer wrote."""

from hypothesis import given, settings, strategies as st

from certlab.concepts import DecisionTree, Node, serialize_tree
from certlab.errors import FormatError
from certlab.harness.config import parse_config
from certlab.sat import ThreeSatInstance, parse_dimacs
from oracles import parse_tree, serialize_config, to_dimacs

SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\r", "\x0c", " ", ""]


def near(tokens):
    """Arbitrary text, or the format's own tokens (and a few arbitrary
    characters) joined by whitespace and line breaks."""
    token = st.one_of(st.sampled_from(tokens), st.text(max_size=3))
    joined = st.lists(st.tuples(token, st.sampled_from(SEPARATORS)), max_size=30).map(
        lambda pairs: "".join(tok + sep for tok, sep in pairs)
    )
    return st.one_of(st.text(), joined)


def parsed(parse, text):
    """parse(text), or None on FormatError; any other exception propagates
    and fails the calling test."""
    try:
        return parse(text)
    except FormatError:
        return None


DIMACS_TOKENS = [
    "p", "cnf", "p cnf", "c", "%", "0", "-0", "1", "-1", "2", "-2", "3", "+3", "-4",
    "17", "00", "1e3", "0x1", "٣", "p cnf 3 2", "p cnf 0 0", "p cnf -1 0",
]
CONFIG_TOKENS = ["=", "==", "#", "seed", "a.b", " = ", "1", "1/8", "é", "\x1c", "\x85"]
TREE_TOKENS = [
    "Q0", "Q1", "Q7", "Q17", "Q03", "Q-1", "Q+3", "Q١", "Q", "L0", "L1", "L2", "L", "L01",
]


@settings(max_examples=500, deadline=None)
@given(near(DIMACS_TOKENS))
def test_parse_dimacs_raises_only_format_error_and_reparses_its_output(text):
    inst = parsed(parse_dimacs, text)
    if inst is not None:
        assert parse_dimacs(to_dimacs(inst)) == inst


@settings(max_examples=500, deadline=None)
@given(near(CONFIG_TOKENS))
def test_parse_config_raises_only_format_error_and_reparses_its_output(text):
    cfg = parsed(parse_config, text)
    if cfg is not None:
        assert parse_config(serialize_config(cfg)) == cfg


@settings(max_examples=500, deadline=None)
@given(near(TREE_TOKENS))
def test_parse_tree_raises_only_format_error_and_reparses_its_output(text):
    tree = parsed(parse_tree, text)
    if tree is not None:
        again = parse_tree(serialize_tree(tree))
        assert (serialize_tree(again), again.size) == (serialize_tree(tree), tree.size)


@st.composite
def instances(draw):
    num_vars = draw(st.integers(0, 8))
    literal = st.integers(1, max(num_vars, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, max_size=3 if num_vars else 0)
    return ThreeSatInstance(num_vars, draw(st.lists(clause, max_size=8)))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_dimacs_round_trips_every_instance(inst):
    assert parse_dimacs(to_dimacs(inst)) == inst


# no line breaks (control characters include most of them), and no "#" or,
# in a key, "="
LINE_CHARS = {"exclude_categories": ("Cc", "Cs", "Zl", "Zp")}
KEY = st.text(st.characters(exclude_characters="=#", **LINE_CHARS), min_size=1)
VALUE = st.text(st.characters(exclude_characters="#", **LINE_CHARS))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(KEY.map(str.strip).filter(bool), VALUE.map(str.strip), max_size=8))
def test_config_round_trips_every_mapping(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def leaf_count(node) -> int:
    return 1 if isinstance(node, int) else leaf_count(node.lo) + leaf_count(node.hi)


TREES = st.recursive(
    st.sampled_from([0, 1]),
    lambda child: st.builds(Node, st.integers(0, 40), child, child),
    max_leaves=24,
).map(lambda root: DecisionTree(root, leaf_count(root)))


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_tree_text_round_trips_every_tree(tree):
    text = serialize_tree(tree)
    again = parse_tree(text)
    assert (serialize_tree(again), again.size) == (text, tree.size)
