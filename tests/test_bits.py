import pytest
from hypothesis import given, settings, strategies as st

from certlab import bits, verifiers
from certlab.bits import (
    bits_of_rank,
    check_bits,
    int_to_bits,
    is_bits,
    random_bits,
)
from certlab.codes import DEFAULT_CODE_PARAMS, decode, get_code
from certlab.errors import ShapeError
from certlab.harness import commands
from certlab.harness.config import read_config
from certlab.sat import ThreeSatInstance
from certlab.verifiers import FormulaEncoding, ThreeSatVerifier, first_certificate
from oracles import bits_to_int, flip_positions, lex_rank


def test_lex_rank_examples():
    assert lex_rank("00") == 1
    assert lex_rank("01") == 2
    assert lex_rank("11") == 4


def test_lex_rank_is_bijection_up_to_12_bits():
    for p in (1, 4, 12):
        ranks = {lex_rank(int_to_bits(v, p)) for v in range(1 << p)}
        assert ranks == set(range(1, (1 << p) + 1))


def test_bits_of_rank_inverts_lex_rank():
    for p in (1, 3, 6):
        for v in range(1 << p):
            w = int_to_bits(v, p)
            assert bits_of_rank(lex_rank(w), p) == w
    with pytest.raises(ShapeError):
        bits_of_rank(0, 3)
    with pytest.raises(ShapeError):
        bits_of_rank(9, 3)


def test_check_bits_rejects_junk():
    with pytest.raises(ShapeError):
        check_bits("012")
    with pytest.raises(ShapeError):
        check_bits("01", length=3)
    assert check_bits("0101", length=4) == "0101"


NEAR_BITS = "01\u0660\uff11 _\t\n"  # Arabic-Indic zero, fullwidth one, blanks, underscore


@settings(max_examples=300)
@given(st.one_of(st.text(), st.text(alphabet="01"), st.text(alphabet=NEAR_BITS)))
def test_check_bits_accepts_exactly_strings_over_0_and_1(s):
    if set(s) <= {"0", "1"}:
        assert check_bits(s) is s
        assert check_bits(s, length=len(s), name="x") is s
    else:
        with pytest.raises(ShapeError) as err:
            check_bits(s, name="x")
        assert str(err.value) == f"x must be a string over 0/1, got {s!r}"


@settings(max_examples=300)
@given(
    st.one_of(
        st.text(alphabet=NEAR_BITS),
        st.text(alphabet=st.characters(exclude_categories=())),  # surrogates too
        st.lists(st.sampled_from(["0", "1", "01" * 40, "\ud800", "\x80", "2"])).map("".join),
    )
)
def test_is_bits_is_membership_in_0_and_1(s):
    assert is_bits(s) == (set(s) <= {"0", "1"})


def test_check_bits_edge_cases_and_messages():
    assert check_bits("") == ""
    assert check_bits("", length=0) == ""
    for bad in ("\u0660", "\uff11", "0\u0661", " ", "0 1", "01\n", "\t", "_", "0_1", "2"):
        with pytest.raises(ShapeError) as err:
            check_bits(bad, name="w")
        assert str(err.value) == f"w must be a string over 0/1, got {bad!r}"
    for bad in (None, 0, 1, b"01", bytearray(b"01"), ["0", "1"], ("0",)):
        with pytest.raises(ShapeError) as err:
            check_bits(bad)
        assert str(err.value) == f"bitstring must be a string over 0/1, got {bad!r}"
    with pytest.raises(ShapeError) as err:
        check_bits("01", length=3, name="w")
    assert str(err.value) == "w must have length 3, got 2"


def test_int_round_trip():
    assert bits_to_int("") == 0
    assert int_to_bits(0, 0) == ""
    assert bits_to_int(int_to_bits(37, 8)) == 37
    with pytest.raises(ShapeError):
        int_to_bits(4, 2)


def test_random_bits_deterministic():
    import random

    assert random_bits(random.Random(7), 12) == random_bits(random.Random(7), 12)


# -- one scan per string, where it enters -------------------------------------


def counted_scans(monkeypatch) -> list[str]:
    """Every string `is_bits` scans from now on, in order: through
    `check_bits`, and in `FormulaEncoding.decode`, which calls it directly."""
    scanned: list[str] = []
    real = bits.is_bits

    def counting(s):
        scanned.append(s)
        return real(s)

    monkeypatch.setattr(bits, "is_bits", counting)
    monkeypatch.setattr(verifiers, "is_bits", counting)
    return scanned


def test_a_tradeoff_sweep_scans_no_point_inside_its_trials(tmp_path, monkeypatch):
    # Distribution scans each support point as the sweep builds it; drawing,
    # labelling, learning and scoring inside the trials read them unscanned
    scanned = counted_scans(monkeypatch)
    rescanned, inside = [], []
    real_suite = commands.pac_trial_suite

    def suite(learner, labels, dist, *args):
        before = len(scanned)
        result = real_suite(learner, labels, dist, *args)
        inside.extend(scanned[before:])
        rescanned.extend(s for s in scanned[before:] if s in dist.points)
        return result

    monkeypatch.setattr(commands, "pac_trial_suite", suite)
    assert commands.cmd_tradeoff(read_config({}, commands.COMMANDS["tradeoff"], "tradeoff"), tmp_path, 0) == 0
    assert len(rescanned) == 0
    # what is left is few_sample_learner's certificate search on each of its
    # 24 samples with a 1-labelled point: first_certificate scans the
    # instance it is handed as it enters, and eval_assignment the
    # certificate that v.check confirms
    assert len(inside) == 2 * 24


def test_first_certificate_scans_its_strings_three_times_on_a_memo_miss(monkeypatch):
    enc = FormulaEncoding(max_vars=2, max_clauses=3)
    z = enc.encode(ThreeSatInstance(2, [(1, 2), (-1, 2)]))
    v = ThreeSatVerifier(enc)  # fresh: z is not in its memo
    scanned = counted_scans(monkeypatch)
    w = first_certificate(v, z)
    # first_certificate scans z as it enters; FormulaEncoding.decode scans it
    # as the verifier reads the formula; eval_assignment, which v.check runs
    # to confirm the result, scans w
    assert (w, scanned) == ("01", [z, z, w])


def test_codes_decode_scans_the_received_word_once(monkeypatch):
    code = get_code(DEFAULT_CODE_PARAMS, 8)
    cw = code.encode_value(0b10110010)
    y = "".join(str((cw >> i) & 1) for i in range(code.codeword_len))
    scanned = counted_scans(monkeypatch)
    # the module function scans y as it enters and decodes its int
    assert decode(DEFAULT_CODE_PARAMS, y) == "10110010"
    assert scanned == [y]


# -- flip_positions, the tests' bit-flip helper in oracles.py ------------------


@given(st.integers(0, 2**16 - 1), st.sets(st.integers(0, 15)))
def test_flip_positions_is_an_involution(value, positions):
    s = int_to_bits(value, 16)
    assert flip_positions(flip_positions(s, positions), positions) == s


def test_flip_positions_out_of_range():
    with pytest.raises(ShapeError):
        flip_positions("0101", [4])


def test_flip_positions_examples():
    y = "0110100"
    assert flip_positions(y, set()) == y
    assert flip_positions(flip_positions(y, {0, 3}), {0, 3}) == y
    with pytest.raises(ShapeError):
        flip_positions(y, {7})


@settings(max_examples=60)
@given(st.integers(0, 2**24 - 1), st.sets(st.integers(0, 23)))
def test_flip_positions_flips_exactly_the_positions(value, positions):
    y = int_to_bits(value, 24)
    out = flip_positions(y, positions)
    diff = {i for i, (a, b) in enumerate(zip(y, out)) if a != b}
    assert diff == set(positions)
