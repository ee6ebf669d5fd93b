import random
import re
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from certlab.bits import bits_of_rank, int_to_bits
from certlab.errors import BudgetError, ConfigError, FormatError, ShapeError
from certlab import sat, verifiers
from certlab.sat import ThreeSatInstance, exhaustive_formulas, random_instance
from certlab.verifiers import (
    FormulaEncoding,
    StepCounter,
    ThreeSatVerifier,
    first_certificate,
)
from oracles import (
    ENC2,
    PHI0,
    V2,
    Z0,
    Z_UNSAT,
    FnVerifier,
    assert_canonical,
    LexQuery,
    flip_positions,
    lex_oracle,
    lex_verify,
    naive_first_certificate,
    nondet_oracle,
    reference_decode,
    reference_encode,
    verify,
)


def test_verify_examples():
    assert verify(V2, Z0, "01")
    assert not verify(V2, Z0, "00")
    for v in range(4):
        assert not verify(V2, Z_UNSAT, int_to_bits(v, 2))


def test_verify_shape_errors():
    with pytest.raises(ShapeError):
        verify(V2, Z0[:-1], "01")
    with pytest.raises(ShapeError):
        verify(V2, Z0, "0")


def test_lex_verify_examples():
    assert lex_verify(V2, LexQuery(Z0, 4), "01")
    assert not lex_verify(V2, LexQuery(Z0, 1), "01")
    for v in range(4):
        assert not lex_verify(V2, LexQuery(Z_UNSAT, 4), int_to_bits(v, 2))
    with pytest.raises(ShapeError):
        lex_verify(V2, LexQuery(Z0, 5), "01")


def test_lex_verify_equals_conjunction_exhaustively():
    # generic verifier at p = 8: all (k, w) pairs against rank <= k AND check
    accept = {13, 77, 200, 255}
    v = FnVerifier(n=1, p=8, fn=lambda z, w: int(w, 2) in accept)
    words = [int_to_bits(val, 8) for val in range(256)]
    for k in range(1, 257):
        q = LexQuery("0", k)
        for val, w in enumerate(words):
            expected = (val + 1 <= k) and (val in accept)
            assert lex_verify(v, q, w) == expected


def test_nondet_oracle_examples():
    assert nondet_oracle(V2, Z0)
    assert not nondet_oracle(V2, Z_UNSAT)
    assert nondet_oracle(V2, ENC2.encode(ThreeSatInstance(2, [])))  # empty formula


def test_nondet_oracle_budget():
    v = FnVerifier(n=1, p=30, fn=lambda z, w: False)
    with pytest.raises(BudgetError):
        nondet_oracle(v, "0")


def test_lex_oracle_examples():
    assert not lex_oracle(V2, Z0, 1)
    assert lex_oracle(V2, Z0, 2)
    assert not lex_oracle(V2, Z_UNSAT, 4)


def test_first_certificate_examples():
    assert first_certificate(V2, Z0) == "01"
    assert first_certificate(V2, Z_UNSAT) is None
    enc1 = FormulaEncoding(max_vars=1, max_clauses=1)
    v1 = ThreeSatVerifier(enc1)
    z = enc1.encode(ThreeSatInstance(1, [(1,)]))
    assert first_certificate(v1, z) == "1"


def test_first_certificate_matches_naive_scan_on_corpus():
    for inst in exhaustive_formulas(2, 2):
        z = ENC2.encode(inst)
        assert first_certificate(V2, z) == naive_first_certificate(V2, z)


def test_first_certificate_matches_naive_scan_generic_p12():
    # generic verifiers (no mask fast path), random accept sets, exhaustive
    # rank-order scan as the reference oracle at p = 12
    rng = random.Random(3)
    for trial in range(12):
        accept = {rng.randrange(1 << 12) for _ in range(rng.choice([0, 1, 3, 40]))}
        v = FnVerifier(n=1, p=12, fn=lambda z, w, a=accept: int(w, 2) in a)
        got = first_certificate(v, "1")
        want = naive_first_certificate(v, "1")
        assert got == want
        if accept:
            assert got == int_to_bits(min(accept), 12)


def test_first_certificate_uses_at_most_p_oracle_calls():
    for inst in exhaustive_formulas(2, 3):
        c = StepCounter()
        first_certificate(V2, ENC2.encode(inst), counter=c)
        assert c.oracle_calls <= V2.p


def binary_search_counts(v, z):
    """(oracle_calls, steps) of the binary search for the first accepted
    certificate, made call by call through lex_oracle."""
    c = StepCounter()
    lo, hi = 1, 1 << v.p
    while lo < hi:
        mid = (lo + hi) // 2
        if lex_oracle(v, z, mid, counter=c):
            hi = mid
        else:
            lo = mid + 1
    return c.oracle_calls, c.steps


def assert_charged_as_the_search(v, z):
    c = StepCounter()
    first_certificate(v, z, counter=c)
    assert (c.oracle_calls, c.steps) == binary_search_counts(v, z)
    assert c.oracle_calls == v.p


def test_first_certificate_counts_equal_the_binary_search_over_lex_oracle():
    for inst in exhaustive_formulas(2, 3):
        assert_charged_as_the_search(V2, ENC2.encode(inst))
    rng = random.Random(12)
    enc12 = FormulaEncoding(max_vars=12, max_clauses=60)
    v12 = ThreeSatVerifier(enc12)
    for _ in range(10):
        assert_charged_as_the_search(v12, enc12.encode(random_instance(rng, 12, rng.randrange(30, 61))))


def test_first_certificate_counts_equal_the_binary_search_generic_p12():
    # without a mask the lex oracle really scans, so its modeled steps are
    # also the number of checks the search runs
    rng = random.Random(4)
    for _ in range(8):
        accept = {rng.randrange(1 << 12) for _ in range(rng.choice([0, 1, 3, 40]))}
        checks = []

        def fn(z, w, a=accept):
            checks.append(w)
            return int(w, 2) in a

        v = FnVerifier(n=1, p=12, fn=fn)
        assert_charged_as_the_search(v, "1")
        checks.clear()
        assert binary_search_counts(v, "1")[1] == len(checks)


def test_first_certificate_matches_the_reference_solver_p17_to_p24(perfbench_modules, monkeypatch):
    reference = perfbench_modules("reference")
    # the p = 24 literal masks would stay cached for the rest of the
    # session; keep them for this test only
    monkeypatch.setattr(sat, "_LIT_MASKS", {})
    outcomes = set()
    for p in range(17, 25):
        rng = random.Random(f"scaled:{p}")
        clauses = round(4.3 * p)
        enc = FormulaEncoding(max_vars=p, max_clauses=clauses)
        v = ThreeSatVerifier(enc)
        for _ in range(2):
            inst = random_instance(rng, p, clauses)
            c = StepCounter()
            w = first_certificate(v, enc.encode(inst), counter=c)
            assert w == reference.lex_first_solution(p, inst.clauses), (p, inst)
            assert c.oracle_calls == p
            outcomes.add(w is None)
    assert outcomes == {True, False}  # both satisfiable and unsatisfiable ones


def test_first_certificate_memory_stays_bounded_over_many_instances(monkeypatch):
    # a satisfiable p = 20 formula's accept mask is 128 KiB; a verifier that
    # kept one per instance would hold megabytes after 50 of them
    monkeypatch.setattr(sat, "_LIT_MASKS", {})
    rng = random.Random("bounded:20")
    enc = FormulaEncoding(max_vars=20, max_clauses=88)
    v = ThreeSatVerifier(enc)
    first_certificate(v, enc.encode(random_instance(rng, 20, 88)))  # builds the literal masks
    zs = [enc.encode(random_instance(rng, 20, 88)) for _ in range(50)]
    assert len(set(zs)) == 50
    tracemalloc.start()
    try:
        found = [first_certificate(v, z) for z in zs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(w is not None for w in found)
    assert peak < 2 << 20, f"peak traced memory {peak >> 10} KiB"


def test_a_first_certificate_builds_no_full_mask(perfbench_modules, monkeypatch):
    # one p = 20 accept mask takes 128 KiB: the search builds none, and once
    # the literal masks are built its traced peak stays below one
    reference = perfbench_modules("reference")

    def no_mask(*args):
        raise AssertionError("the full accept mask was built")

    monkeypatch.setattr(sat, "_LIT_MASKS", {})
    for owner in (sat, verifiers):
        monkeypatch.setattr(owner, "satisfying_mask", no_mask)
    monkeypatch.setattr(ThreeSatVerifier, "accept_mask", no_mask)
    rng = random.Random("no-mask:20")
    enc = FormulaEncoding(max_vars=20, max_clauses=88)
    warm = random_instance(random.Random("no-mask:warm"), 20, 88)
    first_certificate(ThreeSatVerifier(enc), enc.encode(warm))  # builds the literal masks
    outcomes = set()
    for _ in range(8):
        inst = random_instance(rng, 20, 88)
        v, z = ThreeSatVerifier(enc), enc.encode(inst)
        tracemalloc.start()
        try:
            w = first_certificate(v, z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w == reference.lex_first_solution(20, inst.clauses), inst
        assert peak < 128 << 10, f"peak traced memory {peak >> 10} KiB"
        outcomes.add(w is None)
    assert outcomes == {True, False}


def test_a_cold_first_certificate_at_p24_builds_only_narrow_literal_masks(monkeypatch):
    # the p = 24 literal masks at full width would take 46 MiB; the search
    # builds those of the variables it folds and one above, each within
    # 2^SEARCH_FOLD_VARS bits
    monkeypatch.setattr(sat, "_LIT_MASKS", {})
    enc = FormulaEncoding(max_vars=24, max_clauses=103)
    v, z = ThreeSatVerifier(enc), enc.encode(random_instance(random.Random("cold:24"), 24, 103))
    tracemalloc.start()
    try:
        first_certificate(v, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak traced memory {peak >> 10} KiB"
    widest = 1 << (1 << sat.SEARCH_FOLD_VARS)
    assert all(m < widest for lits in sat._LIT_MASKS.values() for m in lits.values())


def test_mask_path_equals_generic_path():
    # wrap the 3-SAT verifier so the oracles lose the mask fast path
    for inst in exhaustive_formulas(2, 2):
        z = ENC2.encode(inst)
        plain = FnVerifier(n=V2.n, p=V2.p, fn=V2.check)
        assert nondet_oracle(V2, z) == nondet_oracle(plain, z)
        assert first_certificate(V2, z) == first_certificate(plain, z)
        for k in (1, 2, 3, 4):
            c_fast, c_slow = StepCounter(), StepCounter()
            assert lex_oracle(V2, z, k, counter=c_fast) == lex_oracle(
                plain, z, k, counter=c_slow
            )
            assert c_fast.steps == c_slow.steps  # modeled scan cost matches real scan


def test_lex_oracle_counts_scanned_candidates():
    c = StepCounter()
    assert lex_oracle(V2, Z0, 4, counter=c)
    assert c.oracle_calls == 1
    assert c.steps == 2  # early exit at rank 2 ("01")
    c = StepCounter()
    assert not lex_oracle(V2, Z_UNSAT, 3, counter=c)
    assert c.steps == 3  # full scan of ranks 1..3


# -- formula encoding ----------------------------------------------------------


def test_encoding_round_trip_exhaustive_two_var():
    corpus = exhaustive_formulas(2, 3)
    encoded = [ENC2.encode(f) for f in corpus]
    assert len(set(encoded)) == len(corpus)  # injectivity
    for f, z in zip(corpus, encoded):
        assert len(z) == ENC2.width
        assert ENC2.decode(z) == f


def test_encoding_all_zero_is_canonical_degenerate():
    inst = ENC2.decode("0" * ENC2.width)
    assert inst.num_vars == 0
    assert inst.clauses == ()


def test_encoding_rejects_malformed():
    with pytest.raises(FormatError):
        ENC2.decode("1" * (ENC2.width - 1))  # wrong length
    # stray polarity bit inside an absent slot
    z = list("0" * ENC2.width)
    z[ENC2.num_vars_bits + ENC2.clause_count_bits + 1] = "1"
    with pytest.raises(FormatError):
        ENC2.decode("".join(z))
    # clause count pointing past provided clauses is fine only if slots empty;
    # a present literal in an uncounted block must fail
    good = ENC2.encode(PHI0)
    tail_start = ENC2.num_vars_bits + ENC2.clause_count_bits + 2 * ENC2.clause_bits
    bad = good[:tail_start] + "11" + good[tail_start + 2 :]
    with pytest.raises(FormatError):
        ENC2.decode(bad)


def test_encoding_rejects_out_of_range_instances():
    with pytest.raises(ConfigError):
        ENC2.encode(ThreeSatInstance(3, [(3,)]))
    with pytest.raises(ConfigError):
        ENC2.encode(ThreeSatInstance(2, [(1,), (2,), (-1,), (-2,)]))


def test_encodings_are_values_of_their_two_limits(monkeypatch):
    a, b = FormulaEncoding(8, 36), FormulaEncoding(max_vars=8, max_clauses=36)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != FormulaEncoding(8, 35) and a != FormulaEncoding(9, 36) and a != (8, 36)
    assert repr(a) == "FormulaEncoding(max_vars=8, max_clauses=36)"
    assert (a.num_vars_bits, a.clause_count_bits, a.var_bits, a.slot_bits, a.clause_bits) == (4, 6, 3, 5, 15)
    assert a.width == 4 + 6 + 36 * 15
    with pytest.raises(ConfigError, match=r"^max_vars must be >= 1 and max_clauses >= 0$"):
        FormulaEncoding(0, 1)
    # the benchmark's tracer wraps the codec on the class
    calls = []
    encode = FormulaEncoding.encode
    monkeypatch.setattr(FormulaEncoding, "encode", lambda self, inst: calls.append(inst) or encode(self, inst))
    z = a.encode(PHI0)
    assert calls == [PHI0] and a.decode(z) == PHI0


def test_encoding_var_reference_above_num_vars_rejected():
    # craft: num_vars=1 but a literal slot referencing variable 2
    enc = FormulaEncoding(max_vars=2, max_clauses=1)
    bits = (
        int_to_bits(1, enc.num_vars_bits)
        + int_to_bits(1, enc.clause_count_bits)
        + "11" + "1"  # present, positive, var index 1 -> variable 2
        + "0" * (2 * enc.slot_bits)
    )
    with pytest.raises(FormatError):
        enc.decode(bits)


ENCODINGS = st.builds(FormulaEncoding, st.integers(1, 5), st.integers(0, 4))


def decode_outcome(decode, enc: FormulaEncoding, word: str):
    """The decoded instance, or None on FormatError; any other exception
    propagates and fails the calling test."""
    try:
        inst = decode(enc, word)
    except FormatError:
        return None
    assert isinstance(inst, ThreeSatInstance)
    return inst


def assert_decodes_as_reference(enc: FormulaEncoding, word: str):
    """decode and the field-by-field reference agree on the word: an equal
    instance, or FormatError from both.  Returns the instance or None."""
    inst = decode_outcome(FormulaEncoding.decode, enc, word)
    assert inst == decode_outcome(reference_decode, enc, word)
    if inst is not None:
        assert_canonical(inst)
    return inst


@st.composite
def raw_formula(draw):
    """An encoding, a variable count and clause lists that fit it; a clause
    may repeat a literal, which ThreeSatInstance merges."""
    enc = draw(ENCODINGS)
    num_vars = draw(st.integers(0, enc.max_vars))
    literal = st.integers(1, max(num_vars, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, max_size=3 if num_vars else 0).map(tuple)
    return enc, num_vars, draw(st.lists(clause, max_size=enc.max_clauses))


@st.composite
def encoding_word(draw):
    """An encoding and a word of its width: uniform bits, or the encoding of
    raw clause lists with up to three bits flipped, so that many words pass
    the field checks and reach the instance constructor."""
    if draw(st.booleans()):
        enc = draw(ENCODINGS)
        return enc, draw(st.text("01", min_size=enc.width, max_size=enc.width))
    enc, num_vars, clauses = draw(raw_formula())
    # encode reads only these two fields, so repeated literals encode as they are
    word = enc.encode(SimpleNamespace(num_vars=num_vars, clauses=clauses))
    flips = draw(st.lists(st.integers(0, enc.width - 1), max_size=3))
    return enc, flip_positions(word, flips)


@settings(max_examples=400, deadline=None)
@given(encoding_word())
def test_encoding_decode_returns_an_instance_or_raises_format_error(case):
    enc, word = case
    inst = assert_decodes_as_reference(enc, word)
    if inst is not None:
        assert enc.decode(enc.encode(inst)) == inst


def test_encoding_decode_of_every_narrow_word_is_an_instance_or_format_error():
    for max_vars in range(1, 6):
        for max_clauses in range(5):
            enc = FormulaEncoding(max_vars, max_clauses)
            if enc.width <= 12:
                for v in range(1 << enc.width):
                    assert_decodes_as_reference(enc, int_to_bits(v, enc.width))


@settings(max_examples=300, deadline=None)
@given(raw_formula())
def test_encoding_round_trips_generated_instances(case):
    enc, num_vars, clauses = case
    raw = SimpleNamespace(num_vars=num_vars, clauses=clauses)
    assert enc.encode(raw) == reference_encode(enc, raw)
    inst = ThreeSatInstance(num_vars, clauses)
    z = enc.encode(inst)
    assert z == reference_encode(enc, inst)
    assert len(z) == enc.width
    assert enc.decode(z) == inst


def test_decode_matches_the_reference_at_wide_variable_fields():
    # max_vars 17..24 gives the 5-bit variable field the certify benchmark's
    # p = 20 formulas use; words are encodings, some with 1-3 bits flipped
    rng = random.Random(36)
    for max_vars in range(17, 25):
        enc = FormulaEncoding(max_vars, rng.randint(85, 95))
        for _ in range(12):
            num_vars = rng.choice([max_vars, rng.randint(0, max_vars)])
            clauses = [
                tuple(rng.choice([v, -v]) for v in rng.choices(range(1, num_vars + 1), k=rng.randint(0, 3)))
                if num_vars else ()
                for _ in range(rng.randint(0, enc.max_clauses))
            ]
            word = enc.encode(SimpleNamespace(num_vars=num_vars, clauses=clauses))
            assert enc.decode(word) == ThreeSatInstance(num_vars, clauses)
            assert assert_decodes_as_reference(enc, word) is not None
            for flips in range(1, 4):
                assert_decodes_as_reference(enc, flip_positions(word, rng.sample(range(enc.width), flips)))


def crafted_word(enc: FormulaEncoding, num_vars: int, count: int, *slots: str) -> str:
    """The header fields, then the slot texts in order, zero-filled to the width."""
    header = int_to_bits(num_vars, enc.num_vars_bits) + int_to_bits(count, enc.clause_count_bits)
    return (header + "".join(slots)).ljust(enc.width, "0")


def lit_slot(enc: FormulaEncoding, lit: int) -> str:
    return "1" + ("1" if lit > 0 else "0") + int_to_bits(abs(lit) - 1, enc.var_bits)


def test_decode_pins_each_format_error_and_its_order():
    enc = FormulaEncoding(max_vars=5, max_clauses=3)  # 3-bit variable field, up to variable 8
    zero, L = "0" * enc.slot_bits, lambda lit: lit_slot(enc, lit)
    stray = "a literal slot follows an absent one or has stray bits"
    cases = [
        (crafted_word(enc, 6, 0), "header declares 6 vars and 0 clauses, encoding allows 5 and 3"),
        # past the declared blocks before stray bits or a variable out of range
        (crafted_word(enc, 2, 1, "01000", zero, zero, L(7)), "bits set past the declared clause blocks"),
        (crafted_word(enc, 2, 1, L(1), "01000"), stray),  # a polarity bit in an absent slot
        (crafted_word(enc, 2, 1, L(1), L(2), "00001"), stray),  # variable bits in an absent slot
        (crafted_word(enc, 2, 1, L(1), zero, L(2)), stray),  # a literal after an absent slot
        (crafted_word(enc, 2, 1, zero, L(1)), stray),
        # stray bits in a later clause before a variable out of range in an earlier one
        (crafted_word(enc, 2, 2, L(7), zero, zero, zero, L(1)), stray),
        # the first literal out of range in slot order, not in canonical order
        (crafted_word(enc, 3, 1, L(5), L(-4)), "literal 5 references a variable outside [1, 3]"),
        (
            crafted_word(enc, 3, 3, L(1), L(2), zero, L(-4), L(8), L(1), L(5)),
            "literal -4 references a variable outside [1, 3]",
        ),
        (crafted_word(enc, 0, 1, L(1)), "literal 1 references a variable outside [1, 0]"),
    ]
    for word, message in cases:
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            enc.decode(word)
    with pytest.raises(FormatError, match=f"^encoded formula must have {enc.width} bits, got 3$"):
        enc.decode("000")
    two = FormulaEncoding(max_vars=5, max_clauses=2)
    with pytest.raises(FormatError, match="^header declares 2 vars and 3 clauses, encoding allows 5 and 2$"):
        two.decode(crafted_word(two, 2, 3))


def test_decode_builds_canonical_clauses_from_any_slot_order():
    enc = FormulaEncoding(max_vars=5, max_clauses=3)
    L = lambda lit: lit_slot(enc, lit)  # noqa: E731
    word = crafted_word(enc, 5, 3, L(-3), L(3), L(1), L(2), L(-2), L(2), L(4), L(4), L(4))
    inst = enc.decode(word)
    assert inst.clauses == ((1, 3, -3), (2, -2), (4,))
    assert_canonical(inst)


def test_decode_reads_an_ordered_in_range_block_at_the_edges_of_its_range():
    enc = FormulaEncoding(max_vars=5, max_clauses=1)  # 3-bit variable field, up to variable 8
    L = lambda lit: lit_slot(enc, lit)  # noqa: E731
    # the largest key, -3's, is the largest in range at num_vars = 3
    assert enc.decode(crafted_word(enc, 3, 1, L(1), L(2), L(-3))).clauses == ((1, 2, -3),)
    with pytest.raises(FormatError, match=r"^literal 4 references a variable outside \[1, 3\]$"):
        enc.decode(crafted_word(enc, 3, 1, L(1), L(2), L(4)))
    # an ordered tautology is canonical as it is
    assert enc.decode(crafted_word(enc, 3, 1, L(1), L(-1), L(3))).clauses == ((1, -1, 3),)


def test_first_certificate_is_one_past_the_first_accepted_value():
    for p in (1, 5, 20):
        for first in (0, 1, 2**p - 1):
            stub = SimpleNamespace(n=1, p=p, first_accepted=lambda z, f=first: f, check=lambda z, w: True)
            assert first_certificate(stub, "1") == bits_of_rank(first + 1, p)
    stub = SimpleNamespace(n=1, p=5, first_accepted=lambda z: None, check=lambda z, w: False)
    assert first_certificate(stub, "1") is None


def test_a_word_with_a_character_other_than_0_and_1_is_a_format_error():
    """decode, a parser, raises only FormatError, which the verifier reads as
    a malformed instance that accepts nothing."""
    enc = FormulaEncoding(2, 3)
    word = "2" * enc.width
    with pytest.raises(FormatError, match="^encoded formula must be a string over 0/1, got '2"):
        enc.decode(word)
    v = ThreeSatVerifier(enc)
    assert v.accept_mask(word) == 0
    assert v.check(word, "00") is False


def test_three_sat_verifier_rejects_on_malformed_instance():
    junk = "1" * V2.n
    try:
        V2.encoding.decode(junk)
        decodable = True
    except FormatError:
        decodable = False
    if not decodable:
        assert not verify(V2, junk, "00")
        assert not nondet_oracle(V2, junk)
        assert first_certificate(ThreeSatVerifier(ENC2), junk) is None
