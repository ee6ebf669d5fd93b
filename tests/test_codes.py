import functools
import hashlib
import random
import sys
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from certlab import codes
from certlab.codes import (
    DEFAULT_CODE_PARAMS,
    LANE_WALK_MIN_LEN,
    MAX_CODEWORD_BITS,
    REDUCTION_CODE_PARAMS,
    CodeParams,
    LinearCode,
    _gray_min_weight,
    _lane_min_weight,
    _min_weight,
    _span,
    decode,
    get_code,
    radius_recovery,
)
from certlab.errors import ConfigError, ShapeError


def test_params_validation():
    with pytest.raises(ConfigError, match=r"^rate denominator c must be an integer > 1$"):
        CodeParams(c=1, eps_star=Fraction(1, 4))
    with pytest.raises(ConfigError, match=r"^rate denominator c must be an integer > 1$"):
        CodeParams(c=8.0, eps_star=Fraction(1, 4))
    with pytest.raises(ConfigError, match=r"^eps_star must lie in \(0, 1/2\)$"):
        CodeParams(c=8, eps_star=Fraction(1, 2))
    with pytest.raises(ConfigError, match=r"^eps_star must lie in \(0, 1/2\)$"):
        CodeParams(c=8, eps_star=Fraction(0))
    with pytest.raises(ConfigError, match=r"^eps_star\*c\*m < 1 at the smallest supported length m=2$"):
        CodeParams(c=2, eps_star=Fraction(1, 8))  # eps*c*2 = 1/2 < 1


def test_params_are_values():
    # eps_star is kept as a Fraction in lowest terms, whatever number it came as
    a, b = CodeParams(8, 0.0625), CodeParams(c=8, eps_star=Fraction(3, 48))
    assert a.eps_star == Fraction(1, 16) and type(a.eps_star) is Fraction
    assert a == b == DEFAULT_CODE_PARAMS and hash(a) == hash(b) == hash(DEFAULT_CODE_PARAMS)
    assert a.code_key == b.code_key == (8, 1, 16)
    assert a != REDUCTION_CODE_PARAMS and a != (8, Fraction(1, 16))
    assert len({a, b, REDUCTION_CODE_PARAMS}) == 2
    assert repr(REDUCTION_CODE_PARAMS) == "CodeParams(c=4, eps_star=Fraction(1, 8))"


def test_rate_is_exact():
    for m in (2, 5, 8, 12, 16):
        code = get_code(DEFAULT_CODE_PARAMS, m)
        assert code.codeword_len == DEFAULT_CODE_PARAMS.c * m
        # every codeword is an XOR of rows, so it fits in codeword_len bits
        assert all(row >> code.codeword_len == 0 for row in code.generator_rows)


def test_round_trip_random_messages():
    rng = random.Random(11)
    for m in (8, 12, 16):
        code = get_code(DEFAULT_CODE_PARAMS, m)
        trials = 1000 if m == 8 else 200
        for _ in range(trials):
            v = rng.getrandbits(m)
            assert code.decode_value(code.encode_value(v)) == v


def test_encode_injective_on_all_length8_messages():
    code = get_code(DEFAULT_CODE_PARAMS, 8)
    words = {code.encode_value(v) for v in range(256)}
    assert len(words) == 256


def test_pairwise_distance_exceeds_twice_contract_radius_m8():
    code = get_code(DEFAULT_CODE_PARAMS, 8)
    bound = 2 * code.contract_radius
    cws = _span(code.generator_rows)
    # linear code: pairwise distances are weights of the nonzero codewords
    assert min(w.bit_count() for w in cws[1:]) == code.distance
    assert code.distance > bound
    rng = random.Random(5)
    for _ in range(300):
        a, b = rng.randrange(256), rng.randrange(256)
        if a != b:
            assert (cws[a] ^ cws[b]).bit_count() > bound


def test_certified_radius_covers_contract_for_all_supported_lengths():
    for params in (DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS):
        for m in range(2, 17):
            code = get_code(params, m)
            assert code.radius >= code.contract_radius
            assert code.distance >= 2 * code.contract_radius + 1


#: sha256 of repr((generator_rows, distance)), first 16 hex digits, for
#: m = 2..16: a change to the search that moves any code shows here.
PINNED_CODES = {
    DEFAULT_CODE_PARAMS: (
        "d94b951d0bc97589 0c5ba4af7eacb7f5 ce29719451d98bd7 a4a3c382739af75e "
        "270895e0b240b58b 8fef49d085eb80b1 b14e2daebe83508e 48b8958b78ddcf84 "
        "484c8dcbbcd42b1c 6f8c5a411cfd7816 566bc272f66cb8aa 3f8b1a0c15721c55 "
        "253a34e400d1b39f 89b6e0d46b319406 c1bd0703c266f743"
    ),
    REDUCTION_CODE_PARAMS: (
        "d458cdef38393163 3c1a4f1006c76f50 94a5c7831762d38a 847fb6f42b2685a0 "
        "b845d56c8458f9e7 950f19dd5f78c658 47316607ae5a8e82 11c7d7390b8df848 "
        "4c8fe216d9d6c202 971bd3aa6bfc83f2 83d5c0a3392780ed a787f1056efbae10 "
        "a3145401baf6c266 1152622c9a344630 c77f21884fac2a46"
    ),
}


def test_every_supported_code_is_pinned():
    for params, pinned in PINNED_CODES.items():
        digests = []
        for m in range(2, 17):
            code = get_code(params, m)
            text = repr((code.generator_rows, code.distance))
            digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        assert digests == pinned.split()


def test_min_weight_stops_only_at_a_weight_within_stop():
    # without a weight <= stop the walk is exact; with one it may stop there
    rng = random.Random(41)
    for _ in range(60):
        m = rng.randint(1, 10)
        rows = [rng.getrandbits(rng.randint(m, 3 * m)) for _ in range(m)]
        least = min(w.bit_count() for w in _span(rows)[1:])
        for stop in range(-1, 3 * m + 1):
            got = _min_weight(rows, stop)
            if stop < least:
                assert got == least
            else:
                assert least <= got <= stop
    # at m = 9..16, c=4 and c=8 words have one-byte lanes, so `_min_weight`
    # takes the Gray walk below LANE_WALK_MIN_LEN and the lane walk from it;
    # c=20 words from m=13 need two-byte lanes and stay on the Gray walk.
    # Each walk is also checked on its own, on both sides of that rule
    assert 9 < LANE_WALK_MIN_LEN <= 16
    for c in (4, 8, 20):
        for m in range(9, 17):
            rows = [rng.getrandbits(c * m) for _ in range(m)]
            least = min(w.bit_count() for w in _span(rows)[1:])
            for walk in (_min_weight, _gray_min_weight, _lane_min_weight):
                for stop in (-1, least - 3, least - 1, least, least + 1, least + 6, c * m):
                    got = walk(rows, stop)
                    if stop < least:
                        assert got == least, (walk.__name__, c, m, stop)
                    else:
                        assert least <= got <= stop, (walk.__name__, c, m, stop)


def _refuse(*args):
    raise AssertionError("this walk must not run")


def test_a_fresh_m16_default_code_never_runs_the_gray_walk(monkeypatch):
    monkeypatch.setattr(codes, "_gray_min_weight", _refuse)
    code = LinearCode(DEFAULT_CODE_PARAMS, 16)
    monkeypatch.undo()
    cached = get_code(DEFAULT_CODE_PARAMS, 16)
    assert (code.generator_rows, code.distance) == (cached.generator_rows, cached.distance)


@pytest.mark.parametrize(
    "params, m",
    [(REDUCTION_CODE_PARAMS, 8), (CodeParams(c=20, eps_star=Fraction(1, 16)), 16)],
    ids=["decide-preset-m8", "c20-m16"],
)
def test_short_codes_and_two_byte_lanes_never_run_the_lane_walk(params, m, monkeypatch):
    # the decide workload's code is short, and c=20 words at m=16 are 320
    # bits: both keep the Gray walk
    monkeypatch.setattr(codes, "_lane_min_weight", _refuse)
    code = LinearCode(params, m)
    assert code.radius >= code.contract_radius


def test_a_contract_past_the_plotkin_bound_fails_before_the_search(monkeypatch):
    # no [112, 14] linear code has distance above 112*2^13/(2^14-1) < 57
    monkeypatch.setattr(codes, "_min_weight", _refuse)
    with pytest.raises(ConfigError) as err:
        LinearCode(CodeParams(c=8, eps_star=Fraction(9, 20)), 14)
    assert str(err.value) == (
        "distance 101 needed at length 14 exceeds the Plotkin bound 56 of a [112, 14] linear code"
    )


def test_a_contract_at_the_plotkin_bound_is_searched():
    # at c=3, m=3 distance 5 is the Plotkin bound, but no [9, 3] code has it
    with pytest.raises(ConfigError) as err:
        LinearCode(CodeParams(c=3, eps_star=Fraction(2, 9)), 3)
    assert str(err.value) == (
        "search found distance 4 at length 3: its certified radius 1 is below the contract radius 2"
    )


def test_no_preset_length_reaches_the_plotkin_bound():
    for params in (DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS):
        for m in range(2, 17):
            plotkin = params.c * m * 2 ** (m - 1) // (2**m - 1)
            assert 2 * params.contract_radius(m) + 1 <= plotkin, (params, m)


def test_unsupported_lengths_fail_fast():
    with pytest.raises(ConfigError):
        get_code(DEFAULT_CODE_PARAMS, 1)
    with pytest.raises(ConfigError):
        get_code(DEFAULT_CODE_PARAMS, 17)
    with pytest.raises(ConfigError):
        get_code(DEFAULT_CODE_PARAMS, 32)


def test_decode_within_contract_radius_sampled():
    rng = random.Random(23)
    for params, m in ((DEFAULT_CODE_PARAMS, 8), (REDUCTION_CODE_PARAMS, 4)):
        code = get_code(params, m)
        n = code.codeword_len
        for _ in range(400):
            v = rng.getrandbits(m)
            k = rng.randint(0, code.contract_radius)
            error = sum(1 << p for p in rng.sample(range(n), k))
            assert code.decode_value(code.encode_value(v) ^ error) == v


def test_radius_recovery_exhaustive_small():
    # weight <= 1 at m=2 under the reduction preset: all 9 patterns
    res = radius_recovery(REDUCTION_CODE_PARAMS, 2, exhaustive_limit=10**6)
    assert res.exhaustive
    assert res.tested == 1 + 8
    assert res.recovered == res.tested


def test_radius_recovery_sampled_m12():
    res = radius_recovery(DEFAULT_CODE_PARAMS, 12, exhaustive_limit=10, samples=10_000, seed=1)
    assert not res.exhaustive
    assert res.tested == 10_000
    assert res.recovered == res.tested


def test_radius_recovery_memory_does_not_grow_with_the_message_space():
    # a table of all 65,536 codewords at m=16 is over 2 MiB; one codeword per
    # pattern is a few bytes.  The information sets' tables are built once per
    # code, first; no contract-radius word at m=16 walks, so no walk table is built.
    get_code(DEFAULT_CODE_PARAMS, 16).lane_decoder()
    tracemalloc.start()
    try:
        res = radius_recovery(DEFAULT_CODE_PARAMS, 16, exhaustive_limit=0, samples=200, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.recovered == res.tested == 200
    assert peak < 256 << 10, f"peak traced memory {peak >> 10} KiB"


def test_beyond_radius_decode_never_crashes():
    code = get_code(DEFAULT_CODE_PARAMS, 8)
    rng = random.Random(2)
    for k in range(1, 4):
        v = rng.getrandbits(8)
        error = sum(1 << p for p in rng.sample(range(64), code.contract_radius + k))
        out = code.decode_value(code.encode_value(v) ^ error)
        assert 0 <= out < 1 << 8  # may differ from v; contract boundary


@functools.cache
def codewords(code) -> list[int]:
    return _span(code.generator_rows)


def full_scan(code, y_int: int) -> int:
    """Reference decoder: the smallest message at minimum Hamming distance."""
    dists = [(y_int ^ cw).bit_count() for cw in codewords(code)]
    return dists.index(min(dists))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_value_matches_full_scan(data):
    params = data.draw(st.sampled_from((DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS)))
    code = get_code(params, data.draw(st.integers(2, 10)))
    n = code.codeword_len
    if data.draw(st.booleans()):
        # a codeword with up to radius + 2 errors: within and just beyond
        v = data.draw(st.integers(0, (1 << code.message_len) - 1))
        errors = data.draw(st.sets(st.integers(0, n - 1), max_size=code.radius + 2))
        y_int = code.encode_value(v) ^ sum(1 << i for i in errors)
        if len(errors) <= code.radius:
            assert code.decode_value(y_int) == v
    else:
        y_int = data.draw(st.integers(0, (1 << n) - 1))
    assert code.decode_value(y_int) == full_scan(code, y_int)


def test_decode_value_matches_full_scan_sampled_m16():
    rng = random.Random(16)
    for params in (DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS):
        code = get_code(params, 16)
        n = code.codeword_len
        words = [rng.getrandbits(n) for _ in range(3)]
        for k in (0, code.radius, code.radius + 1, code.radius + 4):
            for _ in range(3):
                errors = sum(1 << i for i in rng.sample(range(n), k))
                words.append(code.encode_value(rng.getrandbits(16)) ^ errors)
        for y_int in words:
            assert code.decode_value(y_int) == full_scan(code, y_int)


def words_around_codewords(code, rng, count=4):
    """Random words, and codewords with errors within, just beyond and far
    beyond the radius."""
    n = code.codeword_len
    words = [rng.getrandbits(n) for _ in range(count)]
    for k in (0, 1, code.radius, code.radius + 1, code.radius + 2, 2 * code.radius + 3):
        for _ in range(count):
            errors = sum(1 << i for i in rng.sample(range(n), min(k, n)))
            words.append(code.encode_value(rng.getrandbits(code.message_len)) ^ errors)
    return words


def heavy_words(code, rng, count=4):
    """Words far from every codeword: all-ones, complements of codewords
    and complements of the AND of three random words."""
    n = code.codeword_len
    ones = (1 << n) - 1
    words = [ones]
    for _ in range(count):
        words.append(ones ^ code.encode_value(rng.getrandbits(code.message_len)))
        words.append(ones ^ (rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)))
    return words


def test_decode_value_matches_full_scan_with_two_byte_lanes():
    rng = random.Random(256)
    for c, m in ((130, 2), (130, 3), (70, 4)):
        code = get_code(CodeParams(c=c, eps_star=Fraction(1, 16)), m)
        assert code.codeword_len >= 256
        assert array(code.lane_decoder().lane_type).itemsize == 2
        for y_int in words_around_codewords(code, rng, count=8) + heavy_words(code, rng):
            assert code.decode_value(y_int) == full_scan(code, y_int)


def test_decode_value_matches_full_scan_with_byte_lanes_past_half():
    # one-byte lanes that can reach 128 or more, where the guard-bit test of
    # `some_lane_below` may let a high part through that has no lane below t
    rng = random.Random(144)
    for c, m in ((16, 9), (12, 16)):
        code = get_code(CodeParams(c=c, eps_star=Fraction(1, 16)), m)
        dec = code.lane_decoder()
        assert dec.lane_type == "B" and dec.half < code.codeword_len < 256
        for y_int in words_around_codewords(code, rng) + heavy_words(code, rng):
            assert code.decode_value(y_int) == full_scan(code, y_int)


def test_decode_value_matches_full_scan_on_complements_at_length_128():
    # a codeword's complement is at distance 128 from it: one lane of the
    # sum is exactly half
    code = get_code(DEFAULT_CODE_PARAMS, 16)
    assert code.codeword_len == code.lane_decoder().half == 128
    for y_int in heavy_words(code, random.Random(128), count=8):
        assert code.decode_value(y_int) == full_scan(code, y_int)


def test_decode_value_matches_full_scan_over_several_high_parts():
    rng = random.Random(912)
    for params in (DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS):
        for m in (9, 12):
            code = get_code(params, m)
            assert len(code.lane_decoder().high) == 1 << (m - 8)
            for y_int in words_around_codewords(code, rng) + heavy_words(code, rng):
                assert code.decode_value(y_int) == full_scan(code, y_int)


# -- the information-set candidate step ------------------------------------------------


def read_message(masks, y_int: int) -> int:
    """The message one information set reads off y_int."""
    v = 0
    for mask in masks:
        v = v << 1 | (y_int & mask).bit_count() & 1
    return v


@pytest.mark.parametrize("params", [DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS])
@pytest.mark.parametrize("m", range(9, 17))
def test_information_sets_read_back_every_message(params, m):
    code = get_code(params, m)
    sets = code.lane_decoder().info_sets
    assert sets
    positions = [functools.reduce(int.__or__, masks) for masks in sets]
    assert all(len(masks) == m and s.bit_count() == m for masks, s in zip(sets, positions))
    for i, a in enumerate(positions):
        assert all(a & b == 0 for b in positions[i + 1 :])
    rng = random.Random(f"info-sets:{params.c}:{m}")
    for _ in range(200):
        v = rng.getrandbits(m)
        assert all(read_message(masks, code.encode_value(v)) == v for masks in sets)


def table_read(reads, y_int: int) -> int:
    """The message one information set reads off y_int through its byte tables."""
    y_bytes = y_int.to_bytes(MAX_CODEWORD_BITS // 8, "little")
    return functools.reduce(int.__xor__, (table[y_bytes[i]] for i, table in reads), 0)


@pytest.mark.parametrize("params", [DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS])
@pytest.mark.parametrize("m", range(9, 17))
def test_each_set_reads_through_its_tables_what_its_parity_masks_read(params, m):
    code = get_code(params, m)
    dec = code.lane_decoder()
    n = code.codeword_len
    rng = random.Random(f"table-read:{params.c}:{m}")
    words = [rng.getrandbits(n) for _ in range(200)]
    assert len(dec.reads) == len(dec.moves) == len(dec.info_sets)
    for masks, reads, moves in zip(dec.info_sets, dec.reads, dec.moves):
        for y_int in words:
            assert table_read(reads, y_int) == read_message(masks, y_int)
        one_bit = [table_read(reads, 1 << s) for s in range(n)]
        assert one_bit == [read_message(masks, 1 << s) for s in range(n)]
        # the second pass's moves are the one-bit reads at the set's positions
        positions = functools.reduce(int.__or__, masks)
        assert moves == [one_bit[s] for s in positions_of(positions)]


class Unreadable:
    """Stands in for the lane tables: any read of it raises."""

    def __getattr__(self, name):
        raise AssertionError(f"the lane tables were read ({name})")

    def __iter__(self):
        raise AssertionError("the lane tables were read")

    def __getitem__(self, key):
        raise AssertionError("the lane tables were read")


@pytest.mark.parametrize("params", [DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS])
def test_a_word_whose_errors_miss_an_information_set_skips_the_walk(params, monkeypatch):
    code = get_code(params, 16)
    dec = code.lane_decoder()
    first = functools.reduce(int.__or__, dec.info_sets[0])
    clean = [p for p in range(code.codeword_len) if not first >> p & 1]
    rng = random.Random(f"miss-first-set:{params.c}")
    words = []
    for _ in range(20):
        v = rng.getrandbits(16)
        errors = sum(1 << p for p in rng.sample(clean, code.contract_radius))
        words.append((v, code.encode_value(v) ^ errors))
    # two errors in each set (its two lowest positions) leave the walk,
    # which reads the tables
    hit_all = 0
    for masks in dec.info_sets:
        positions = functools.reduce(int.__or__, masks)
        rest = positions & (positions - 1)
        hit_all |= positions ^ rest & (rest - 1)
    assert hit_all.bit_count() == 2 * len(dec.info_sets) <= code.radius
    walked = code.encode_value(rng.getrandbits(16)) ^ hit_all
    monkeypatch.setattr(dec, "tables", Unreadable())
    for v, y_int in words:
        assert code.decode_value(y_int) == v
    with pytest.raises(AssertionError, match="lane tables were read"):
        code.decode_value(walked)


def test_a_candidate_one_error_past_the_radius_is_not_kept():
    # y is radius + 1 errors from the codeword of v, none of them in the
    # first information set, and no farther from another codeword (half of a
    # minimum-weight codeword's support is flipped); the first set reads v,
    # which is not the nearest message, so the step must pass it over
    for params in (DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS):
        for m in (9, 12, 16):
            code = get_code(params, m)
            first = functools.reduce(int.__or__, code.lane_decoder().info_sets[0])
            dists = [cw.bit_count() for cw in codewords(code)]
            u = dists.index(code.distance, 1)
            support = [p for p in range(code.codeword_len) if (codewords(code)[u] & ~first) >> p & 1]
            assert len(support) > code.radius
            v = random.Random(f"past-radius:{params.c}:{m}").getrandbits(m)
            v = min(v, v ^ u) ^ u  # the larger of the pair, so a tie goes to v ^ u
            y_int = code.encode_value(v) ^ sum(1 << p for p in support[: code.radius + 1])
            assert read_message(code.lane_decoder().info_sets[0], y_int) == v
            assert full_scan(code, y_int) != v
            assert code.decode_value(y_int) == full_scan(code, y_int)


def positions_of(word: int) -> list[int]:
    return [p for p in range(word.bit_length()) if word >> p & 1]


@pytest.mark.parametrize("params", [DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS])
@pytest.mark.parametrize("m", range(9, 17))
def test_words_with_up_to_twice_the_sets_less_one_errors_skip_the_walk(params, m, monkeypatch):
    # with k disjoint sets, some set carries at most one of 2k-1 errors;
    # half the words spread their errors two to a set, in a random set order
    code = get_code(params, m)
    dec = code.lane_decoder()
    k = min(code.radius, 2 * len(dec.info_sets) - 1)
    sets = [positions_of(functools.reduce(int.__or__, masks)) for masks in dec.info_sets]
    rng = random.Random(f"no-walk:{params.c}:{m}")
    words = []
    for i in range(100):
        if i % 2:
            spread = []
            for positions in rng.sample(sets, len(sets)):
                spread += rng.sample(positions, min(2, k - len(spread)))
        else:
            spread = rng.sample(range(code.codeword_len), k)
        assert len(set(spread)) == k
        v = rng.getrandbits(m)
        words.append((v, code.encode_value(v) ^ sum(1 << p for p in spread)))
    monkeypatch.setattr(dec, "tables", Unreadable())
    for v, y_int in words:
        assert code.decode_value(y_int) == v


def test_a_one_error_candidate_one_past_the_radius_is_not_kept():
    # y is radius + 1 errors from the codeword of v: one at position s of
    # the first information set, the rest outside it, all on the support of
    # a codeword cw(u) of odd weight d = 2*radius + 1.  So y is radius from
    # cw(v ^ u), the nearest codeword.  The other radius positions of that
    # support hit the first set at least twice and every other set once, so
    # no set reads v ^ u, nor does the first set after one correction,
    # while the correction at s reads v; the second pass must pass it over
    presets = set()
    for params in (DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS):
        for m in range(9, 17):
            code = get_code(params, m)
            if code.distance % 2 == 0:
                continue
            info_sets = code.lane_decoder().info_sets
            sets = [functools.reduce(int.__or__, masks) for masks in info_sets]
            for u, cw in enumerate(codewords(code)):
                inside = positions_of(cw & sets[0])
                if cw.bit_count() != code.distance or len(inside) < 3:
                    continue
                s = inside[0]
                kept = set(inside[1:]).union(positions_of(cw & t)[0] for t in sets[1:])
                kept.update([p for p in positions_of(cw & ~sets[0]) if p not in kept][: code.radius - len(kept)])
                if len(kept) > code.radius:
                    continue
                errors = [p for p in positions_of(cw) if p not in kept]
                v = random.Random(f"pass-two:{params.c}:{m}").getrandbits(m)
                y_int = code.encode_value(v) ^ sum(1 << p for p in errors)
                assert len(errors) == code.radius + 1 and s in errors
                assert read_message(info_sets[0], y_int ^ 1 << s) == v
                assert full_scan(code, y_int) == v ^ u
                assert code.decode_value(y_int) == v ^ u
                presets.add(params)
                break
    assert presets == {DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS}


@pytest.mark.parametrize("params, m", [(REDUCTION_CODE_PARAMS, 8), (DEFAULT_CODE_PARAMS, 9), (REDUCTION_CODE_PARAMS, 12)])
def test_words_at_half_an_even_distance_decode_as_the_full_scan_does(params, m):
    # a word of weight d/2 is no nearer to any codeword than to 0; half of a
    # minimum-weight codeword's support ties with it, and the tie goes to 0.
    # One more bit of that support makes the other codeword the nearer one
    code = get_code(params, m)
    half = code.distance // 2
    assert code.distance == 2 * half
    rng = random.Random(f"half-distance:{params.c}:{m}")
    words = [sum(1 << p for p in rng.sample(range(code.codeword_len), half)) for _ in range(100)]
    for cw in codewords(code):
        if cw.bit_count() == code.distance:
            support = positions_of(cw)
            words.append(sum(1 << p for p in support[:half]))
            words.append(sum(1 << p for p in support[: half + 1]))
    assert len(words) > 100
    for y_int in words:
        assert code.decode_value(y_int) == full_scan(code, y_int)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decode_value_matches_full_scan_at_lengths_9_to_16(data):
    params = data.draw(st.sampled_from((DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS)))
    code = get_code(params, data.draw(st.integers(9, 16)))
    n = code.codeword_len
    v = data.draw(st.integers(0, (1 << code.message_len) - 1))
    errors = data.draw(st.sets(st.integers(0, n - 1), max_size=code.radius + 2))
    y_int = code.encode_value(v) ^ sum(1 << i for i in errors)
    if len(errors) <= code.radius:
        assert code.decode_value(y_int) == v
    assert code.decode_value(y_int) == full_scan(code, y_int)


def pack(dec, values) -> int:
    """Lane values packed as the decoder packs a table sum."""
    return int.from_bytes(array(dec.lane_type, values).tobytes(), sys.byteorder)


@pytest.mark.parametrize(
    "lane_type, params, m",
    [("B", DEFAULT_CODE_PARAMS, 16), ("H", CodeParams(c=70, eps_star=Fraction(1, 16)), 4)],
)
def test_some_lane_below_on_hand_packed_lanes(lane_type, params, m):
    dec = get_code(params, m).lane_decoder()
    assert dec.lane_type == lane_type
    lanes, half = 1 << dec.low_bits, dec.half
    assert half == 1 << (8 * array(lane_type).itemsize - 1)
    rng = random.Random(lane_type)
    for t in (1, 2, 40, half - 1):
        values = [rng.randrange(t, half) for _ in range(lanes)]
        assert not dec.some_lane_below(pack(dec, values), t)
        for i in (0, lanes // 2, lanes - 1):
            assert dec.some_lane_below(pack(dec, values[:i] + [t - 1] + values[i + 1 :]), t)
    assert dec.some_lane_below(pack(dec, [half] * lanes), half)
    for t in (half + 1, half + 12, 2 * half - 1):
        for value in (0, 5, t, 2 * half - 1):
            assert dec.some_lane_below(pack(dec, [value] * lanes), t)
    # every lane below t - half: each lane goes below 0 and borrows from the
    # lane above, which leaves it just under 2*half with its guard bit set,
    # so only the `t > half` clause gives True (256 byte lanes of 5 at t=140)
    assert dec.some_lane_below(pack(dec, [5] * lanes), half + 12)


def test_decoder_tables_stay_small_at_m16():
    # 16 bytes x 256 byte values, each entry 256 one-byte lanes: 1 MiB in all
    dec = get_code(DEFAULT_CODE_PARAMS, 16).lane_decoder()
    tables = dec.tables or dec.build_tables()
    assert dec.lane_type == "B" and dec.n_bytes == 256
    assert len(tables) == 16
    assert all(len(table) == 256 for table in tables)
    assert all(entry < 1 << (8 * 256) for table in tables for entry in table)


@pytest.mark.parametrize(
    "params, m",
    [(params, m) for params in (DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS) for m in (2, 3, 8, 9, 16)]
    + [(CodeParams(c=130, eps_star=Fraction(1, 16)), 2), (CodeParams(c=70, eps_star=Fraction(1, 16)), 4)],
)
def test_each_walk_table_entry_packs_the_distances_from_its_byte_value(params, m):
    # lane lo of entry x of table i: the popcount of x XOR byte i (least
    # significant first) of the codeword of low message lo
    code = get_code(params, m)
    dec = code.lane_decoder()
    tables = dec.build_tables()
    low = [code.encode_value(lo) for lo in range(1 << min(m, 8))]
    width = array(dec.lane_type).itemsize
    assert len(tables) == -(-code.codeword_len // 8)
    for i, table in enumerate(tables):
        column = [cw >> 8 * i & 255 for cw in low]
        assert len(table) == 256
        for x, entry in enumerate(table):
            lanes = array(dec.lane_type, entry.to_bytes(width * len(low), sys.byteorder))
            assert lanes.tolist() == [(x ^ b).bit_count() for b in column]


@pytest.mark.parametrize("params", [DEFAULT_CODE_PARAMS, REDUCTION_CODE_PARAMS])
def test_decodes_that_skip_the_walk_never_build_its_tables(params):
    # a fresh code, whose tables no other test has built: words within the
    # radius and 2k-1 errors, for k sets, decode from the information sets;
    # the first word that walks builds the tables
    code = LinearCode(params, 16)
    dec = code.lane_decoder()
    k = min(code.radius, 2 * len(dec.info_sets) - 1)
    rng = random.Random(f"no-tables:{params.c}")
    for errors in [k] * 50 + [rng.randint(0, k) for _ in range(50)]:
        v = rng.getrandbits(16)
        pattern = sum(1 << p for p in rng.sample(range(code.codeword_len), errors))
        assert code.decode_value(code.encode_value(v) ^ pattern) == v
    assert dec.tables is None
    y_int = rng.getrandbits(code.codeword_len)
    cached = get_code(params, 16)
    assert cached is not code and cached.generator_rows == code.generator_rows
    assert code.decode_value(y_int) == full_scan(cached, y_int)
    assert dec.tables is not None and len(dec.tables) == dec.word_bytes


def test_read_tables_stay_small_at_m16():
    # 7 sets over 3 or 4 bytes each, a 256-entry table of 2-byte messages
    # per byte: 11 KiB in all
    dec = get_code(DEFAULT_CODE_PARAMS, 16).lane_decoder()
    tables = [table for reads in dec.reads for _, table in reads]
    assert all(table.itemsize == 2 and len(table) == 256 for table in tables)
    assert all(len(reads) <= 4 for reads in dec.reads)
    assert sum(len(table) * table.itemsize for table in tables) <= 12 * 1024


def test_decode_shape_errors():
    with pytest.raises(ShapeError):
        decode(DEFAULT_CODE_PARAMS, "010")  # not divisible by c
    # the module function scans the word once; the 0/1 test still comes first
    for bad in (5, None, ["0"] * 64, b"0" * 64, "0" * 63 + "2", "01x", " " + "0" * 63):
        with pytest.raises(ShapeError, match="^received word must be a string over 0/1, got "):
            decode(DEFAULT_CODE_PARAMS, bad)
    for bad in ("0" * 63, "1" * 65, "0" * 7):
        with pytest.raises(ShapeError, match=f"^received word length {len(bad)} not divisible by c=8$"):
            decode(DEFAULT_CODE_PARAMS, bad)
    code = get_code(DEFAULT_CODE_PARAMS, 8)
    # the int API checks its range too: a stray bit above the codeword (or
    # the message) and a negative value, which has every high bit set
    for bad in (code.encode_value(5) | 1 << code.codeword_len, -1):
        with pytest.raises(ShapeError):
            code.decode_value(bad)
    for bad in (1 << code.message_len, -1):
        with pytest.raises(ShapeError):
            code.encode_value(bad)


def test_construction_is_deterministic():
    a = LinearCode(DEFAULT_CODE_PARAMS, 8)
    b = LinearCode(DEFAULT_CODE_PARAMS, 8)
    assert a.generator_rows == b.generator_rows
    assert a.distance == b.distance
    assert get_code(DEFAULT_CODE_PARAMS, 8) is get_code(DEFAULT_CODE_PARAMS, 8)


def test_equal_params_made_apart_share_one_code():
    a = CodeParams(c=8, eps_star=Fraction(2, 32))
    b = CodeParams(c=8, eps_star=Fraction(1, 16))
    assert a is not b and a == b and repr(a) == repr(b) == "CodeParams(c=8, eps_star=Fraction(1, 16))"
    assert hash(a) == hash(b)
    assert get_code(a, 12) is get_code(b, 12) is get_code(DEFAULT_CODE_PARAMS, 12)
    assert get_code(REDUCTION_CODE_PARAMS, 12) is not get_code(b, 12)


def test_module_level_encode_decode():
    code = get_code(DEFAULT_CODE_PARAMS, 8)
    cw = code.encode_value(0b10110010)
    # string position i is bit i of the codeword
    y = "".join(str((cw >> i) & 1) for i in range(code.codeword_len))
    assert decode(DEFAULT_CODE_PARAMS, y) == "10110010"
