"""Binary error-correcting codes with exhaustively verified distance.

Each supported message length gets its own linear code: rate exactly 1/c,
generator found by seeded random search, minimum distance certified by a
walk over all nonzero codewords (an attempt's walk stops once it cannot beat
the best so far), decoding by nearest codeword.  From LANE_WALK_MIN_LEN
message bits, on words below 256 bits, that walk is the decoder's lane walk
at y = 0 (below), whose packed sums weigh 256 codewords each; elsewhere it
is a Gray-code scan, one XOR per codeword.
The contract radius floor(eps_star*c*m) is what callers may rely on; the
certified radius (d-1)//2 is usually larger and is exported alongside.
Messages and codewords are ints throughout (`encode_value`, `decode_value`);
the module function `decode`, the benchmark's entry, is the one place a
received word is a string.

Nearest-codeword decoding is exact and table-driven.  A message splits into
its low h = min(m, 8) bits and its high part, and by linearity
cw(hi << h | lo) = cw(hi << h) ^ cw(lo).  For each byte of the received
word a table holds, per byte value, one int packing 2^h lanes: lane lo is
the distance from that byte to cw(lo)'s bits in the byte.  The tables are
built on the first walk, each entry the sum of the entries of its two
nibbles.  The sum of the entries a word selects is then its distance to
every low codeword at once.  No lane of the sum exceeds the codeword length,
so lanes are one byte below 256 bits and wider above, and no sum carries
into the next lane: the lanes are exact distances.  `LinearCode.decode_value`
walks the high parts in ascending order, so with a strict-improvement rule
and the smallest lane index at each minimum it returns what a scan of all
2^m codewords in message order returns, the smallest message at least
distance.  Before it reads the lanes of a sum, one guard-bit test on the
packed int (`_LaneDecoder.some_lane_below`) tells whether any lane is below
the best distance so far; a high part with none cannot win under the strict
rule, so skipping it leaves the result unchanged.

A word within the certified radius rarely needs that walk.  Once per code,
greedy GF(2) elimination over the positions in order picks disjoint
information sets: m positions each, whose bits fix the message.  The
message a set reads is linear in the word, and the elimination keeps a set's
positions in a short window (3 or 4 bytes at c=8, m=16), so a set is kept
as one table per byte of its window: entry x is the message the set reads
off byte value x at that byte, and the set reads a word as the XOR of the
entries its bytes select.  When the walk has more than one high part,
`decode_value` converts the received word to bytes once, first reads each
set's candidate message off it and returns it if its codeword lies within
the certified radius (d-1)//2 (Prange's information-set decoding).  A set
that carries no error reads the sent message.  When every set carries an
error, a second pass lets each set carry one (Lee and Brickell's
refinement): a one-bit word 1 << s at the set's position s reads the
message move_s, so the candidates are the message the first pass read XOR
each move_s, and one within the radius is returned.  Both passes are exact:
a codeword within that radius is the unique nearest one, which is what the
walk returns.  With k disjoint sets, some set carries at most one of any
2k-1 errors, so no word within min((d-1)//2, 2k-1) errors walks.

Before the sets and the walk, a word of weight at most d/2 decodes to 0: no nonzero
codeword is nearer to it than 0, and a tie goes to the smaller message.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .bits import check_bits
from .errors import BudgetError, ConfigError, ShapeError

MIN_MESSAGE_LEN = 2
MAX_MESSAGE_LEN = 16
#: Longest codeword c*m the generator search builds.
MAX_CODEWORD_BITS = 1024

#: The decoder resolves the low LOW_BITS message bits at once: a table
#: entry packs one lane per low message, and a table is indexed by one byte
#: of the received word.
LOW_BITS = 8


class CodeParams:
    """Rate denominator c and correctable-fraction contract eps_star: a value,
    whose eq, hash and repr read (c, eps_star)."""

    __slots__ = ("c", "eps_star", "code_key")

    def __init__(self, c: int, eps_star: Fraction) -> None:
        if not isinstance(c, int) or c <= 1:
            raise ConfigError("rate denominator c must be an integer > 1")
        eps = Fraction(eps_star)
        if not Fraction(0) < eps < Fraction(1, 2):
            raise ConfigError("eps_star must lie in (0, 1/2)")
        if eps * c * MIN_MESSAGE_LEN < 1:
            raise ConfigError(
                f"eps_star*c*m < 1 at the smallest supported length m={MIN_MESSAGE_LEN}"
            )
        self.c, self.eps_star = c, eps
        #: `get_code`'s key: ints hash in C, where a Fraction hashes in Python
        self.code_key = (c, eps.numerator, eps.denominator)

    def __eq__(self, other):
        return self.code_key == other.code_key if type(other) is CodeParams else NotImplemented

    def __hash__(self) -> int:
        return hash(self.code_key)

    def __repr__(self) -> str:
        return f"CodeParams(c={self.c}, eps_star={self.eps_star!r})"

    def contract_radius(self, message_len: int) -> int:
        """floor(eps_star * c * m): the adversarial error count decode must fix."""
        return int(self.eps_star * self.c * message_len)

    def codeword_len(self, message_len: int) -> int:
        return self.c * message_len


#: Module-wide default used by the concept class and learner suites.
DEFAULT_CODE_PARAMS = CodeParams(c=8, eps_star=Fraction(1, 16))

#: Preset used by the decider pipelines, where the sample budget is small
#: and a shorter codeword keeps the index space coverable (see notes).
REDUCTION_CODE_PARAMS = CodeParams(c=4, eps_star=Fraction(1, 8))


def _span(rows: list[int]) -> list[int]:
    """Every XOR of a subset of rows, indexed by MSB-first message value:
    message bit j (from the left) selects rows[j]."""
    k = len(rows)
    words = [0] * (1 << k)
    for v in range(1, 1 << k):
        words[v] = words[v & (v - 1)] ^ rows[k - (v & -v).bit_length()]
    return words


#: `_min_weight` certifies with the lane walk from this message length up,
#: and only with one-byte lanes (words below 256 bits).  The lane walk pays
#: a fixed cost per attempt for its nibble packs, the Gray walk a cost per
#: codeword.  Searches timed with each walk forced (min of 5, interleaved,
#: Python 3.11, 2-core host): at m=16, c=8 26 -> 5.7 ms and c=4 40 -> 6.0
#: ms; at m=14, c=8 9.8 -> 4.5 ms; at m=13 the lane walk is 1.4-1.7x
#: faster under both presets but 2.8x slower at eps_star = 9/20, whose 400
#: attempts mostly stop early; at m = 9..12 the Gray walk is 1.4-4.5x
#: faster.  With two-byte lanes (c=20, m = 13..16) the lane walk was
#: 0.5-1.0x.
LANE_WALK_MIN_LEN = 14


def _min_weight(rows: list[int], stop: int) -> int:
    """The least nonzero-codeword weight when no weight is <= stop, else
    the weight <= stop at which the walk stopped.  The walk is the lane walk
    or the Gray-code scan, chosen from the message length and the lane width
    (see LANE_WALK_MIN_LEN)."""
    if len(rows) >= LANE_WALK_MIN_LEN and max(rows).bit_length() < 256:
        return _lane_min_weight(rows, stop)
    return _gray_min_weight(rows, stop)


def _gray_min_weight(rows: list[int], stop: int) -> int:
    """`_min_weight` by a Gray-code walk over all nonzero message values,
    one XOR per step."""
    acc = 0
    best = 1 << 62
    for i in range(1, 1 << len(rows)):
        acc ^= rows[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
            if best <= stop:
                break
    return best


def _lane_min_weight(rows: list[int], stop: int) -> int:
    """`_min_weight` by the decoder's lane walk at y = 0, for at least
    LOW_BITS rows: the distance from 0 to a codeword is its weight.

    The codewords with a zero high part or a zero low part are weighed one
    by one first, so an attempt that meets a weight <= stop there builds
    nothing.  Otherwise each byte of the low codewords gets its nibble
    packs, and per nonzero high part cw(hi << h) one sum of the packs its
    nibbles select holds the weights of all 2^h codewords cw(hi << h | lo);
    its lanes are read only when `some_lane_below` finds one below the best
    weight so far."""
    low, high = _span(rows[-LOW_BITS:]), _span(rows[:-LOW_BITS])
    best = min(w.bit_count() for w in itertools.chain(low[1:], high[1:]))
    if best <= stop:
        return best
    codeword_len = max(rows).bit_length()
    word_bytes = -(-codeword_len // 8)
    lanes = _Lanes(LOW_BITS, codeword_len)
    packs = [lanes.nibble_packs(column) for column in _byte_columns(low, word_bytes)]
    # the low-nibble packs of every byte, then the high-nibble packs
    tables = [lows for lows, _ in packs] + [highs for _, highs in packs]
    some_lane_below, as_lanes, n_bytes = lanes.some_lane_below, lanes.as_lanes, lanes.n_bytes
    for cw in high[1:]:
        word = cw.to_bytes(word_bytes, "little")
        total = sum(map(list.__getitem__, tables, word.translate(_LOW_NIBBLE) + word.translate(_HIGH_NIBBLE)))
        if some_lane_below(total, best):
            d = min(as_lanes(total.to_bytes(n_bytes, sys.byteorder)))
            if d < best:
                best = d
                if best <= stop:
                    break
    return best


def _search_attempts(k: int) -> tuple[int, int]:
    """(baseline attempts, hard cap): sample the baseline for quality, then
    keep sampling until the contract target is met or the cap is reached."""
    if k <= 4:
        return 4000, 8000
    if k <= 8:
        return 400, 2000
    if k <= 12:
        return 60, 600
    return 12, 400


class LinearCode:
    """One [c*m, m] binary linear code with certified minimum distance."""

    def __init__(self, params: CodeParams, message_len: int) -> None:
        if not MIN_MESSAGE_LEN <= message_len <= MAX_MESSAGE_LEN:
            raise ConfigError(
                f"message length {message_len} unsupported "
                f"(supported: {MIN_MESSAGE_LEN}..{MAX_MESSAGE_LEN})"
            )
        self.message_len = message_len
        self.codeword_len = params.codeword_len(message_len)
        if self.codeword_len > MAX_CODEWORD_BITS:
            raise BudgetError(f"codeword length {self.codeword_len} exceeds {MAX_CODEWORD_BITS} bits")
        self.contract_radius = params.contract_radius(message_len)
        target = 2 * self.contract_radius + 1
        # Plotkin: a nonzero codeword's mean weight, n*2^(m-1)/(2^m-1), bounds d
        bound = self.codeword_len * (1 << message_len - 1) // ((1 << message_len) - 1)
        if target > bound:
            raise ConfigError(
                f"distance {target} needed at length {message_len} exceeds the Plotkin bound "
                f"{bound} of a [{self.codeword_len}, {message_len}] linear code"
            )
        # Griesmer: an [n, m] linear code of distance d has n >= sum_{i<m} ceil(d/2^i)
        needed = sum(-(-target >> i) for i in range(message_len))
        if needed > self.codeword_len:
            raise ConfigError(
                f"distance {target} needed at length {message_len} needs codeword length "
                f"{needed} by the Griesmer bound, above {self.codeword_len}"
            )
        rng = random.Random(f"certlab-code-c{params.c}-eps{params.eps_star}-m{message_len}")
        baseline, cap = _search_attempts(message_len)
        best_rows, best_d = None, -1
        for attempt in range(cap):
            rows = [rng.getrandbits(self.codeword_len) for _ in range(message_len)]
            # kept only if d > best_d, so its scan may stop at a weight <= best_d
            d = _min_weight(rows, best_d)
            if d > best_d:
                best_rows, best_d = rows, d
            if attempt + 1 >= baseline and best_d >= target:
                break
        assert best_rows is not None
        self.generator_rows = best_rows
        self.distance = best_d
        self.radius = (best_d - 1) // 2
        if self.radius < self.contract_radius:
            raise ConfigError(
                f"search found distance {best_d} at length {message_len}: its certified radius "
                f"{self.radius} is below the contract radius {self.contract_radius}"
            )
        self._decoder: _LaneDecoder | None = None

    def lane_decoder(self) -> _LaneDecoder:
        """The tables `decode_value` reads (built lazily)."""
        if self._decoder is None:
            self._decoder = _LaneDecoder(self.generator_rows, self.codeword_len)
        return self._decoder

    def encode_value(self, value: int) -> int:
        if value >> self.message_len:
            raise ShapeError(f"message value must lie in [0, 2^{self.message_len}), got {value}")
        acc = 0
        for j in range(self.message_len):
            if (value >> (self.message_len - 1 - j)) & 1:
                acc ^= self.generator_rows[j]
        return acc

    def decode_value(self, y_int: int) -> int:
        """Nearest codeword by Hamming distance; ties broken toward the
        lexicographically smallest message.  Exact within `radius`.  y_int
        must lie in [0, 2^codeword_len); bit i is codeword position i.

        For each high part hi in ascending order, y ^ cw(hi << h) selects one
        table entry per byte, split little-endian as the information sets
        read y; their sum packs the distances to all
        2^h codewords cw(hi << h | lo), and `min` and `.index` over its lanes
        give the smallest lo at the least distance.  A high part is kept only
        when strictly better than the best so far, so the result is the
        smallest message at the global minimum, as a scan in message order
        would find it.  The lanes are read only when `some_lane_below` finds
        one below the best distance: it never misses such a lane, and a high
        part without one would not be kept.  A codeword within `radius` is
        the unique nearest one, so the search stops at the first high part
        that reaches it.  It returns 0 at once when y is within half the
        distance of 0: every other codeword is at least as far, and a tie
        goes to message 0.

        Before the walk, when there is more than one high part, each
        information set reads a candidate message v off y, the XOR of one
        table entry per byte of y its positions span, and v is returned when
        y is within `radius` of cw(v).
        By the same uniqueness that is the message the walk would return; a
        set with no error among its positions reads the sent message.  When
        every set carries an error, a second pass tries, per set, each
        v ^ move_s: the message read had the one error been at the set's
        position s.  A word within `radius` walks only when every set
        carries at least two of its errors."""
        if y_int >> self.codeword_len:
            raise ShapeError(f"received word must lie in [0, 2^{self.codeword_len})")
        best_v, best_d = 0, y_int.bit_count()
        if 2 * best_d <= self.distance:
            return 0
        radius = self.radius
        dec = self.lane_decoder()
        high, low, h, low_mask = dec.high, dec.low, dec.low_bits, dec.low_mask
        if dec.reads:
            y_bytes = y_int.to_bytes(dec.word_bytes, "little")
            missed = []
            for reads in dec.reads:
                v = 0
                for i, table in reads:
                    v ^= table[y_bytes[i]]
                e = y_int ^ high[v >> h] ^ low[v & low_mask]
                if e.bit_count() <= radius:
                    return v
                missed.append((v, e))
            for (v, e), moves, flips in zip(missed, dec.moves, dec.flips):
                weights = [(e ^ flip).bit_count() for flip in flips]
                d = min(weights)
                if d <= radius:
                    return v ^ moves[weights.index(d)]
        tables = dec.tables or dec.build_tables()
        word_bytes, n_bytes, as_lanes = dec.word_bytes, dec.n_bytes, dec.as_lanes
        some_lane_below = dec.some_lane_below
        for hi, cw in enumerate(high):
            total = sum(map(list.__getitem__, tables, (y_int ^ cw).to_bytes(word_bytes, "little")))
            if not some_lane_below(total, best_d):
                continue
            lanes = as_lanes(total.to_bytes(n_bytes, sys.byteorder))
            d = min(lanes)
            if d < best_d:
                best_v, best_d = (hi << h) | lanes.index(d), d
                if d <= radius:
                    break
        return best_v


#: Translate a byte to its low nibble, and to its high nibble.
_LOW_NIBBLE = bytes(b & 15 for b in range(256))
_HIGH_NIBBLE = bytes(b >> 4 for b in range(256))


def _byte_columns(words: list[int], word_bytes: int) -> list[bytes]:
    """Per byte i of the words, little-endian: byte i of each word, in order."""
    joined = b"".join(w.to_bytes(word_bytes, "little") for w in words)
    return [joined[i::word_bytes] for i in range(word_bytes)]


def _read_message(masks: list[int], y_int: int) -> int:
    """The message an information set, given as its parity masks, reads
    off the word y_int."""
    v = 0
    for mask in masks:
        v = v << 1 | (y_int & mask).bit_count() & 1
    return v


def _information_sets(rows: list[int], codeword_len: int) -> list[list[int]]:
    """Disjoint information sets of the code generated by rows, found by
    greedy GF(2) elimination over the positions in order.  Each is given as
    m parity masks: for a codeword y of message v, message bit j (MSB
    first) of v is `(y & masks[j]).bit_count() & 1`."""
    m = len(rows)
    sets = []
    # pivot -> (a column with that top bit, the positions whose columns XOR to it)
    basis: dict[int, tuple[int, int]] = {}
    for i in range(codeword_len):
        # position i's column: bit m-1-j is row j's bit i, so that
        # codeword bit i is (v & column).bit_count() & 1
        col, positions = 0, 1 << i
        for row in rows:
            col = col << 1 | (row >> i) & 1
        while col and col.bit_length() - 1 in basis:
            b_col, b_positions = basis[col.bit_length() - 1]
            col, positions = col ^ b_col, positions ^ b_positions
        if col:
            basis[col.bit_length() - 1] = (col, positions)
        if len(basis) < m:
            continue
        masks = []
        for j in range(m):
            # message bit j's unit column as an XOR of the set's columns
            col, positions = 1 << (m - 1 - j), 0
            while col:
                b_col, b_positions = basis[col.bit_length() - 1]
                col, positions = col ^ b_col, positions ^ b_positions
            masks.append(positions)
        sets.append(masks)
        basis = {}
    return sets


class _Lanes:
    """The lane geometry of words of codeword_len bits against 2^low_bits
    low codewords: one lane per low message, packed into one int, that the
    decoder's walk and the lane certification share."""

    def __init__(self, low_bits: int, codeword_len: int) -> None:
        # the narrowest lane that holds every distance 0..codeword_len
        lane_type = next(t for t in "BHIQ" if codeword_len < 1 << (8 * array(t).itemsize))
        self.low_bits = low_bits
        self.lane_type = lane_type
        self.n_bytes = array(lane_type).itemsize << low_bits
        # one-byte lanes are the bytes themselves; wider ones an array over them
        self.as_lanes = bytes if lane_type == "B" else partial(array, lane_type)
        # a 1 in every lane; half is a lane's top bit, guard that bit in every lane
        self.ones = self._packed(b"\1" * (1 << low_bits))
        self.half = 1 << (8 * array(lane_type).itemsize - 1)
        self.guard = self.ones * self.half

    def _packed(self, distances: bytes) -> int:
        """One lane per distance, in lane order, as one int."""
        if self.lane_type != "B":
            distances = array(self.lane_type, list(distances)).tobytes()
        return int.from_bytes(distances, sys.byteorder)

    def nibble_packs(self, column: bytes) -> tuple[list[int], list[int]]:
        """For one byte of the low codewords, given as the column of their
        bytes there: per nibble value nib, the packed distances from nib to
        each low codeword's low nibble, and those to its high nibble."""
        # the distance from nib 0 is the nibble's popcount, the sum of its
        # four bit planes; setting bit b of nib adds 1 to each lane whose
        # bit b is clear and takes 1 from each lane whose bit is set.  Lane
        # arithmetic on the packed int is exact whenever every lane of the
        # result lies in range, whatever the steps between
        column_packed = self._packed(column)
        planes = [column_packed >> b & self.ones for b in range(8)]
        lows, highs = [sum(planes[:4])], [sum(planes[4:])]
        for packs, nibble_planes in ((lows, planes[:4]), (highs, planes[4:])):
            for plane in nibble_planes:
                step = self.ones - (plane << 1)
                packs += [pack + step for pack in packs]
        return lows, highs

    def some_lane_below(self, total: int, t: int) -> bool:
        """False only if no lane of the packed sum `total` is below t.

        With t <= half, setting every guard bit and subtracting t from each
        lane borrows across no lane, and a lane below half keeps its guard
        bit exactly when it is at least t; so a lane below t clears its
        guard.  A lane of half or more may clear it too, which gives True
        and only costs the caller its exact check."""
        return t > self.half or ((total | self.guard) - t * self.ones) & self.guard != self.guard


class _LaneDecoder(_Lanes):
    """The decoding tables of one code (see the module docstring)."""

    def __init__(self, rows: list[int], codeword_len: int) -> None:
        h = min(len(rows), LOW_BITS)
        super().__init__(h, codeword_len)
        self.low = low = _span(rows[len(rows) - h :])
        self.low_mask = (1 << h) - 1
        self.high = _span(rows[: len(rows) - h])
        # with one high part the walk is one table sum: no candidate step
        self.info_sets = _information_sets(rows, codeword_len) if len(self.high) > 1 else []
        self.word_bytes = -(-codeword_len // 8)
        message_type = next(t for t in "BHIQ" if len(rows) <= 8 * array(t).itemsize)
        # per set: the message move_s it reads off 1 << s at each of its
        # positions s, in order; move_s's codeword flip_s; and (i, table_i)
        # for each byte i its positions span.  The read is linear, so a set
        # reads a word as the XOR of table_i[byte i of the word], where
        # table_i[x] is the XOR of the moves that x's bits select
        self.moves, self.flips, self.reads = [], [], []
        for masks in self.info_sets:
            moves = {
                s: _read_message(masks, 1 << s)
                for s in range(codeword_len)
                if any(mask >> s & 1 for mask in masks)
            }
            self.moves.append(list(moves.values()))
            self.flips.append([self.high[mv >> h] ^ low[mv & self.low_mask] for mv in moves.values()])
            self.reads.append([
                (i, array(message_type, _span([moves.get(8 * i + b, 0) for b in reversed(range(8))])))
                for i in range(min(moves) // 8, max(moves) // 8 + 1)
            ])
        #: the walk's tables, one per byte of the word, built on the first walk
        self.tables: list[list[int]] | None = None

    def build_tables(self) -> list[list[int]]:
        """Per byte i of the word, entry x packs the distance from byte value
        x to byte i of every low codeword: the sum of its low nibble's entry
        and its high nibble's."""
        tables = []
        for column in _byte_columns(self.low, self.word_bytes):
            lows, highs = self.nibble_packs(column)
            tables.append([low + high for high in highs for low in lows])
        self.tables = tables
        return tables


_CODE_CACHE: dict[tuple[tuple[int, int, int], int], LinearCode] = {}


def get_code(params: CodeParams, message_len: int) -> LinearCode:
    key = (params.code_key, message_len)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = LinearCode(params, message_len)
        _CODE_CACHE[key] = code
    return code


def decode(params: CodeParams, y: str) -> str:
    """The message, MSB first, of the codeword nearest the received word y,
    whose string position i is bit i of the codeword int."""
    check_bits(y, name="received word")
    if len(y) % params.c != 0:
        raise ShapeError(f"received word length {len(y)} not divisible by c={params.c}")
    m = len(y) // params.c
    return format(get_code(params, m).decode_value(int(y[::-1], 2)), f"0{m}b")


RadiusResult = namedtuple("RadiusResult", "tested recovered exhaustive")


def _pattern_count(n: int, radius: int) -> int:
    return sum(math.comb(n, w) for w in range(radius + 1))


def radius_recovery(
    params: CodeParams,
    message_len: int,
    *,
    exhaustive_limit: int = 10**6,
    samples: int = 10**4,
    seed: int | str = 0,
) -> RadiusResult:
    """Unique-decoding check at the contract radius.

    If the number of corruption patterns of weight <= floor(eps_star*c*m) is
    within exhaustive_limit, every pattern is tried (message cycled
    deterministically per pattern); otherwise `samples` seeded random
    radius-weight patterns are tried against random messages.  Linearity plus
    the certified distance make per-pattern single-message checks equivalent
    to checking all messages.
    """
    code = get_code(params, message_len)
    n = code.codeword_len
    radius = code.contract_radius
    n_msgs = 1 << message_len
    exhaustive = _pattern_count(n, radius) <= exhaustive_limit
    if exhaustive:
        patterns = itertools.chain.from_iterable(
            itertools.combinations(range(n), w) for w in range(radius + 1)
        )
        cases = ((idx % n_msgs, positions) for idx, positions in enumerate(patterns))
    else:
        rng = random.Random(f"radius:{seed}:{params.c}:{message_len}")
        cases = (
            (rng.randrange(n_msgs), rng.sample(range(n), radius)) for _ in range(samples)
        )
    tested = recovered = 0
    for val, positions in cases:
        pattern = sum(1 << p for p in positions)
        tested += 1
        if code.decode_value(code.encode_value(val) ^ pattern) == val:
            recovered += 1
    return RadiusResult(tested=tested, recovered=recovered, exhaustive=exhaustive)
