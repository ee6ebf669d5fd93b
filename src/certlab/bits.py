"""Bitstring helpers.

Bitstrings are plain Python strings over {'0','1'}, most significant bit
first.  All comparisons in this package are between equal-length strings,
where ordinary string order coincides with lexicographic order.  A string
is scanned for 0/1 once, by the entry that first receives it: `Distribution`,
`LabeledSample`, the decider's challenge, `first_certificate` and
`codes.decode` raise ShapeError, and the parser `FormulaEncoding.decode`
raises FormatError.  `ExampleLayout` builds valid points, and code that
reads a point later tests only its length.  The decider checks a
repetition's drawn points once; each proof's labels are chosen from
pre-built (point, 0) and (point, 1) pairs and are not checked again.
"""

from __future__ import annotations

import random

from .errors import ShapeError


def is_bits(s: str) -> bool:
    """True when the string s holds no character but 0 and 1."""
    # Deleting every 0 and 1 from the ASCII bytes leaves nothing.  One
    # C-level pass whose branch never varies on valid input; `str.count`
    # branches on every character and mispredicts on random bits.
    return s.isascii() and not s.encode("ascii").translate(None, b"01")


def check_bits(s: str, length: int | None = None, name: str = "bitstring") -> str:
    if not isinstance(s, str) or not is_bits(s):
        raise ShapeError(f"{name} must be a string over 0/1, got {s!r}")
    if length is not None and len(s) != length:
        raise ShapeError(f"{name} must have length {length}, got {len(s)}")
    return s


def int_to_bits(value: int, length: int) -> str:
    if value < 0 or value >= (1 << length):
        raise ShapeError(f"value {value} does not fit in {length} bits")
    return format(value, f"0{length}b") if length else ""


def bits_of_rank(rank: int, length: int) -> str:
    """The string of the given 1-indexed rank in MSB-first lexicographic
    order of {0,1}^length: rank - 1 in binary."""
    if not 1 <= rank <= (1 << length):
        raise ShapeError(f"rank {rank} out of range for length {length}")
    return int_to_bits(rank - 1, length)


def random_bits(rng: random.Random, length: int) -> str:
    return int_to_bits(rng.getrandbits(length), length) if length else ""
