"""NP-style verifiers, the fixed-width formula encoding, and the
first-certificate search.

A verifier has an instance length n, a certificate length p and two
answers for an instance z, where a certificate is numbered by its integer
value v:
- check(z, w), whether it accepts the certificate w, which the decider runs
  on each decoded certificate;
- first_accepted(z), the least v it accepts, or None.
`ThreeSatVerifier` is the verifier every command builds.  Each formula is
made canonical once: `FormulaEncoding.decode` builds canonical clauses
itself, and a caller that holds the formula has `ThreeSatVerifier.encode`
remember it, so its z is never decoded back.  The verifier memoises a
formula's first accepted value.  No command builds the 2^p-bit accept
mask: `accept_mask` and `sat.satisfying_mask` stay only as names the
benchmark traces, until ROADMAP item 12 moves them beside the tests.

The one NP primitive the rest of the package uses is the lexicographically
first accepted certificate, which `first_certificate` takes from
first_accepted: for a formula, a lex-first search that never builds the
2^p-bit accept mask.  Its cost model is a binary search over k made of p
lex-oracle calls "is one of the first k certificates accepted?", each a
rank-order scan with early exit.  The lex oracle in tests/oracles.py runs
those scans, and the tests check the StepCounter's charges against it.
"""

from __future__ import annotations

from .bits import bits_of_rank, check_bits, is_bits
from .errors import BudgetError, ConfigError, FormatError
from .sat import ThreeSatInstance, eval_assignment, first_satisfying, satisfying_mask

#: Longest certificate length p whose 2^p certificates first_certificate searches.
DEFAULT_BUDGET_BITS = 24


class StepCounter:
    """Per-invocation cost accounting: oracle calls and modeled scan steps."""

    __slots__ = ("oracle_calls", "steps")

    def __init__(self) -> None:
        self.oracle_calls = 0
        self.steps = 0

    def __repr__(self) -> str:
        return f"StepCounter(oracle_calls={self.oracle_calls}, steps={self.steps})"


# -- fixed-width binary encoding of formulas ----------------------------------

#: The absent slots that fill a clause of each width to 3 slots.
_ABSENT_SLOTS = ((0, 0, 0), (0, 0), (0,), ())


class FormulaEncoding:
    """Fixed-width bit layout for formulas with up to max_vars variables and
    max_clauses clauses; see README for the field table.  A value: eq, hash
    and repr read (max_vars, max_clauses).

    Layout (MSB first): num_vars | clause_count | max_clauses clause blocks.
    Each clause block holds 3 literal slots of (present, polarity, var index);
    unused slots and unused blocks are all-zero.  The all-zero string decodes
    to the canonical degenerate formula (0 variables, no clauses).

    Three derived tables serve the codec.
    `encode` joins each literal's slot text (an absent slot's is under 0).
    `decode` maps each slot to a key, 2 * var for a positive literal and
    2 * var + 1 for a negative one (0 for an all-zero absent slot, -1 for one
    with stray bits), so that sorted keys are in canonical order.  It maps
    each key back to its literal as a 1-tuple, the absent key 0 to (), and a
    clause is the sum of its sorted keys' tuples, each repeat skipped.
    """

    __slots__ = (
        "max_vars", "max_clauses", "num_vars_bits", "clause_count_bits", "var_bits",
        "slot_bits", "clause_bits", "width", "_slot_text", "_slot_keys", "_key_lits",
    )

    def __init__(self, max_vars: int, max_clauses: int) -> None:
        if max_vars < 1 or max_clauses < 0:
            raise ConfigError("max_vars must be >= 1 and max_clauses >= 0")
        var_bits = max(1, (max_vars - 1).bit_length())
        slot_bits, present, positive = 2 + var_bits, 2 << var_bits, 1 << var_bits
        slot_keys = [0] + [-1] * (2 * present - 1)
        key_lits = [()] * (2 * positive + 2)
        slot_text = {0: "0" * slot_bits}  # 0 stands for an absent slot
        for var in range(1, positive + 1):
            for lit, slot in ((var, present | positive | var - 1), (-var, present | var - 1)):
                key = 2 * var + (lit < 0)
                slot_keys[slot], key_lits[key] = key, (lit,)
                if var <= max_vars:
                    slot_text[lit] = format(slot, f"0{slot_bits}b")
        self.max_vars, self.max_clauses = max_vars, max_clauses
        self.num_vars_bits = max_vars.bit_length()
        self.clause_count_bits = max(1, max_clauses.bit_length())
        self.var_bits, self.slot_bits, self.clause_bits = var_bits, slot_bits, 3 * slot_bits
        self.width = self.num_vars_bits + self.clause_count_bits + max_clauses * self.clause_bits
        self._slot_text, self._slot_keys, self._key_lits = slot_text, tuple(slot_keys), tuple(key_lits)

    def __eq__(self, other):
        if type(other) is not FormulaEncoding:
            return NotImplemented
        return (self.max_vars, self.max_clauses) == (other.max_vars, other.max_clauses)

    def __hash__(self) -> int:
        return hash((self.max_vars, self.max_clauses))

    def __repr__(self) -> str:
        return f"FormulaEncoding(max_vars={self.max_vars}, max_clauses={self.max_clauses})"

    def encode(self, inst: ThreeSatInstance) -> str:
        """The formula's bits; any clause tuple of up to 3 literals over
        variables 1..max_vars encodes as it is, repeats included."""
        if inst.num_vars > self.max_vars:
            raise ConfigError(f"instance has {inst.num_vars} vars, encoding allows {self.max_vars}")
        if len(inst.clauses) > self.max_clauses:
            raise ConfigError(
                f"instance has {len(inst.clauses)} clauses, encoding allows {self.max_clauses}"
            )
        head = format(
            inst.num_vars << self.clause_count_bits | len(inst.clauses),
            f"0{self.num_vars_bits + self.clause_count_bits}b",
        )
        text = self._slot_text
        body = "".join([text[lit] for c in inst.clauses for lit in c + _ABSENT_SLOTS[len(c)]])
        return (head + body).ljust(self.width, "0")

    def decode(self, bits: str) -> ThreeSatInstance:
        """The formula the bits encode, its clauses canonical, or FormatError.
        Stray bits anywhere are reported before a variable above num_vars,
        and of those the first in slot order is named."""
        if not isinstance(bits, str) or not is_bits(bits):
            raise FormatError(f"encoded formula must be a string over 0/1, got {bits!r}")
        if len(bits) != self.width:
            raise FormatError(f"encoded formula must have {self.width} bits, got {len(bits)}")
        head = self.num_vars_bits + self.clause_count_bits
        num_vars = int(bits[: self.num_vars_bits], 2)
        count = int(bits[self.num_vars_bits : head], 2)
        if num_vars > self.max_vars or count > self.max_clauses:
            raise FormatError(
                f"header declares {num_vars} vars and {count} clauses,"
                f" encoding allows {self.max_vars} and {self.max_clauses}"
            )
        end = head + count * self.clause_bits
        if "1" in bits[end:]:
            raise FormatError("bits set past the declared clause blocks")
        slot_keys, key_lit = self._slot_keys, self._key_lits
        slot_bits, clause_bits = self.slot_bits, self.clause_bits
        low = (1 << slot_bits) - 1
        limit, outside = 2 * num_vars + 1, 0  # the largest key in range; the first key above it
        clauses = []
        for start in range(head, end, clause_bits):
            block = int(bits[start : start + clause_bits], 2)
            a = slot_keys[block >> 2 * slot_bits]
            b = slot_keys[block >> slot_bits & low]
            c = slot_keys[block & low]
            x, y, z = sorted((a, b, c))
            if z > limit and not outside:
                outside = next(k for k in (a, b, c) if k > limit)
            # x <= 0 is an absent slot: it and every slot after it are all-zero
            if x <= 0 and (c or a < 0 or b < 0 or b and not a):
                raise FormatError("a literal slot follows an absent one or has stray bits")
            clauses.append(
                key_lit[x] + (() if y == x else key_lit[y]) + (() if z == y else key_lit[z])
            )
        if outside:
            (lit,) = key_lit[outside]
            raise FormatError(f"literal {lit} references a variable outside [1, {num_vars}]")
        return ThreeSatInstance._of_canonical(num_vars, tuple(clauses))


#: A verifier's memo: (z, formula, first accepted value).
_Memo = tuple[str, ThreeSatInstance | None, int | None]


class ThreeSatVerifier:
    """Certificate checker for encoded formulas: the certificate is an
    assignment to max_vars variables; bits beyond an instance's declared
    num_vars are ignored.  Malformed instance strings reject everything, and
    a p beyond the enumeration budget raises BudgetError when the verifier
    is made.

    The verifier remembers only the instance it was last asked about: its
    string, its decoded formula (None when malformed) and, once read, its
    first accepted value (None before; -1 stands for none accepted).  Every
    caller asks about one instance many times in a row, and a reader takes
    the whole memo at once, so it never mixes two instances.  A caller that
    holds the formula has `encode` remember it, and z is not decoded.
    """

    def __init__(self, encoding: FormulaEncoding) -> None:
        self.encoding = encoding
        self.n = encoding.width
        self.p = encoding.max_vars
        _check_budget(self)
        # "" encodes no instance (every width is at least 2) and rejects everything
        self._memo: _Memo = ("", None, -1)

    def _read(self, z: str) -> _Memo:
        """(z, decoded formula or None, first accepted value or None),
        decoded when z is not the remembered instance; a malformed z's first
        value is -1."""
        memo = self._memo
        if memo[0] != z:
            try:
                memo = (z, self.encoding.decode(z), None)
            except FormatError:
                memo = (z, None, -1)
            self._memo = memo
        return memo

    def encode(self, inst: ThreeSatInstance) -> str:
        """The formula's z, remembered with the formula as `_read` remembers
        a decoded instance; inst must be canonical, so that it equals z's
        decoding."""
        z = self.encoding.encode(inst)
        self._memo = (z, inst, None)
        return z

    def check(self, z: str, w: str) -> bool:
        inst = self._read(z)[1]
        return inst is not None and eval_assignment(inst, w)

    def accept_mask(self, z: str) -> int:
        """Bit v set iff certificate v is accepted, built on every call;
        no command reads it."""
        inst = self._read(z)[1]
        return 0 if inst is None else satisfying_mask(inst, self.p)

    def first_accepted(self, z: str) -> int | None:
        """The least accepted certificate's value, or None, searched on its
        first read; the accept mask is not built."""
        z, inst, first = self._read(z)
        if first is None:
            found = first_satisfying(inst, self.p)
            first = -1 if found is None else found
            self._memo = (z, inst, first)
        return None if first < 0 else first


# -- the first certificate -----------------------------------------------------


def _check_budget(v: ThreeSatVerifier) -> None:
    if v.p > DEFAULT_BUDGET_BITS:
        raise BudgetError(
            f"certificate length {v.p} exceeds enumeration budget of {DEFAULT_BUDGET_BITS} bits"
        )


def _charge(counter: StepCounter | None, rank: int, k: int) -> None:
    """Charge one lex-oracle call at threshold k, given the first accepted
    rank: the rank-order scan of the first k certificates checks rank of them
    if rank <= k and all k otherwise.  The lex oracle in tests/oracles.py
    runs that scan and counts the same steps."""
    if counter is not None:
        counter.oracle_calls += 1
        counter.steps += min(rank, k)


def first_certificate(
    v: ThreeSatVerifier, z: str, *, counter: StepCounter | None = None
) -> str | None:
    """Lexicographically first accepted certificate, or None.

    Its rank is one past the verifier's first accepted value.  The counter
    is charged for the binary search that finds the minimal k with an
    accepted certificate among the first k: p lex-oracle calls, each a
    rank-order scan charged as the lex oracle in tests/oracles.py counts
    it.  One direct `check` then asserts consistency.
    """
    check_bits(z, length=v.n, name="instance")
    _check_budget(v)
    first = v.first_accepted(z)
    rank = (1 << v.p) + 1 if first is None else first + 1
    lo, hi = 1, 1 << v.p
    while lo < hi:
        mid = (lo + hi) // 2
        _charge(counter, rank, mid)
        if rank <= mid:
            hi = mid
        else:
            lo = mid + 1
    w = bits_of_rank(lo, v.p)
    return w if v.check(z, w) else None
