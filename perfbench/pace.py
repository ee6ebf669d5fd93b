"""The machine's pace, measured alongside the tasks, to scale task times by.

On a shared host the same Python code runs at a pace that changes within
tens of milliseconds and from minute to minute (a workload's median task
took 1.7x as long in one run as in another of the same inputs), because
other tenants share the cores and their caches.  A fixed probe is timed
between tasks, outside the task timers; a task's time is scaled by the
probe's reference time over the probe times around it, which reports the
task at the pace at which the probe takes its reference time.  The probes
are stdlib code of the benchmark, independent of certlab, so a change to
certlab changes the scaled times exactly as it changes the raw ones.

Contention slows interpreted code and big-integer streaming by different
amounts, so there are two probes, and each workload is scaled by the one
that does the kind of work its tasks spend their time on:

  interp  interpreted integer arithmetic, dict and list indexing, bit
          operations on small integers and string building;
  bigint  shifts, ands and ors of 2**20-bit integers, the size of
          certlab's satisfying-assignment masks at 20 variables;
  bigdiv  one long division of a 2**16-bit integer by a 4099-bit one, the
          kind of work that builds certlab's variable masks.

Neither allocates container objects, so neither triggers a garbage
collection that would charge certlab's heap to the probe.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

_BIG = (1 << 4096) - 1
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(256)}
_ROW = list(range(256))
_MASK = int.from_bytes(bytes((i * 37) & 255 for i in range(1 << 17)), "little")
_DIVIDEND = (1 << (1 << 16)) - 1
_DIVISOR = (1 << 4099) - 1


def _interp() -> None:
    s = 0
    big = _BIG
    table = _TABLE
    row = _ROW
    text = ""
    for i in range(5000):
        s = (s + table[i & 255] * row[(i * 7) & 255]) & 0xFFFFFFFF
        if i & 3 == 0:
            big ^= (big >> (i & 63)) & (s << 2048)
        if i & 7 == 0:
            text = format(s & 0xFF, "08b") + text[:64]


def _bigint() -> None:
    mask = _MASK
    acc = 0
    for k in range(4):
        acc |= (mask >> k) & ~(mask << 3)


def _bigdiv() -> None:
    _DIVIDEND // _DIVISOR


# kind: (probe, its time at the reference pace, in seconds).  The reference
# times are the probes' medians in a quiet stretch on the 2-core x86-64
# host on which the benchmark was defined.
PROBES = {
    "interp": (_interp, 0.0015),
    "bigint": (_bigint, 0.0005),
    "bigdiv": (_bigdiv, 0.0004),
}

# the probes whose kind of work each workload's tasks and set-up spend
# their time on: certify's tasks go to 2**20-bit masks and its set-up to
# the long divisions that build the variable masks, the rest to the
# interpreter.  Scaled by the interp probe, certify's set-up times spread
# three times as far as raw ones; by the bigdiv probe, half as far.
WORKLOAD_KINDS = {
    "decide": ("interp", "interp"),
    "tradeoff": ("interp", "interp"),
    "certify": ("bigint", "bigdiv"),
    "decode": ("interp", "interp"),
}

# probes run just before an interpreter starts, and in it just after its
# set-up, to scale its set-up time by
SETUP_PROBES = 20


def probe(kind: str) -> float:
    """Run one probe of the kind; return its wall time in seconds."""
    fn = PROBES[kind][0]
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


class Pace:
    """Probe times of one kind, each stamped with when it ran."""

    # the pace changes within tens of milliseconds, so a short task is
    # scaled by the probes closest to it; a long one by the probes within
    # half its length, since its own time averages the pace over it
    WINDOW_S = 0.02

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.reference_s = PROBES[kind][1]
        self.at: list[float] = []
        self.probe_s: list[float] = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.probe_s.append(probe(self.kind))

    def factor(self, start: float, end: float) -> float:
        """Reference time over the median probe time within WINDOW_S, or
        half the span's length if longer, of the span [start, end]; if none
        ran that close, the nearest probe on either side."""
        at = self.at
        window = max(self.WINDOW_S, (end - start) / 2)
        lo = bisect_left(at, start - window)
        hi = bisect_right(at, end + window)
        if lo >= hi:
            lo, hi = max(0, lo - 1), min(len(at), hi + 1)
        return self.reference_s / statistics.median(self.probe_s[lo:hi])
