"""PAC framework: finite-support distributions, samples, hypotheses, and the
batch learners (few-sample/slow, sparse ERM/fast, junta).

A learner is any callable learner(sample, counter=None) -> hypothesis, where
the sample is a tuple of (point, label) pairs, and a hypothesis is any
callable h(x) -> 0/1 (a table, a frozenset of its 1-points, answers with a
bool); learners that need more (a verifier, a layout) have it bound first,
e.g. with functools.partial.  A trial's target is one value: its 0/1 labels
on the distribution's support, the bytes `labels_on` gives, which samples are
drawn from and hypotheses scored against.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from itertools import accumulate, compress
from operator import ne

from .bits import check_bits
from .codes import CodeParams
from .concepts import CertConcept, ExampleLayout, JuntaHypothesis
from .errors import CertlabError, ConfigError, DataInconsistencyError, ShapeError
from .verifiers import StepCounter, ThreeSatVerifier

WEIGHT_TOLERANCE = 1e-9


class Distribution:
    """Finite-support distribution over equal-length example points."""

    __slots__ = ("points", "weights", "cum_weights", "_index_values")

    def __init__(self, points, weights) -> None:
        self.points = tuple(points)
        self.weights = tuple(float(w) for w in weights)
        if len(self.points) != len(self.weights):
            raise ConfigError("points and weights must have equal length")
        for w in self.weights:
            if not math.isfinite(w):
                raise ConfigError(f"weights must be finite, got {w}")
        if any(w < 0 for w in self.weights):
            raise ConfigError("weights must be nonnegative")
        if self.points:
            first = self.points[0]
            length = len(first) if isinstance(first, str) else None
            for pt in self.points:
                check_bits(pt, length=length, name="support point")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOLERANCE:
            raise ConfigError(f"weights sum to {sum(self.weights)}, expected 1")
        # the sums `choices` makes of weights=, so draws and rng state match
        self.cum_weights = tuple(accumulate(self.weights))
        self._index_values: dict[tuple[ExampleLayout, str], tuple[int, ...]] = {}

    @classmethod
    def uniform(cls, points) -> "Distribution":
        pts = list(points)
        if not pts:
            raise ConfigError("uniform distribution needs a nonempty support")
        return cls(pts, [1.0 / len(pts)] * len(pts))

    @classmethod
    def point_mass(cls, point: str) -> "Distribution":
        return cls([point], [1.0])

    def index_values(self, layout: ExampleLayout, head: str = "") -> tuple[int, ...]:
        """Each support point's index value under the layout, in support order,
        or 2^ell where the point does not start with head; made once per (layout,
        head) by `ExampleLayout.index`, which raises its ShapeError."""
        key = (layout, head)
        if key not in self._index_values:
            values = self.index_values(layout) if head else tuple(map(layout.index, self.points))
            outside = 1 << layout.ell
            self._index_values[key] = tuple(v if x.startswith(head) else outside for v, x in zip(values, self.points))
        return self._index_values[key]


class LabeledSample(tuple):
    """A labelled sample from outside, checked: the tuple of its (point, 0/1
    label) pairs.  The samples the lab draws itself (`draw_sample`, the
    decider's proofs) are plain tuples of pairs it made valid."""

    __slots__ = ()

    def __new__(cls, pairs) -> "LabeledSample":
        pairs = tuple(pairs)
        if pairs:
            first = pairs[0][0]
            length = len(first) if isinstance(first, str) else None
            for x, y in pairs:
                check_bits(x, length=length, name="sample point")
                if y not in (0, 1):
                    raise ShapeError(f"label must be 0/1, got {y!r}")
        return tuple.__new__(cls, pairs)


def draw_sample(dist: Distribution, labels: bytes, m: int, rng: random.Random) -> tuple:
    """m i.i.d. draws from the distribution, each a support point paired with
    its byte of labels, the target's labels on the support in support order.
    Support positions are drawn by `choices` over the weights: the same rng
    calls as drawing the points, and none for m = 0."""
    if m < 0:
        raise ConfigError("sample size must be nonnegative")
    at = rng.choices(range(len(dist.points)), cum_weights=dist.cum_weights, k=m)
    return tuple(zip(map(dist.points.__getitem__, at), map(labels.__getitem__, at)))


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def labels_on(dist: Distribution, g) -> bytes:
    """g's 0/1 labels on the distribution's support, in support order: a
    junta's are its word's bits at the cached index values (a point that does
    not start with its head reads bit 2^ell, which is 0); any other callable
    is called once per point, and a table answers from C."""
    if isinstance(g, JuntaHypothesis):
        bits = f"{g.word:0{(1 << g.layout.ell) + 1}b}"[::-1].encode().translate(_BIT_BYTES)  # byte v: bit v
        return bytes(map(bits.__getitem__, dist.index_values(g.layout, g.head)))
    return bytes(map(g, dist.points))


def error_of(dist: Distribution, labels: bytes, h) -> float:
    """Exact weighted disagreement Pr_{x~D}[f(x) != h(x)] of the target f whose
    support labels are labels, one per support point, and the hypothesis h: the
    weights where they differ from h's `labels_on` bytes, summed in support order."""
    if len(labels) != len(dist.points):
        raise ShapeError(f"need {len(dist.points)} labels, one per support point, got {len(labels)}")
    return sum(compress(dist.weights, map(ne, labels, labels_on(dist, h))))


# -- hypotheses -----------------------------------------------------------------


class TableHypothesis(frozenset):
    """1 exactly on an explicit finite set of points; 0 elsewhere: the set of
    those points, called as its membership test (a bool)."""

    __slots__ = ()
    __call__ = frozenset.__contains__  # no Python frame per point

    def __repr__(self) -> str:
        return f"TableHypothesis(<{len(self)} ones>)"


# -- learners -------------------------------------------------------------------


def few_sample_learner(
    sample: tuple,
    verifier: ThreeSatVerifier,
    params: CodeParams,
    *,
    counter: StepCounter | None = None,
):
    """Claim-style slow learner: a single 1-labeled example pins the instance,
    an exponential-time certificate search pins the concept exactly, and the
    concept, checked against the sample, is the hypothesis."""
    ones = [x for x, y in sample if y == 1]
    if not ones:
        return TableHypothesis(())
    prefixes = {x[: verifier.n] for x in ones}  # the standard layout's instance bits
    if len(prefixes) > 1:
        raise DataInconsistencyError("1-labeled examples carry conflicting instance prefixes")
    z = next(iter(prefixes))
    concept = CertConcept(verifier, z, params, counter=counter)
    if concept.labels([x for x, _ in sample]) != [y for _, y in sample]:
        raise DataInconsistencyError("sample is not labeled by any certificate concept")
    return concept


def sparse_erm(sample: tuple, *, counter: StepCounter | None = None):
    """One-pass table ERM: predict 1 exactly on the sample's 1-points."""
    ones: set[str] = set()
    zeros: set[str] = set()
    for x, y in sample:
        (ones if y == 1 else zeros).add(x)
    if not ones.isdisjoint(zeros):
        raise DataInconsistencyError(f"contradictory labels for {sorted(ones & zeros)[:3]}")
    if counter is not None:
        counter.steps += len(sample)
    return TableHypothesis(ones)


def junta_learner(
    sample: tuple, layout: ExampleLayout, *, counter: StepCounter | None = None
):
    """Learn a table over the 2^ell index values; unobserved indices map to 0."""
    zeros = ones = 0  # bit v: index value v seen with label 0, with label 1
    for x, y in sample:
        idx = layout.index(x)
        if y == 1:
            ones |= 1 << idx
        else:
            zeros |= 1 << idx
        if zeros & ones:
            raise DataInconsistencyError(f"index {idx} observed with both labels")
    if counter is not None:
        counter.steps += len(sample)
    return JuntaHypothesis(ones, layout)


# -- trial harness ----------------------------------------------------------------


SuiteResult = namedtuple("SuiteResult", "success_rate mean_error mean_steps wall_s")


def pac_trial_suite(
    learner,
    labels: bytes,
    dist: Distribution,
    eps: float,
    m: int,
    trials: int,
    master_seed: int | str,
) -> SuiteResult:
    """Empirical estimate of the PAC success event Pr[error <= eps] for the
    target whose 0/1 labels on the support are labels, `labels_on(dist, target)`.

    learner(sample, counter=None) -> hypothesis, called with a fresh
    StepCounter per trial.  A learner that raises a CertlabError fails its
    trial with error 1.0, as a raising proof rejects in the decider; the
    trial's steps are those its counter had reached.  Trial t draws from a
    private generator seeded by (master_seed, t); results are deterministic.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not 0 < eps < 1:
        raise ConfigError(f"eps must lie in (0, 1), got {eps}")
    for y in labels:
        if y not in (0, 1):
            raise ShapeError(f"label must be 0/1, got {y!r}")
    errors = []
    successes = 0
    total_steps = 0
    t0 = time.perf_counter()
    for t in range(trials):
        rng = random.Random(f"{master_seed}:{t}")
        sample = draw_sample(dist, labels, m, rng)
        counter = StepCounter()
        try:
            hyp = learner(sample, counter=counter)
        except CertlabError:
            err = 1.0
        else:
            err = error_of(dist, labels, hyp)
        errors.append(err)
        total_steps += counter.steps
        if err <= eps + 1e-12:
            successes += 1
    wall = time.perf_counter() - t0
    return SuiteResult(
        success_rate=successes / trials,
        mean_error=sum(errors) / trials,
        mean_steps=total_steps / trials,
        wall_s=wall,
    )
