"""Online (mistake-bound) learning: the single-mistake learner for the
certificate class, the sorted-list learner for sparse classes, a random
consistent adversary, the Littlestone-dimension oracle, and the
online-to-PAC conversion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .codes import CodeParams
from .concepts import CertConcept
from .errors import (
    AdversaryInconsistencyError,
    BudgetError,
    ConfigError,
    DataInconsistencyError,
)
from .paclearn import LabeledSample, TableHypothesis, few_sample_learner
from .verifiers import ThreeSatVerifier

#: Sample-count constant for the online-to-PAC conversion; artifact constant,
#: validated empirically by the property suite.
ONLINE_TO_PAC_KAPPA = 20


@dataclass
class OnlineRound:
    point: str
    prediction: int
    true_label: int
    mistake: bool


@dataclass
class OnlineRunLog:
    rounds: tuple[OnlineRound, ...]

    @property
    def mistakes(self) -> int:
        return sum(1 for r in self.rounds if r.mistake)


class SingleMistakeLearner:
    """Predicts 0 until the first 1-labeled example, then pins the concept
    from it as the few-sample learner does (a brute-force search for the
    instance's first certificate) and predicts that concept thereafter.
    Total mistakes <= 1 against any consistent adversary."""

    def __init__(self, verifier: ThreeSatVerifier, params: CodeParams) -> None:
        self.verifier = verifier
        self.params = params
        self.concept: CertConcept | None = None

    def predict(self, x: str) -> int:
        return 0 if self.concept is None else self.concept(x)

    def observe(self, x: str, label: int) -> None:
        if self.concept is not None:
            if self.concept(x) != label:
                raise AdversaryInconsistencyError(
                    "label contradicts the identified concept"
                )
            return
        if label != 1:
            return
        try:
            self.concept = few_sample_learner(LabeledSample(((x, 1),)), self.verifier, self.params)
        except DataInconsistencyError:
            raise AdversaryInconsistencyError(
                "1-label is consistent with no certificate concept"
            ) from None

    def current_hypothesis(self):
        return TableHypothesis(()) if self.concept is None else self.concept

    def fork(self) -> "SingleMistakeLearner":
        other = SingleMistakeLearner(self.verifier, self.params)
        other.concept = self.concept
        return other

    def state_key(self):
        return ("pre",) if self.concept is None else ("locked", self.concept.z)


class SortedListLearner:
    """Predicts 1 exactly on the sorted list of 1-points seen so far; inserts
    on mistakes.  Mistakes never exceed the target's sparsity; per-round work
    is one binary search plus an optional insert."""

    def __init__(self) -> None:
        self.ones: list[str] = []
        self.last_comparisons = 0

    def _search(self, x: str) -> tuple[bool, int]:
        lo, hi = 0, len(self.ones)
        comparisons = 0
        while lo < hi:
            mid = (lo + hi) // 2
            comparisons += 1
            if self.ones[mid] < x:
                lo = mid + 1
            elif self.ones[mid] > x:
                hi = mid
            else:
                self.last_comparisons = comparisons
                return True, mid
        self.last_comparisons = comparisons
        return False, lo

    def predict(self, x: str) -> int:
        found, _ = self._search(x)
        return 1 if found else 0

    def observe(self, x: str, label: int) -> None:
        if label != 1:
            return
        found, pos = self._search(x)
        if not found:
            self.ones.insert(pos, x)

    def current_hypothesis(self):
        return TableHypothesis(frozenset(self.ones))

    def fork(self) -> "SortedListLearner":
        other = SortedListLearner()
        other.ones = list(self.ones)
        return other

    def state_key(self):
        return tuple(self.ones)


def run_online(learner, rounds) -> OnlineRunLog:
    """Feed (point, label) rounds to a learner, logging predictions and mistakes."""
    log = []
    for x, label in rounds:
        pred = learner.predict(x)
        mistake = pred != label
        learner.observe(x, label)
        log.append(OnlineRound(x, pred, int(label), mistake))
    return OnlineRunLog(tuple(log))


# -- adversaries -----------------------------------------------------------------


def random_consistent_adversary(
    rng: random.Random, learner, concepts, domain, rounds: int
) -> OnlineRunLog:
    """Random adversary that keeps the version space nonempty each round."""
    concepts = list(concepts)
    domain = list(domain)

    def moves():
        vs = set(range(len(concepts)))
        for _ in range(rounds):
            x = rng.choice(domain)
            options = []
            for label in (0, 1):
                nvs = {ci for ci in vs if int(concepts[ci](x)) == label}
                if nvs:
                    options.append((label, nvs))
            if not options:
                raise AdversaryInconsistencyError("version space emptied")
            label, vs = rng.choice(options)
            yield x, label

    return run_online(learner, moves())


# -- Littlestone dimension ----------------------------------------------------------


#: Largest domain ldim_oracle accepts, and the depth it searches to.
LDIM_MAX_DOMAIN = 16
LDIM_DEPTH = 3


def ldim_oracle(concepts, domain) -> int:
    """Optimal mistake bound via minimax game-tree search.

    Returns min(Ldim, LDIM_DEPTH): the adversary presents a point on which the
    surviving version space splits, the learner predicts optimally, and a
    mistake is forced on the branch the adversary keeps.  Exact whenever the
    result is below LDIM_DEPTH.
    """
    domain = list(domain)
    concepts = list(concepts)
    if len(domain) > LDIM_MAX_DOMAIN:
        raise BudgetError(
            f"ldim search over {len(domain)} points at depth {LDIM_DEPTH} exceeds budget"
        )
    labels = [tuple(int(c(x)) for x in domain) for c in concepts]
    memo: dict[tuple, int] = {}

    def value(vs: frozenset[int], depth: int) -> int:
        if depth == 0 or len(vs) <= 1:
            return 0
        key = (vs, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        out = 0
        for xi in range(len(domain)):
            v0 = frozenset(ci for ci in vs if labels[ci][xi] == 0)
            v1 = vs - v0
            if v0 and v1:
                got = 1 + min(value(v0, depth - 1), value(v1, depth - 1))
                if got > out:
                    out = got
        memo[key] = out
        return out

    return value(frozenset(range(len(concepts))), LDIM_DEPTH)


# -- online-to-PAC conversion ---------------------------------------------------------


class OnlineToPacLearner:
    """Conservative conversion: run the online learner over the i.i.d. sample,
    update only on mistakes, and return the hypothesis with the longest
    consecutive error-free run.  Sample count
    ceil(ONLINE_TO_PAC_KAPPA*(m + ln(1/delta))/eps)."""

    def __init__(self, make_learner, mistake_bound: int, eps: float, delta: float) -> None:
        if not 0 < eps < 1 or not 0 < delta < 1:
            raise ConfigError("eps and delta must lie in (0, 1)")
        self.make_learner = make_learner
        self.sample_size = math.ceil(
            ONLINE_TO_PAC_KAPPA * (mistake_bound + math.log(1 / delta)) / eps
        )

    def __call__(self, sample: LabeledSample, counter=None):
        learner = self.make_learner()
        current = learner.current_hypothesis()
        best_hyp, best_streak = current, -1
        streak = 0
        for x, y in sample.pairs:
            if current(x) == y:
                streak += 1
                continue
            if streak > best_streak:
                best_hyp, best_streak = current, streak
            learner.observe(x, y)
            current = learner.current_hypothesis()
            streak = 0
        if streak > best_streak:
            best_hyp = current
        return best_hyp
