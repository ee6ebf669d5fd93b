"""Online (mistake-bound) learners the tests play against the certificate
class: the single-mistake learner, the sorted-list learner for sparse
classes, a random consistent adversary, and the online-to-PAC conversion.

No command runs them; tests/test_online.py and acceptance criterion 08
check their mistake bounds.  The Littlestone-dimension oracle `vcdim`
reports is `certlab.concepts.ldim_oracle`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from certlab.codes import CodeParams
from certlab.concepts import CertConcept
from certlab.errors import CertlabError, ConfigError, DataInconsistencyError
from certlab.paclearn import LabeledSample, TableHypothesis, few_sample_learner
from certlab.verifiers import ThreeSatVerifier


class AdversaryInconsistencyError(CertlabError):
    """An online adversary's labels are consistent with no concept in the class."""


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
        for x, y in sample:
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
