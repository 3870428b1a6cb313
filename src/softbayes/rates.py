"""Learning-rate schedules for the soft-Bayes mixture learner.

Two families:

* plain schedules (``fixed``, ``inverse-t``) feed the base multiplicative
  update directly, with no prior-blending correction, and
* online schedules (``anytime``, ``sparse``, ``shifting``, ``self-confident``)
  emit a nonincreasing rate sequence and are paired with the rate-ratio
  correction that blends a sliver of the prior back in every round.

Each schedule class is the one form of its rate, and keeps the statistics
its rate reads as its own attributes: ``SparseRate.tracker`` (the best set)
and ``SelfConfidentRate.C1`` and ``eta_prev``.  A schedule instance is owned
by exactly one learner and its ``rate``/``observe`` methods are called in
round order.  ``observe(t, p, M)`` is shown round t's row ``p`` as the
learner holds it, a list of Python floats, and keeps no reference to it;
the schedules here read a row only by ``max``, iteration and ``==``, so a
numpy row (a test's) leaves the same statistics.  ``rate_offline`` is the
horizon-tuned constant rate that the ``thm2`` bound assumes; a caller runs
it as a ``FixedRate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import indexOf

from .core import read_number

# Keeps every emitted rate strictly inside (0, 1); the sparse formula can
# otherwise exceed 1 in the first rounds when ln(N) > 2.
RATE_CAP = 0.5


def rate_offline(T: int, N: int, m: int | None = None) -> float:
    """Horizon-tuned constant rate: sqrt(ln N / (T m)) in odds form, with
    m = N unless given."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    if m is None:
        m = N
    elif not 1 <= m <= N:
        raise ValueError(f"m={m} outside [1, N={N}]")
    eta_bar = math.sqrt(math.log(N) / (T * m))
    return eta_bar / (1.0 + eta_bar)


@dataclass
class BestSetTracker:
    """The experts that have been a per-round argmax: ``best`` holds their
    0-based indices, and ``m`` counts them, at least 1.

    Ties are resolved in favor of an expert already counted, so no new expert
    enters the set on a shared argmax; among equally eligible experts the lowest
    index wins, for reproducibility.
    """

    best: set = field(default_factory=set)

    def update(self, p) -> None:
        """Count a row ``p``, a sequence of floats."""
        best = self.best
        top = max(p)
        first = indexOf(p, top)
        # the lowest tied expert enters unless a tied expert is counted; the
        # first test is the common case, that it is itself counted
        if first not in best and not any(x == top and i in best for i, x in enumerate(p)):
            best.add(first)

    @property
    def m(self) -> int:
        """Number of experts ever best so far, at least 1 (the m that enters
        the sparse rate and the bounds)."""
        return max(1, len(self.best))


class _Schedule:
    """Defaults shared by the schedules: an online schedule that ignores the
    rounds it is shown."""

    applies_correction = True

    def observe(self, t: int, p, m: float) -> None:
        pass


class FixedRate(_Schedule):
    """Constant rate in (0, 1]; rate 1 is the exact Bayesian posterior."""

    applies_correction = False

    def __init__(self, eta: float):
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"fixed rate {eta!r} outside (0, 1]")
        self.eta = float(eta)

    def rate(self, t: int) -> float:
        return self.eta


class InverseT(_Schedule):
    """Rate 1/(t + c); satisfies eta_t/(1 - eta_t) = eta_{t-1} exactly, which
    is what collapses the learner to the classical add-constant estimators on
    disjoint-support streams.  Used without the online correction."""

    applies_correction = False

    def __init__(self, c: float):
        if not 0.0 < c < math.inf:
            raise ValueError(f"inverse-t offset {c!r} must be positive and finite")
        self.c = float(c)

    def rate(self, t: int) -> float:
        if t < 1:
            raise ValueError("t must be >= 1")
        return 1.0 / (t + self.c)


class AnytimeRate(_Schedule):
    """sqrt(ln N / (2 N t)); strictly decreasing in t."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("anytime schedule needs N >= 2")
        self.n = n
        self.ln_n = math.log(n)

    def rate(self, t: int) -> float:
        if t < 1:
            raise ValueError("t must be >= 1")
        return math.sqrt(self.ln_n / (2.0 * self.n * t))


class SparseRate(_Schedule):
    """sqrt(ln N / (2 m_t t)), the anytime rate with N replaced by m_t, and
    capped at ``RATE_CAP``.  m_t counts the experts ever best in the rows the
    schedule was shown; under the round order, those are the rows before t."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sparse schedule needs N >= 2")
        self.ln_n = math.log(n)
        self.tracker = BestSetTracker()

    def rate(self, t: int) -> float:
        if t < 1:
            raise ValueError("t must be >= 1")
        return min(math.sqrt(self.ln_n / (2.0 * self.tracker.m * t)), RATE_CAP)

    def observe(self, t: int, p, m: float) -> None:
        self.tracker.update(p)


class ShiftingRate(_Schedule):
    """sqrt(ln N / (2 N t)) ln(t + 3), the anytime rate with a boost for
    piecewise-constant competitors; at most 3/5 for all N >= 2, t >= 1.

    The rate is strictly decreasing for t >= 1, as the online correction
    requires: d/dt ln(t+3)/sqrt(t) has the sign of 2t/(t+3) - ln(t+3), and
    2t/(t+3) < ln(t+3) (below 1.2 < ln 4 for t <= e^2 - 3, below 2 < ln(t+3)
    beyond).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("shifting schedule needs N >= 2")
        self.n = n
        self.ln_n = math.log(n)

    def rate(self, t: int) -> float:
        if t < 1:
            raise ValueError("t must be >= 1")
        return math.sqrt(self.ln_n / (2.0 * self.n * t)) * math.log(t + 3.0)


class SelfConfidentRate(_Schedule):
    """Data-driven rate sqrt(2 ln N / C1), floored, capped and ratio-clamped.

    ``C1`` accumulates max_i(p_i/M - 1) over the rounds observed, which is
    nonnegative because the mixture probability never exceeds the best
    expert's.  The denominator is floored at ln N (the rate is otherwise
    undefined at C1 = 0) and the result capped at ``eta_max``.  From the
    second round on, the ratio to ``eta_prev``, the rate last emitted, is
    clamped to at most sqrt((t-1)/t) so the weight floor enforced by the
    online correction decays no faster than O(1/t); the clamp also makes the
    emitted sequence strictly decreasing.
    """

    def __init__(self, n: int, eta_max: float = RATE_CAP):
        if n < 2:
            raise ValueError("self-confident schedule needs N >= 2")
        if not 0.0 < eta_max < 1.0:
            raise ValueError(f"self-confident eta_max {eta_max!r} outside (0, 1)")
        self.ln_n = math.log(n)
        self.eta_max = eta_max
        self.C1 = 0.0
        self.eta_prev = None

    def rate(self, t: int) -> float:
        if t < 1:
            raise ValueError("t must be >= 1")
        ln_n = self.ln_n
        r = min(self.eta_max, math.sqrt(2.0 * ln_n / max(self.C1, ln_n)))
        if self.eta_prev is not None and t > 1:
            r = self.eta_prev * min(r / self.eta_prev, math.sqrt((t - 1.0) / t))
        self.eta_prev = r
        return r

    def observe(self, t: int, p, m: float) -> None:
        if m > 0.0:
            self.C1 += max(p) / m - 1.0


# selector kind -> (its parameter: "required", "none" or "optional"; factory(n, param))
SCHEDULE_KINDS = {
    "fixed": ("required", lambda n, eta: FixedRate(eta)),
    "inverse-t": ("required", lambda n, c: InverseT(c)),
    "anytime": ("none", lambda n, _: AnytimeRate(n)),
    "sparse": ("none", lambda n, _: SparseRate(n)),
    "shifting": ("none", lambda n, _: ShiftingRate(n)),
    "self-confident": ("optional", lambda n, eta_max: SelfConfidentRate(
        n, RATE_CAP if eta_max is None else eta_max)),
}


@dataclass(frozen=True)
class ScheduleConfig:
    """Parsed schedule selector; ``build(n)`` instantiates the stateful object."""

    kind: str
    param: float | None = None

    def build(self, n: int):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        return SCHEDULE_KINDS[self.kind][1](n, self.param)


def parse_schedule(text: str) -> ScheduleConfig:
    """Parse ``fixed:0.5``, ``inverse-t:3``, ``anytime``, ``sparse``,
    ``shifting``, ``self-confident[:eta_max]``.  ``=`` is accepted in place
    of ``:`` so the same grammar works inside learner selectors."""
    spec = text.strip()
    for sep in (":", "="):
        if sep in spec:
            kind, _, arg = spec.partition(sep)
            break
    else:
        kind, arg = spec, ""
    kind = kind.strip().lower()
    arg = arg.strip()
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule {text!r}")
    takes = SCHEDULE_KINDS[kind][0]
    if takes == "required" and not arg:
        raise ValueError(f"schedule {kind!r} needs a parameter, e.g. {kind}:0.5")
    if takes == "none" and arg:
        raise ValueError(f"schedule {kind!r} takes no parameter")
    return ScheduleConfig(kind, read_number(arg) if arg else None)
