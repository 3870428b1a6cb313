"""Learning-rate schedules for the soft-Bayes mixture learner.

Two families:

* plain schedules (``fixed``, ``inverse-t``) feed the base multiplicative
  update directly, with no prior-blending correction, and
* online schedules (``anytime``, ``sparse``, ``shifting``, ``self-confident``)
  emit a nonincreasing rate sequence and are paired with the rate-ratio
  correction that blends a sliver of the prior back in every round.

A schedule instance is owned by exactly one learner and its ``rate``/
``observe`` methods are called in round order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Keeps every emitted rate strictly inside (0, 1); the sparse formula can
# otherwise exceed 1 in the first rounds when ln(N) > 2.
RATE_CAP = 0.5


def rate_offline(T: int, N: int, m: int | None = None, variant: str = "thm2_N") -> float:
    """Horizon-tuned constant rate: sqrt(ln N / (T m)) in odds form."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    if variant == "thm2_N":
        m = N
    elif variant == "thm2_m":
        if m is None or not 1 <= m <= N:
            raise ValueError(f"m={m} outside [1, N={N}]")
    else:
        raise ValueError(f"unknown offline variant {variant!r}")
    eta_bar = math.sqrt(math.log(N) / (T * m))
    return eta_bar / (1.0 + eta_bar)


def rate_anytime(t: int, N: int) -> float:
    """sqrt(ln N / (2 N t)); strictly decreasing in t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    return math.sqrt(math.log(N) / (2.0 * N * t))


def rate_sparse(t: int, N: int, m_t: int) -> float:
    """sqrt(ln N / (2 m_t t)) with m_t the number of ever-best experts."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not 1 <= m_t <= N:
        raise ValueError(f"m_t={m_t} outside [1, N={N}]")
    return math.sqrt(math.log(N) / (2.0 * m_t * t))


def rate_shifting(t: int, N: int) -> float:
    """sqrt(ln N / (2 N t)) * ln(t + 3); at most 3/5 for all N >= 2, t >= 1."""
    return rate_anytime(t, N) * math.log(t + 3.0)


@dataclass
class SelfConfidentStats:
    """Running statistic for the self-confident rate.

    ``C1`` accumulates max_i(p_i/M - 1) per round, which is nonnegative
    because the mixture probability never exceeds the best expert's.
    """

    C1: float = 0.0
    eta_prev: float | None = None


def rate_self_confident(stats: SelfConfidentStats, N: int, t: int,
                        eta_max: float = RATE_CAP) -> float:
    """Data-driven rate sqrt(2 ln N / C1), floored, capped, and ratio-clamped.

    The denominator is floored at ln N (the rate is otherwise undefined at
    C1 = 0) and the result capped at ``eta_max``.  From the second round on,
    the next-over-current ratio is clamped to at most sqrt((t-1)/t) so the
    weight floor enforced by the online correction decays no faster than
    O(1/t); the clamp also makes the emitted sequence strictly decreasing.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    ln_n = math.log(N)
    candidate = min(eta_max, math.sqrt(2.0 * ln_n / max(stats.C1, ln_n)))
    if stats.eta_prev is None or t <= 1:
        return candidate
    ratio = min(candidate / stats.eta_prev, math.sqrt((t - 1.0) / t))
    return stats.eta_prev * ratio


@dataclass
class BestSetTracker:
    """Tracks which experts have been a per-round argmax, and when first.

    ``first_best[i]`` is the first round at which expert ``i`` (0-based) tied
    for the largest probability.  Ties are resolved in favor of an expert
    already counted, so no new expert enters the set on a shared argmax; among
    equally eligible experts the lowest index wins, for reproducibility.
    """

    first_best: dict = field(default_factory=dict)

    def update(self, p, t: int) -> None:
        q = np.asarray(p, dtype=float)
        ties = np.nonzero(q == q.max())[0]
        counted = [int(i) for i in ties if int(i) in self.first_best]
        pick = min(counted) if counted else int(ties[0])
        if pick not in self.first_best:
            self.first_best[pick] = t

    def members(self, t: int) -> set:
        """The best set at round t: experts first best strictly before t."""
        return {i for i, s in self.first_best.items() if s < t}

    def m(self, t: int) -> int:
        return max(1, len(self.members(t)))

    @property
    def total_best(self) -> int:
        """Number of experts ever best so far (the m that enters the bounds)."""
        return max(1, len(self.first_best))


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

    def __str__(self):
        return f"fixed:{self.eta!r}"


class InverseT(_Schedule):
    """Rate 1/(t + c); satisfies eta_t/(1 - eta_t) = eta_{t-1} exactly, which
    is what collapses the learner to the classical add-constant estimators on
    disjoint-support streams.  Used without the online correction."""

    applies_correction = False

    def __init__(self, c: float):
        if not c > 0:
            raise ValueError("inverse-t offset c must be positive")
        self.c = float(c)

    def rate(self, t: int) -> float:
        if t < 1:
            raise ValueError("t must be >= 1")
        return 1.0 / (t + self.c)

    def __str__(self):
        return f"inverse-t:{self.c!r}"


class AnytimeRate(_Schedule):
    def __init__(self, n: int):
        if n < 2:
            raise ValueError("anytime schedule needs N >= 2")
        self.n = n

    def rate(self, t: int) -> float:
        return rate_anytime(t, self.n)

    def __str__(self):
        return "anytime"


class SparseRate(_Schedule):
    """Anytime rate scaled by the best-set size instead of N."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sparse schedule needs N >= 2")
        self.n = n
        self.tracker = BestSetTracker()

    def rate(self, t: int) -> float:
        return min(rate_sparse(t, self.n, self.tracker.m(t)), RATE_CAP)

    def observe(self, t: int, p, m: float) -> None:
        self.tracker.update(p, t)

    def __str__(self):
        return "sparse"


class ShiftingRate(_Schedule):
    """Anytime rate with a ln(t+3) boost, for piecewise-constant competitors.

    The rate is strictly decreasing for t >= 1, as the online correction
    requires: d/dt ln(t+3)/sqrt(t) has the sign of 2t/(t+3) - ln(t+3), and
    2t/(t+3) < ln(t+3) (below 1.2 < ln 4 for t <= e^2 - 3, below 2 < ln(t+3)
    beyond).
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("shifting schedule needs N >= 2")
        self.n = n

    def rate(self, t: int) -> float:
        return rate_shifting(t, self.n)

    def __str__(self):
        return "shifting"


class SelfConfidentRate(_Schedule):
    def __init__(self, n: int, eta_max: float = RATE_CAP):
        if n < 2:
            raise ValueError("self-confident schedule needs N >= 2")
        if not 0.0 < eta_max < 1.0:
            raise ValueError("eta_max must lie in (0, 1)")
        self.n = n
        self.eta_max = eta_max
        self.stats = SelfConfidentStats()

    def rate(self, t: int) -> float:
        r = rate_self_confident(self.stats, self.n, t, self.eta_max)
        self.stats.eta_prev = r
        return r

    def observe(self, t: int, p, m: float) -> None:
        if m > 0.0:
            self.stats.C1 += float(np.max(p)) / m - 1.0

    def __str__(self):
        return f"self-confident:{self.eta_max!r}"


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

    def __str__(self):
        return self.kind if self.param is None else f"{self.kind}:{self.param!r}"


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
    return ScheduleConfig(kind, float(arg) if arg else None)
