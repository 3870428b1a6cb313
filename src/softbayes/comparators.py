"""Regret accounting: hindsight competitors, guarantee evaluation, and the
disjoint-support closed form.

The best fixed mixture is found by the classical multiplicative fixed-point
iteration for log-optimal mixtures, a_i <- a_i * mean_t(p_it / A_t), whose
objective is provably nondecreasing; that monotonicity is asserted at runtime
as a self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import INFINITE_LOSS, ExpertStream, uniform_weights

BOUND_SLACK = 1e-6


@dataclass
class MixtureSolution:
    """Best fixed convex combination in hindsight and its loss in nats."""

    a: np.ndarray
    loss: float
    iterations: int
    converged: bool


@dataclass
class RegretReport:
    learner_loss: float
    comparator_loss: float
    regret: float
    bound: float | None = None
    bound_satisfied: bool | None = None


@dataclass(frozen=True)
class SegmentSpec:
    """Segment boundaries t_1 = 1 < t_2 < ... (1-based round indices);
    segment k runs from t_k through t_{k+1} - 1, the last through T."""

    boundaries: tuple

    def __post_init__(self):
        b = tuple(int(t) for t in self.boundaries)
        if not b or b[0] != 1:
            raise ValueError("boundaries must start at round 1")
        if any(y <= x for x, y in zip(b, b[1:])):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", b)

    @property
    def k(self) -> int:
        return len(self.boundaries)

    def segments(self, T: int) -> list:
        """Inclusive 1-based (start, end) pairs covering rounds 1..T."""
        if self.boundaries[-1] > T:
            raise ValueError(f"boundary {self.boundaries[-1]} beyond horizon {T}")
        ends = list(self.boundaries[1:]) + [T + 1]
        return [(s, e - 1) for s, e in zip(self.boundaries, ends)]

    def rows(self, stream: ExpertStream, mask=None):
        """Each segment's rows as a stream, in segment order.  Under a boolean
        ``mask`` over the rounds only the rows where it is true count, and a
        segment without any is skipped."""
        for s, e in self.segments(len(stream)):
            p = stream.p[s - 1 : e] if mask is None else stream.p[s - 1 : e][mask[s - 1 : e]]
            if len(p):   # only a mask can empty a segment
                yield ExpertStream(p)


def best_fixed_mixture(stream: ExpertStream, tol: float = 1e-10,
                       max_iter: int = 100_000) -> MixtureSolution:
    """Maximize sum_t ln(sum_i a_i p_it) over the simplex.

    Multiplicative fixed-point iteration from the uniform start; stops when
    the objective's relative change drops below ``tol``.  The iterate stays
    exactly on the simplex and the objective never decreases.
    """
    P = stream.p
    T = len(stream)
    if T == 0:
        raise ValueError("cannot fit a comparator to an empty stream")
    a = uniform_weights(stream.n_experts)
    A = P @ a
    obj = float(np.log(A).sum())
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        a = a * (P.T @ (1.0 / A)) / T
        a = a / a.sum()
        A = P @ a
        new_obj = float(np.log(A).sum())
        # relative tolerance: evaluating the objective itself carries
        # summation noise proportional to its magnitude
        if new_obj < obj - 1e-12 * max(1.0, abs(obj)):
            raise RuntimeError(
                f"fixed-point objective decreased ({obj!r} -> {new_obj!r}); "
                "the iteration is monotone, so this indicates a bug")
        done = abs(new_obj - obj) <= tol * max(1.0, abs(new_obj))
        obj = new_obj
        if done:
            converged = True
            break
    # a vertex optimum is only reached in the limit; hand over to the exact
    # vertex whenever one evaluates at least as well, so the solution is
    # never worse than any single expert
    i, vertex_loss = best_single_expert(stream)
    if vertex_loss < -obj:
        a = np.zeros(stream.n_experts)
        a[i] = 1.0
        obj = -vertex_loss
    return MixtureSolution(a=a, loss=-obj + 0.0, iterations=iterations, converged=converged)


def single_expert_losses(stream: ExpertStream) -> np.ndarray:
    """Cumulative loss of each vertex competitor; infinite where an expert
    assigned zero at some round."""
    with np.errstate(divide="ignore"):
        losses = -np.log(stream.p).sum(axis=0)
    return losses


def best_single_expert(stream: ExpertStream) -> tuple[int, float]:
    losses = single_expert_losses(stream)
    i = int(np.argmin(losses))
    return i, float(losses[i]) + 0.0


@dataclass
class ShiftingSolution:
    per_segment: list
    total_loss: float


def shifting_best(stream: ExpertStream, segments: SegmentSpec) -> ShiftingSolution:
    """Best piecewise-constant competitor: independent fixed-mixture fits per
    segment, losses summed."""
    sols = [best_fixed_mixture(rows) for rows in segments.rows(stream)]
    return ShiftingSolution(sols, float(sum(s.loss for s in sols)))


def regret_report(trace, comparator_loss: float, bound: float | None = None,
                  exclude_diverged: bool = False) -> RegretReport:
    """Assemble the regret line for one learner run.

    A diverged trace reports infinite loss and regret unless
    ``exclude_diverged`` is set, in which case only the finite rounds count
    (the caller is responsible for excluding the same rounds from the
    comparator).
    """
    if exclude_diverged:
        learner_loss = trace.finite_loss
    else:
        learner_loss = trace.total_loss
    if math.isinf(learner_loss) and math.isfinite(comparator_loss):
        regret = INFINITE_LOSS
    else:
        regret = learner_loss - comparator_loss
    # inf - inf leaves the regret, and so any verdict on it, undefined
    satisfied = (None if bound is None or math.isnan(regret)
                 else bool(regret <= bound + BOUND_SLACK))
    return RegretReport(learner_loss, comparator_loss, regret, bound, satisfied)


def _eta_bar(eta: float) -> float:
    if not 0.0 < eta < 1.0:
        raise ValueError(f"rate {eta!r} outside (0, 1)")
    return eta / (1.0 - eta)


def _bound_thm2(T, N, m, eta):
    eb = _eta_bar(eta)
    return math.log(N) / eb + eb * m * T + m * math.log(N / m) + math.log(N)


def _bound_thm2_tuned_m(T, N, m):
    return 2.0 * math.sqrt(T * m * math.log(N)) + m * math.log(N / m) + math.log(N)


def _bound_thm2_tuned_n(T, N):
    return 2.0 * math.sqrt(T * N * math.log(N)) + math.log(N)


def _bound_thm3_cumulative(N, eta, vmax):
    eb = _eta_bar(eta)
    return math.log(N) / eb + eb * vmax + math.log(N)


def _bound_thm3_max(T, N, eta, c2):
    eb = _eta_bar(eta)
    return math.log(N) / eb + eb * T * c2 + math.log(N)


def _bound_thm3_tuned(T, N, c2):
    return 2.0 * math.sqrt(T * c2 * math.log(N)) + math.log(N)


def _bound_thm4(T, N, eta, c1):
    return min(c1, math.log(N) / eta + eta * c1 / 2.0 + eta * eta * T)


def _bound_thm4_tuned(T, N, c1):
    if c1 <= 0.0:
        return 0.0
    return min(c1, math.sqrt(2.0 * c1 * math.log(N)) + 2.0 * T * math.log(N) / c1)


def _bound_thm5(T, N):
    return (2.0 * math.sqrt(2.0 * (T + 1) * N * math.log(N))
            + (N / 2.0 + math.log(N)) * math.log(T + 1.0) + math.log(N))


def _bound_thm6(T, N, m):
    ln_n = math.log(N)
    return (2.0 * math.sqrt(2.0 * m * (T + 1) * ln_n)
            + (m + ln_n) * math.log(T)
            + m * math.log(N / m)
            + 1.2 * m
            + math.sqrt(ln_n / 2.0) * (1.0 + math.log(m))
            + 3.5 * ln_n)


def _bound_thm7(T, N, K):
    if T < 2:
        raise ValueError("the shifting guarantee needs T >= 2")
    ln_n = math.log(N)
    lead = math.sqrt(2.0 * (T + 1) * N * ln_n)
    return (lead * (math.log(T + 3.0) + K * (2.0 / ln_n + 1.0 / math.log(T)))
            + 1.25 * (ln_n / N) * (1.0 + math.log(T)) ** 3
            + (N / 2.0) * math.log(T + 1.0))


def _bound_single_expert(eta, prior_entry):
    if not 0.0 < eta <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    if not 0.0 < prior_entry <= 1.0:
        raise ValueError("prior entry must lie in (0, 1]")
    return math.log(1.0 / prior_entry) / eta

BOUND_VARIANTS = {
    "thm2": (("T", "N", "m", "eta"), _bound_thm2),
    "thm2_tuned_m": (("T", "N", "m"), _bound_thm2_tuned_m),
    "thm2_tuned_n": (("T", "N"), _bound_thm2_tuned_n),
    "thm3_cumulative": (("N", "eta", "vmax"), _bound_thm3_cumulative),
    "thm3_max": (("T", "N", "eta", "c2"), _bound_thm3_max),
    "thm3_tuned": (("T", "N", "c2"), _bound_thm3_tuned),
    "thm4": (("T", "N", "eta", "c1"), _bound_thm4),
    "thm4_tuned": (("T", "N", "c1"), _bound_thm4_tuned),
    "thm5": (("T", "N"), _bound_thm5),
    "thm6": (("T", "N", "m"), _bound_thm6),
    "thm7": (("T", "N", "K"), _bound_thm7),
    "single-expert": (("eta", "prior_entry"), _bound_single_expert),
}


def theoretical_bound(variant: str, **params) -> float:
    """Evaluate a closed-form regret guarantee.

    ``variant`` is one of ``BOUND_VARIANTS``; every listed parameter must be
    supplied (extras are rejected, to catch typos)."""
    key = variant.replace("-", "_") if variant != "single-expert" else variant
    if key not in BOUND_VARIANTS:
        known = ", ".join(sorted(BOUND_VARIANTS))
        raise ValueError(f"unknown bound variant {variant!r}; known: {known}")
    required, fn = BOUND_VARIANTS[key]
    missing = [k for k in required if k not in params]
    if missing:
        raise ValueError(f"bound {variant!r} missing parameters: {', '.join(missing)}")
    extra = [k for k in params if k not in required]
    if extra:
        raise ValueError(f"bound {variant!r} got unexpected parameters: {', '.join(extra)}")
    return float(fn(**params))


def disjoint_closed_form(counts, t: int, c: float, N: int) -> np.ndarray:
    """Add-constant estimator ((n_i + c/N) / (t + c))_i over N symbols.

    ``counts`` are per-symbol occurrence counts after ``t`` rounds; the
    output is exactly on the simplex.
    """
    n = np.asarray(counts, dtype=float)
    if n.size != N:
        raise ValueError(f"expected {N} counts, got {n.size}")
    if np.any(n < 0) or not np.all(n == np.floor(n)):
        raise ValueError("counts must be nonnegative integers")
    if int(n.sum()) != t:
        raise ValueError(f"counts sum to {int(n.sum())}, expected t={t}")
    if not c > 0:
        raise ValueError("c must be positive")
    return (n + c / N) / (t + c)
