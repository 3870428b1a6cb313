"""Regret accounting: hindsight competitors, guarantee evaluation, and the
disjoint-support closed form.

The best fixed mixture is found by the classical multiplicative fixed-point
iteration for log-optimal mixtures, a_i <- a_i * mean_t(p_it / A_t), whose
objective is provably nondecreasing; that monotonicity is asserted at runtime
as a self-check.  Repeated rows are folded into (distinct row, count) pairs
first, each cycle's two steps are extrapolated by SQUAREM (Varadhan & Roland
2008), and the solve stops on Cover's (1984) Kuhn-Tucker bound on the
distance to the optimum, which ``MixtureSolution.gap`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import INFINITE_LOSS, ExpertStream, uniform_weights

BOUND_SLACK = 1e-6


@dataclass
class MixtureSolution:
    """Best fixed convex combination in hindsight and its loss in nats;
    ``gap`` bounds how far ``loss`` lies above the optimum, in nats, and
    ``iterations`` counts the solver's cycles."""

    a: np.ndarray
    loss: float
    iterations: int
    gap: float
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


def _folded_rows(p: np.ndarray):
    """The distinct rows of ``p`` and how often each occurs.  Each row's bytes
    are one item to ``np.unique``, so the order is the rows' byte order,
    whatever order the rounds came in."""
    p = np.ascontiguousarray(p)
    keys = p.view(np.dtype((np.void, p.itemsize * p.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return p[first], counts.astype(float)


def best_fixed_mixture(stream: ExpertStream, tol: float = 1e-6,
                       max_iter: int = 100_000) -> MixtureSolution:
    """Maximize sum_t ln(sum_i a_i p_it) over the simplex.

    Multiplicative fixed-point iteration from the uniform start over the
    distinct rows weighted by their counts, two steps per cycle extrapolated
    by SQUAREM; stops once the Kuhn-Tucker gap, a bound on the loss above
    the optimum, is at most ``tol`` nats, or after ``max_iter`` cycles.  The
    objective never decreases.
    """
    T = len(stream)
    if T == 0:
        raise ValueError("cannot fit a comparator to an empty stream")
    U, c = _folded_rows(stream.p)

    def ratio(A):
        # g_i = sum_t c_t U_ti / A_t / T; the multiplicative step is a * g,
        # and sum_i a_i g_i = 1 at the a that gave A
        return (c / A) @ U / T

    def gap(g):
        # Cover (1984): the optimum lies at most T ln max_i g_i above the
        # objective at the a that gave g (clipped at 0 against rounding)
        return max(0.0, T * math.log(g.max()))

    def mapped(a, g, obj):
        a = a * g
        a /= a.sum()
        A = U @ a
        new_obj = float(c @ np.log(A))
        # relative tolerance: evaluating the objective itself carries
        # summation noise proportional to its magnitude
        if new_obj < obj - 1e-12 * max(1.0, abs(obj)):
            raise RuntimeError(
                f"fixed-point objective decreased ({obj!r} -> {new_obj!r}); "
                "the iteration is monotone, so this indicates a bug")
        return a, A, new_obj

    a = uniform_weights(stream.n_experts)
    A = U @ a
    obj = float(c @ np.log(A))
    iterations = 0
    while True:
        g = ratio(A)
        certified = gap(g)
        if certified <= tol or iterations == max_iter:
            break
        iterations += 1
        a1, A1, obj1 = mapped(a, g, obj)
        a2, A2, obj2 = mapped(a1, ratio(A1), obj1)
        # SQUAREM (Varadhan & Roland 2008): the step length is their third
        # rule, alpha = -|r|/|v| for r = a1 - a and v = a2 - 2 a1 + a, and the
        # step is taken on the log-weights, ln a - 2 alpha ln(a1/a) +
        # alpha^2 ln(a2 a / a1^2), which is ln a2 at alpha = -1, keeps every
        # live weight positive and sends a vanishing one further down.  A
        # longer step is kept only if it does not lower the objective; else
        # alpha is halved toward -1, and set to -1 once within 0.01 of it.
        r, v = a1 - a, a2 - 2.0 * a1 + a
        vv = float(v @ v)
        alpha = min(-1.0, -math.sqrt(float(r @ r) / vv)) if vv > 0.0 else -1.0
        live = a2 > 0.0
        log_a, log_a1, log_a2 = np.log(a[live]), np.log(a1[live]), np.log(a2[live])
        log_r, log_v = log_a1 - log_a, log_a2 - 2.0 * log_a1 + log_a
        while alpha < -1.0:
            log_ext = log_a - 2.0 * alpha * log_r + alpha * alpha * log_v
            ext = np.zeros_like(a)
            ext[live] = np.exp(log_ext - log_ext.max())
            ext /= ext.sum()
            A_ext = U @ ext
            with np.errstate(divide="ignore", invalid="ignore"):
                obj_ext = float(c @ np.log(A_ext))
            if obj_ext >= obj:
                a, A, obj = ext, A_ext, obj_ext
                break
            alpha = (alpha - 1.0) / 2.0 if alpha < -1.01 else -1.0
        else:
            # the double step is kept even where it has reached exact zeros
            a, A, obj = a2, A2, obj2
    # a vertex optimum is only reached in the limit; hand over to the exact
    # vertex whenever one evaluates at least as well, so the solution is
    # never worse than any single expert
    i, vertex_loss = best_single_expert(stream)
    if vertex_loss < -obj:
        a = np.zeros(stream.n_experts)
        a[i] = 1.0
        obj = -vertex_loss
        certified = gap(ratio(U[:, i]))
    return MixtureSolution(a=a, loss=-obj + 0.0, iterations=iterations,
                           gap=certified, converged=certified <= tol)


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
