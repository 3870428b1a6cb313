"""Regret accounting: hindsight competitors, guarantee evaluation, and the
disjoint-support closed form.

The best fixed mixture and the best single expert are each fitted to one
stream; the harness fits a comparator one segment's rows at a time.

The best fixed mixture is found by a log-barrier Newton method (Boyd &
Vandenberghe 2004, ch. 11) over the distinct rows weighted by their counts.
It stops on Cover's (1984) Kuhn-Tucker bound on the distance to the
optimum, which ``MixtureSolution.gap`` reports.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import INFINITE_LOSS, ExpertStream, read_count, read_name, uniform_weights

BOUND_SLACK = 1e-6
# the fixed-mixture solve's barrier weight: its start, and the factor it is cut by
MU_START, MU_CUT = 1.0, 100.0


@dataclass
class MixtureSolution:
    """Best fixed convex combination in hindsight and its loss in nats;
    ``gap`` bounds how far ``loss`` lies above the optimum, in nats, and
    ``iterations`` counts the solver's Newton steps."""

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


def _folded_rows(p: np.ndarray):
    """The distinct rows of ``p`` and how often each occurs.  Each row's bytes
    are one item to ``np.unique``, so the order is the rows' byte order,
    whatever order the rounds came in."""
    p = np.ascontiguousarray(p)
    keys = p.view(np.dtype((np.void, p.itemsize * p.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return p[first], counts.astype(float)


def _spd_solve(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with H X = B for a symmetric positive definite H, by Gauss-Jordan
    elimination without pivoting.  It is elementwise numpy only: LAPACK's
    blocked factorizations round differently at different thread counts."""
    n = len(H)
    M = np.hstack([H, B])
    for k in range(n):
        pivot_row = M[k] / M[k, k]
        M -= np.outer(M[:, k], pivot_row)
        M[k] = pivot_row
    return M[:, n:]


def best_fixed_mixture(stream: ExpertStream, tol: float = 1e-6,
                       max_iter: int = 100_000) -> MixtureSolution:
    """Maximize sum_t ln(sum_i a_i p_it) over the simplex.

    Newton steps from the uniform start on w . ln(U a) + mu sum_i ln a_i
    subject to sum_i a_i = 1, where U holds the distinct rows and w their
    counts over T; mu is cut once the Newton decrement is at most mu.  Stops
    once the Kuhn-Tucker gap, a bound on the loss above the optimum, is at
    most ``tol`` nats, after ``max_iter`` steps, or when backtracking finds
    no step of at least 1e-12 that raises the objective (a ``tol`` below the
    certificate's rounding), the last two with ``converged=False``.
    """
    T = len(stream)
    if T == 0:
        raise ValueError("cannot fit a comparator to an empty stream")
    U, c = _folded_rows(stream.p)
    # w = c / T leaves every iterate's bits the same when all counts double
    w = c / T
    n = stream.n_experts

    def ratio(A):
        # g_i = sum_t c_t U_ti / A_t / T, the gradient of w . ln(U a); and
        # sum_i a_i g_i = 1 at the a that gave A
        return (c / A) @ U / T

    def gap(g):
        # Cover (1984): the optimum lies at most T ln max_i g_i above the
        # objective at the a that gave g (clipped at 0 against rounding)
        return max(0.0, T * math.log(g.max()))

    a = uniform_weights(n)
    A = U @ a
    mu = MU_START
    iterations = 0
    while True:
        g = ratio(A)
        certified = gap(g)
        if certified <= tol or iterations == max_iter:
            break
        # the KKT system [H 1; 1' 0] [d; nu] = [grad; 0] through H, whose bits,
        # one matrix-vector product per column, hold at any BLAS thread count
        grad = g + mu / a
        W = U * (np.sqrt(w) / A)[:, None]
        H = np.stack([W[:, j] @ W for j in range(n)]) + np.diag(mu / (a * a))
        x, y = _spd_solve(H, np.stack([grad, np.ones(n)], axis=1)).T
        d = x - (x.sum() / y.sum()) * y
        # sum_i d_i = 0 holds above only to x's rounding, and w . ln(U a) rises
        # by sum_i d_i along d, which near the optimum swamps the true rise
        d -= d.sum() / n
        decrement = float(d @ grad)
        # keep each weight above 1% of itself, then halve s until the rise,
        # summed from log1p terms free of cancellation, is at least a quarter
        # of its linear prediction
        s = 0.99 / np.max(-d / a, initial=0.99)
        Ud = U @ d
        while s >= 1e-12 and (float(w @ np.log1p(s * Ud / A))
                              + mu * float(np.log1p(s * d / a).sum()) < 0.25 * s * decrement):
            s /= 2.0
        if s < 1e-12:
            # no step rises: the certificate is down to the rounding of the
            # objective, so the current one is reported, not converged
            break
        iterations += 1
        a = a + s * d
        A = U @ a
        if decrement <= mu:
            # below eps / N the centre's certificate T N mu is under its rounding
            mu = max(mu / MU_CUT, np.finfo(float).eps / n)
    obj = float(c @ np.log(A))
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
        return -np.log(stream.p).sum(axis=0)


def best_single_expert(stream: ExpertStream) -> tuple[int, float]:
    losses = single_expert_losses(stream)
    i = int(np.argmin(losses))
    return i, float(losses[i]) + 0.0


def regret_report(trace, comparator_loss: float, bound: float | None = None,
                  exclude_diverged: bool = False) -> RegretReport:
    """Assemble the regret line for one learner run.

    A diverged trace reports infinite loss and regret unless
    ``exclude_diverged`` is set, in which case only the finite rounds count
    (the caller is responsible for excluding the same rounds from the
    comparator).
    """
    learner_loss = trace.finite_loss if exclude_diverged else trace.total_loss
    if math.isinf(learner_loss) and math.isfinite(comparator_loss):
        regret = INFINITE_LOSS
    else:
        regret = learner_loss - comparator_loss
    # inf - inf leaves the regret, and so any verdict on it, undefined
    satisfied = (None if bound is None or math.isnan(regret)
                 else bool(regret <= bound + BOUND_SLACK))
    return RegretReport(learner_loss, comparator_loss, regret, bound, satisfied)


def _eta_bar(eta: float) -> float:
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
    ln_n = math.log(N)
    lead = math.sqrt(2.0 * (T + 1) * N * ln_n)
    return (lead * (math.log(T + 3.0) + K * (2.0 / ln_n + 1.0 / math.log(T)))
            + 1.25 * (ln_n / N) * (1.0 + math.log(T)) ** 3
            + (N / 2.0) * math.log(T + 1.0))


def _bound_single_expert(eta, prior_entry):
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
    "single_expert": (("eta", "prior_entry"), _bound_single_expert),
}

# the least value of each count a bound takes: T rounds, N experts, m experts
# ever best (also at most N) and K comparator segments; and of each
# self-confident constant c1, c2 and vmax, none negative by its definition
# (inf passes, as ratio_stats can give it; NaN fails)
_FLOORS = {"T": 1, "N": 2, "m": 1, "K": 1, "c1": 0, "c2": 0, "vmax": 0}


def theoretical_bound(variant: str, **params) -> float:
    """Evaluate a closed-form regret guarantee.

    ``variant`` names one of ``BOUND_VARIANTS`` by ``read_name``'s rule;
    every listed parameter must be supplied (extras are rejected, to catch
    typos), each count (T, N, m, K) is read by ``read_count``, each rate,
    prior entry or constant must be a real number that is not a bool, and a
    count, constant or rate outside the bound's domain is rejected too."""
    key = read_name(variant, BOUND_VARIANTS)
    if key is None:
        known = ", ".join(sorted(BOUND_VARIANTS))
        raise ValueError(f"unknown bound variant {variant!r}; known: {known}")
    required, fn = BOUND_VARIANTS[key]
    missing = [k for k in required if k not in params]
    if missing:
        raise ValueError(f"bound {variant!r} missing parameters: {', '.join(missing)}")
    extra = [k for k in params if k not in required]
    if extra:
        raise ValueError(f"bound {variant!r} got unexpected parameters: {', '.join(extra)}")
    params.update({name: read_count(params[name], f"bound {variant!r} parameter {name}")
                   for name in ("T", "N", "m", "K") if name in params})
    for name in ("eta", "prior_entry", "c1", "c2", "vmax"):
        value = params.get(name, 0.0)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"bound {variant!r} parameter {name} must be a real number, "
                             f"got {value!r}")
    # thm7's 1 / ln T term needs a second round
    floors = {**_FLOORS, "T": 2} if key == "thm7" else _FLOORS
    for name, least in floors.items():
        if name in params and not params[name] >= least:
            raise ValueError(f"bound {variant!r} needs {name} >= {least}, "
                             f"got {params[name]!r}")
    # a rate or prior entry lies in (0, 1), and for the single-expert bound
    # in (0, 1]: it takes the Bayes rate and a prior on one expert
    closed = key == "single_expert"
    for name in ("eta", "prior_entry"):
        if name in params and not (0.0 < params[name] <= 1.0 if closed
                                   else 0.0 < params[name] < 1.0):
            raise ValueError(f"bound {variant!r} needs 0 < {name} {'<=' if closed else '<'} 1, "
                             f"got {params[name]!r}")
    if "m" in params and params["m"] > params["N"]:
        raise ValueError(f"bound {variant!r} needs m <= N, got m={params['m']!r} "
                         f"with N={params['N']!r}")
    if "K" in params and params["K"] > params["T"]:
        raise ValueError(f"bound {variant!r} needs K <= T, got K={params['K']!r} "
                         f"with T={params['T']!r}")
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
