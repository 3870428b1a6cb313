"""Sequential learners over expert-probability streams.

Each update rule has one kernel.  The exported step functions validate their
inputs and call it; the learner classes drive the same kernel with a rate
schedule and exclusive state ownership for harness runs.

Divergence (the learner assigned probability zero to the realized symbol) is
reported through the infinite-loss sentinel in the returned outcome, with the
weights left unchanged; whether the run halts there is the harness's call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    INFINITE_LOSS,
    as_simplex,
    mixture_prob,
    project_simplex,
    uniform_weights,
)


@dataclass(slots=True)
class WeightState:
    """Current weights, the prior they started from, and the 1-based round."""

    w: np.ndarray
    prior: np.ndarray
    t: int = 1

    @staticmethod
    def uniform(n: int) -> "WeightState":
        prior = uniform_weights(n)
        return WeightState(prior.copy(), prior, 1)

    @staticmethod
    def from_prior(prior) -> "WeightState":
        p = as_simplex(prior)
        return WeightState(p.copy(), p, 1)


@dataclass(slots=True)
class StepOutcome:
    prediction: float
    loss: float
    rate_used: float | None
    new_weights: np.ndarray

    @property
    def diverged(self) -> bool:
        return math.isinf(self.loss)


def _check_round(w: np.ndarray, p) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if q.shape != w.shape:
        raise ValueError(f"dimension mismatch: weights {w.shape} vs round {q.shape}")
    return q


def _mixture(w: np.ndarray, q: np.ndarray):
    """M = w . q for one weight row, or per row of a ``(K, N)`` stack; the
    batched matmul gives each row the bits ``np.dot`` gives it alone."""
    if w.ndim == 1:
        return float(np.dot(w, q))
    return (w[:, None, :] @ q[..., :, None]).reshape(len(w))


def _soft_bayes_weights(w, q, m, eta_t, eta_next=None, prior=None) -> np.ndarray:
    """w_i (1 - eta_t + eta_t q_i / M) on one weight row, or on a ``(K, N)``
    stack with ``m`` and ``eta_t`` scalars or ``(K, 1)`` columns; an
    ``eta_next`` other than ``eta_t`` then blends toward ``prior``."""
    c2 = eta_t / m
    c1 = 1.0 - eta_t
    blend = eta_next is not None and eta_next != eta_t
    if w.ndim == 1 and w.size <= 16:
        # numpy call overhead dominates at small expert counts; the scalar
        # loop applies the identical per-element operations
        if blend:
            ratio = eta_next / eta_t
            c3 = 1.0 - ratio
            return np.array([wi * (c1 + c2 * qi) * ratio + c3 * pi
                             for wi, qi, pi in zip(w.tolist(), q.tolist(), prior.tolist())])
        return np.array([wi * (c1 + c2 * qi) for wi, qi in zip(w.tolist(), q.tolist())])
    u = q * c2
    u += c1
    u *= w
    if blend:
        ratio = eta_next / eta_t
        u *= ratio
        u += (1.0 - ratio) * prior
    return u


def _soft_bayes_cycle(state: WeightState, q: np.ndarray, eta_t: float, next_rate) -> StepOutcome:
    """The soft-Bayes kernel: M, then ``next_rate(q, M)`` for the rate the
    prior blend uses (online schedules see the round before they emit
    eta_{t+1}), then the divergence sentinel or the updated weights."""
    m = _mixture(state.w, q)
    eta_next = next_rate(q, m)
    if m == 0.0:
        return StepOutcome(0.0, INFINITE_LOSS, eta_t, state.w.copy())
    u = _soft_bayes_weights(state.w, q, m, eta_t, eta_next, state.prior)
    return StepOutcome(m, -math.log(m), eta_t, u)


def soft_bayes_step(state: WeightState, p, eta_t: float,
                    eta_next: float | None = None) -> StepOutcome:
    """One soft-Bayes cycle: mixture prediction, then the multiplicative-
    additive update w_i <- w_i (1 - eta + eta p_i / M).

    With ``eta_next < eta_t`` the updated weights are additionally blended
    toward the prior with ratio eta_next/eta_t, which keeps a floor of
    prior_i (1 - eta_next/eta_t) under every weight.  ``eta_next = eta_t``
    makes the blend the identity; ``eta_t = 1`` is the exact Bayesian
    posterior.
    """
    if not 0.0 < eta_t <= 1.0:
        raise ValueError(f"rate {eta_t!r} outside (0, 1]")
    if eta_next is None:
        eta_next = eta_t
    if not 0.0 < eta_next <= eta_t:
        raise ValueError(f"next rate {eta_next!r} outside (0, eta_t={eta_t!r}]: "
                         "the correction requires a nonincreasing rate sequence")
    q = _check_round(state.w, p)
    return _soft_bayes_cycle(state, q, eta_t, lambda q, m: eta_next)


def bayes_step(state: WeightState, p) -> StepOutcome:
    """Exact Bayesian posterior update: soft-Bayes at rate 1."""
    return soft_bayes_step(state, p, 1.0)


def _eg_cycle(log_w: np.ndarray, q: np.ndarray, eta: float):
    """The EG kernel on log weights; returns ``(M, ln M, new log weights)``,
    with ln M = -inf and the weights unchanged on divergence.

    Log-sum-exp keeps -ln M finite after M underflows and lets exponent
    arguments reach ~1e300; beyond the float range the mass collapses onto
    the offending experts, which is the instability this update genuinely has.
    """
    with np.errstate(divide="ignore"):
        log_q = np.log(q)
    z = log_w + log_q
    top = float(z.max())
    if math.isinf(top) and top < 0:
        return 0.0, -math.inf, log_w
    log_m = top + math.log(float(np.exp(z - top).sum()))
    with np.errstate(over="ignore"):
        g = eta * np.exp(log_q - log_m)
    with np.errstate(invalid="ignore"):
        z = log_w + g
    z[np.isneginf(log_w)] = -np.inf  # zero weight stays zero (-inf + inf above)
    top = z.max()
    if math.isinf(top) and top > 0:
        hit = np.isposinf(z)
        new_log_w = np.where(hit, -math.log(int(hit.sum())), -np.inf)
    else:
        new_log_w = z - (top + math.log(float(np.exp(z - top).sum())))
    return math.exp(log_m), log_m, new_log_w


def eg_step(state: WeightState, p, eta: float) -> StepOutcome:
    """Exponentiated-gradient update w_i proportional to w_i exp(eta p_i / M).

    Runs the log-domain kernel of :class:`ExponentiatedGradient`, converting
    the linear weights at the boundary; the linear weights themselves can
    underflow to zero on long adversarial runs, where the class's log
    weights do not.
    """
    if not eta > 0.0:
        raise ValueError("EG rate must be positive")
    q = _check_round(state.w, p)
    with np.errstate(divide="ignore"):
        log_w = np.log(state.w)
    m, log_m, new_log_w = _eg_cycle(log_w, q, eta)
    if math.isinf(log_m):
        return StepOutcome(0.0, INFINITE_LOSS, eta, state.w.copy())
    return StepOutcome(m, -log_m, eta, np.exp(new_log_w))


def ogd_step(state: WeightState, p, eta: float) -> StepOutcome:
    """Projected gradient step w' = Pi(w + eta p / M).

    The projection can concentrate all mass on one expert, after which a
    round that expert gets wrong produces the infinite-loss sentinel.
    """
    if not eta > 0.0:
        raise ValueError("OGD rate must be positive")
    q = _check_round(state.w, p)
    m = mixture_prob(state.w, q)
    if m == 0.0:
        return StepOutcome(0.0, INFINITE_LOSS, eta, state.w.copy())
    return StepOutcome(m, -math.log(m), eta, project_simplex(state.w + (eta / m) * q))


@dataclass
class MLWeightState:
    """State for the per-expert-rate variant.

    ``w`` stays strictly positive but is no longer confined to the simplex
    once the per-expert rate ratios differ; ``V[i]`` accumulates the squared
    excess prediction ratio (p_i/M - 1)^2 that drives expert i's rate.
    """

    w: np.ndarray
    prior: np.ndarray
    rates: np.ndarray
    V: np.ndarray
    t: int = 1

    @staticmethod
    def uniform(n: int, rates) -> "MLWeightState":
        prior = uniform_weights(n)
        r = np.asarray(rates, dtype=float)
        if r.shape != prior.shape:
            raise ValueError("need one rate per expert")
        if np.any(r <= 0.0) or np.any(r >= 1.0):
            raise ValueError("per-expert rates must lie in (0, 1)")
        return MLWeightState(prior.copy(), prior, r.copy(), np.zeros(n), 1)


def ml_rate_next(v_prev, n: int):
    """Per-expert rate from the accumulated squared excess ratio.

    Odds form sqrt((ln N / 2) / (ln N + V)); monotone nonincreasing in V.
    Accepts a scalar or an array of V values.
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    v = np.asarray(v_prev, dtype=float)
    if np.any(v < 0):
        raise ValueError("V must be nonnegative")
    ln_n = math.log(n)
    eta_bar = np.sqrt((ln_n / 2.0) / (ln_n + v))
    eta = eta_bar / (1.0 + eta_bar)
    return float(eta) if np.isscalar(v_prev) or v.ndim == 0 else eta


def _check_next_rates(rates: np.ndarray, next_rates) -> np.ndarray:
    nxt = np.asarray(next_rates, dtype=float)
    if nxt.shape != rates.shape:
        raise ValueError("need one next rate per expert")
    if np.any(nxt <= 0.0) or np.any(nxt > rates):
        raise ValueError("next rates must lie in (0, current rate] per expert")
    return nxt


def _ml_soft_bayes_cycle(state: MLWeightState, q: np.ndarray,
                         next_rates) -> tuple[StepOutcome, MLWeightState]:
    """The per-expert-rate kernel: M and the ratios p_i/M once, then
    ``next_rates(V)`` with V already advanced, then the update.  A diverged
    round returns the state it was given."""
    wr = state.w * state.rates
    den = float(wr.sum())
    m = float(np.dot(wr, q)) / den
    if m == 0.0:
        return StepOutcome(0.0, INFINITE_LOSS, None, state.w.copy()), state
    ratio = q / m
    v_new = state.V + (ratio - 1.0) ** 2
    nxt = next_rates(v_new)
    u = state.w * (1.0 - state.rates + state.rates * ratio)
    blend = nxt / state.rates
    w_new = u * blend + (1.0 - blend) * state.prior
    new_state = MLWeightState(w_new, state.prior, nxt.copy(), v_new, state.t + 1)
    return StepOutcome(m, -math.log(m), None, w_new), new_state


def ml_soft_bayes_step(state: MLWeightState, p, next_rates) -> tuple[StepOutcome, MLWeightState]:
    """One cycle of the per-expert-rate mixture.

    Prediction is the rate-weighted mixture sum(w_i eta_i p_i) / sum(w_i
    eta_i); each expert then runs the soft-Bayes update and prior blend with
    its own rate pair.  Returns the outcome and the advanced state (new
    weights, the supplied next rates, and V incremented by (p_i/M - 1)^2).
    """
    q = _check_round(state.w, p)
    nxt = _check_next_rates(state.rates, next_rates)
    return _ml_soft_bayes_cycle(state, q, lambda v: nxt)


def meta_bayes_step(meta_weights, sub_predictions) -> tuple[float, np.ndarray]:
    """Bayesian mixture step over sub-learner predictions: the meta
    prediction is sum_k u_k M_k and the posterior is u_k proportional to
    u_k M_k.  Returns prediction 0 with weights unchanged when every
    weighted sub-prediction is zero (the divergence sentinel case)."""
    u = np.asarray(meta_weights, dtype=float)
    preds = np.asarray(sub_predictions, dtype=float)
    if u.shape != preds.shape:
        raise ValueError("dimension mismatch between meta weights and predictions")
    mp = float(np.dot(u, preds))
    if mp == 0.0:
        return 0.0, u.copy()
    return mp, u * preds / mp


def soft_bayes_sweep(batch, schedule):
    """Plain-schedule soft-Bayes over a batch of same-shape streams at once.

    ``batch`` is a (streams, rounds, experts) array; ``schedule`` must be one
    of the plain kinds (fixed, inverse-t), since the online correction is a
    per-learner affair.  Returns ``(predictions, weights)`` with shapes
    (S, T) and (S, T, N) (post-update weights).  It runs ``SoftBayes.step``'s
    kernel on all S rows at once, so seed sweeps don't pay the per-round
    interpreter cost once per stream.
    """
    if schedule.applies_correction:
        raise ValueError("batched sweeps support only plain schedules")
    P = np.asarray(batch, dtype=float)
    if P.ndim != 3:
        raise ValueError("batch must be (streams, rounds, experts)")
    S, T, N = P.shape
    W = np.tile(uniform_weights(N), (S, 1))
    preds = np.empty((S, T))
    hist = np.empty((S, T, N))
    eta = schedule.rate(1)
    for t in range(1, T + 1):
        Q = P[:, t - 1, :]
        m = _mixture(W, Q)
        if not np.all(m > 0.0):
            raise ValueError(f"round {t}: a sweep member diverged (mixture hit 0); "
                             "run it through run_learner for divergence handling")
        W = _soft_bayes_weights(W, Q, m[:, None], eta)
        preds[:, t - 1] = m
        hist[:, t - 1] = W
        eta = schedule.rate(t + 1)
    return preds, hist


class SoftBayes:
    """Soft-Bayes learner with a pluggable rate schedule.

    Schedules flagged ``applies_correction`` additionally blend toward the
    prior with the ratio of consecutive rates; a schedule that emits an
    increasing rate under that flag aborts the run.
    """

    def __init__(self, n: int, schedule, prior=None, name: str = "soft-bayes"):
        self.n = n
        self.name = name
        self.schedule = schedule
        self.state = WeightState.uniform(n) if prior is None else WeightState.from_prior(prior)
        self._eta = schedule.rate(1)

    @property
    def weights(self) -> np.ndarray:
        return self.state.w

    @property
    def current_rate(self) -> float:
        """The rate the next step will use."""
        return self._eta

    def step(self, p) -> StepOutcome:
        state = self.state
        out = _soft_bayes_cycle(state, _check_round(state.w, p), self._eta, self._next_rate)
        state.w = out.new_weights
        state.t += 1
        return out

    def _next_rate(self, q, m: float) -> float:
        """Show round t to the schedule, advance to eta_{t+1}, and return the
        rate the prior blend uses (eta_t itself for plain schedules)."""
        t, eta_t = self.state.t, self._eta
        self.schedule.observe(t, q, m)
        eta_next = self.schedule.rate(t + 1)
        corrects = self.schedule.applies_correction
        if corrects and eta_next > eta_t and m != 0.0:
            raise RuntimeError(
                f"schedule {self.schedule} emitted an increasing rate "
                f"({eta_t!r} -> {eta_next!r}) at t={t}")
        self._eta = eta_next
        return eta_next if corrects else eta_t


class Bayes(SoftBayes):
    """Exact Bayesian mixture: soft-Bayes pinned at rate 1."""

    def __init__(self, n: int, prior=None, name: str = "bayes"):
        from .rates import FixedRate

        super().__init__(n, FixedRate(1.0), prior=prior, name=name)


class ExponentiatedGradient:
    """EG over the linearized loss, with weights kept in the log domain so
    the huge p/M ratios adversarial streams produce do not overflow."""

    def __init__(self, n: int, eta: float, prior=None, name: str = "eg"):
        if not eta > 0.0:
            raise ValueError("EG rate must be positive")
        self.n = n
        self.eta = float(eta)
        self.name = name
        w1 = uniform_weights(n) if prior is None else as_simplex(prior)
        with np.errstate(divide="ignore"):
            self.log_w = np.log(w1)

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_w)

    def step(self, p) -> StepOutcome:
        # the prediction may underflow to 0.0 for display while the loss,
        # taken from ln M, stays finite
        m, log_m, self.log_w = _eg_cycle(self.log_w, _check_round(self.log_w, p), self.eta)
        return StepOutcome(m, -log_m, self.eta, self.weights)


class OnlineGradientDescent:
    """Projected online gradient descent on the simplex."""

    def __init__(self, n: int, eta: float, prior=None, name: str = "ogd"):
        if not eta > 0.0:
            raise ValueError("OGD rate must be positive")
        self.n = n
        self.eta = float(eta)
        self.name = name
        self.state = WeightState.uniform(n) if prior is None else WeightState.from_prior(prior)

    @property
    def weights(self) -> np.ndarray:
        return self.state.w

    def step(self, p) -> StepOutcome:
        out = ogd_step(self.state, p, self.eta)
        self.state = WeightState(out.new_weights, self.state.prior, self.state.t + 1)
        return out


class MLSoftBayes:
    """Soft-Bayes with one adaptive rate per expert, each driven by that
    expert's accumulated squared excess ratio."""

    def __init__(self, n: int, prior=None, name: str = "ml-soft-bayes"):
        if n < 2:
            raise ValueError("ml-soft-bayes needs N >= 2")
        self.n = n
        self.name = name
        w1 = uniform_weights(n) if prior is None else as_simplex(prior)
        r1 = np.full(n, float(ml_rate_next(0.0, n)))
        self.state = MLWeightState(w1.copy(), w1, r1, np.zeros(n), 1)

    @property
    def weights(self) -> np.ndarray:
        return self.state.w

    def step(self, p) -> StepOutcome:
        state = self.state
        out, self.state = _ml_soft_bayes_cycle(
            state, _check_round(state.w, p),
            lambda v: _check_next_rates(state.rates, ml_rate_next(v, self.n)))
        return out


class MetaBayes:
    """Bayesian mixture over fixed-rate soft-Bayes sub-learners, one row each
    of a weight stack.

    A sub-learner that diverges has its prediction pinned to zero from that
    round on; the Bayes posterior then removes its meta weight natively.
    """

    def __init__(self, n: int, rates, prior=None, name: str = "meta"):
        rates = [float(r) for r in rates]
        if not rates:
            raise ValueError("meta learner needs at least one sub-rate")
        for r in rates:
            if not 0.0 < r <= 1.0:
                raise ValueError(f"fixed rate {r!r} outside (0, 1]")
        w1 = uniform_weights(n) if prior is None else as_simplex(prior)
        self.n = n
        self.name = name
        self.w = np.tile(w1, (len(rates), 1))
        self.eta = np.array(rates)[:, None]
        self.dead = np.zeros(len(rates), dtype=bool)
        self.u = uniform_weights(len(rates))

    @property
    def weights(self) -> np.ndarray:
        """Meta weights over the sub-learners (not over the experts)."""
        return self.u

    @property
    def sub_dead(self) -> list:
        return self.dead.tolist()

    def step(self, p) -> StepOutcome:
        q = _check_round(self.w[0], p)
        m = _mixture(self.w, q)
        # a dead row is stepped at M = 1, which is cheaper than masking it out
        self.dead |= m == 0.0
        self.w = _soft_bayes_weights(self.w, q, np.where(self.dead, 1.0, m)[:, None], self.eta)
        mp, self.u = meta_bayes_step(self.u, np.where(self.dead, 0.0, m))
        if mp == 0.0:
            return StepOutcome(0.0, INFINITE_LOSS, None, self.u.copy())
        return StepOutcome(mp, -math.log(mp), None, self.u.copy())


@dataclass
class LearnerTrace:
    """Per-round record of one learner's run over a stream."""

    name: str
    predictions: np.ndarray
    losses: np.ndarray
    rates: np.ndarray
    weights: np.ndarray
    halted_at: int | None = None

    @property
    def rounds(self) -> int:
        return len(self.losses)

    @property
    def diverged(self) -> bool:
        return bool(not self.finite_mask().all())

    @property
    def cumulative_losses(self) -> np.ndarray:
        return np.cumsum(self.losses)

    @property
    def total_loss(self) -> float:
        """Infinite if any recorded round diverged: the sentinel carries
        through the sum."""
        return float(self.losses.sum())

    @property
    def finite_loss(self) -> float:
        return float(self.losses[self.finite_mask()].sum())

    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.losses)


def run_learner(learner, stream, on_divergence: str = "continue") -> LearnerTrace:
    """Drive a learner over a stream, recording every round's outcome.

    ``on_divergence="halt"`` stops at the first infinite loss, leaving a
    partial trace; ``"continue"`` keeps stepping (the learner's weights are
    unchanged on diverged rounds).
    """
    if on_divergence not in ("halt", "continue"):
        raise ValueError(f"unknown divergence policy {on_divergence!r}")
    halt = on_divergence == "halt"
    preds, losses, rates, weights = [], [], [], []
    halted_at = None
    step = learner.step
    for p in stream:
        out = step(p)
        preds.append(out.prediction)
        losses.append(out.loss)
        rates.append(math.nan if out.rate_used is None else out.rate_used)
        weights.append(out.new_weights)
        if halt and math.isinf(out.loss):
            halted_at = len(losses)
            break
    return LearnerTrace(
        name=getattr(learner, "name", type(learner).__name__),
        predictions=np.asarray(preds),
        losses=np.asarray(losses),
        rates=np.asarray(rates),
        weights=np.asarray(weights),
        halted_at=halted_at,
    )
