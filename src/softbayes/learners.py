"""Sequential learners over expert-probability streams.

Each update rule has one kernel, its class's ``_rounds(rows)`` generator,
which holds the whole update and nothing else and yields each round the
linear weight row its trace records.  One round loop,
``_Learner.step_block(P, halt, every)``, steps every class through it,
handing it one chunk of rows a call as lists of Python floats, and writes
the rows it keeps as they were yielded; ``run_learner`` is one call of it.
The class keeps its state as plain
attributes: ``weights`` (EG keeps ``log_w``, and meta its posterior ``u``
over its ``SoftBayes`` sub-learners ``subs``), the ``prior`` that
soft-Bayes and ML-soft-Bayes blend toward, ML-soft-Bayes's ``rates`` and
``V``, and for soft-Bayes the round ``t``, the ``current_rate`` and the rate
schedule, which any object with ``rate``, ``observe`` and
``applies_correction`` can be.  ``soft_bayes_sweep`` runs the soft-Bayes
kernel for several plain schedules over a batch of streams at once, as one
stack of weight rows.

Every learner's round is written once, on Python floats: each ``_rounds``
iterates its chunk's row lists and runs its update with IEEE basic
operations in an order the code fixes, every sum over the
experts (soft-Bayes's M, meta's sum_k u_k M_k, ML-soft-Bayes's two sums,
OGD's w . q and EG's log-sum-exp) added left to right, and exp and log
libm's, so a trace's bits do not depend on the BLAS kernel or numpy's SIMD
path.  The one numpy form is the sweep's, on its stack of weight rows: its
M is a running sum in the loop's order, and it steps only rounds whose every
M is normal, with the operations of ``SoftBayes._rounds``'s normal-M branch,
so it gives the float form's bits and refuses the rest.

Divergence (the learner assigned probability zero to the realized symbol) is
reported through the infinite-loss sentinel in the round's loss column, with
the weights left unchanged; whether the run halts there is the caller's call.
"""

from __future__ import annotations

import math
import sys
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .core import (
    INFINITE_LOSS,
    ExpertStream,
    as_simplex,
    check_rounds,
    project_floats,
    uniform_weights,
)
from .rates import FixedRate


def _start_weights(n: int, prior) -> np.ndarray:
    """The starting weights: uniform, or ``prior`` checked as a simplex over
    the ``n`` experts."""
    if prior is None:
        return uniform_weights(n)
    w = as_simplex(prior)
    if w.size != n:
        raise ValueError(f"prior has {w.size} entries, expected one for each of {n} experts")
    return w


def _loss(m: float) -> float:
    """The round's loss -ln M, or the infinite-loss sentinel where M = 0."""
    return -math.log(m) if m != 0.0 else INFINITE_LOSS


def _exp(x: float) -> float:
    """e^x, inf past the float range (where ``math.exp`` raises)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# a chunk, the rows one ``_rounds`` call is handed, holds at most
# _ROW_CHUNK rows and at most _CHUNK_CELLS row entries, and one row at least
_ROW_CHUNK = 256
_CHUNK_CELLS = 2048


class _Learner:
    """Every learner's round loop is ``step_block(P, halt=False, every=1)``:
    it steps the rows of ``P``, a (rounds, N) block, through the class's
    ``_rounds``, stops after the first infinite loss when ``halt`` is set,
    and returns the trace columns ``(predictions, losses, rates, weights,
    halted_at)``.  The weights column keeps the rows of block rounds
    ``every``, 2 ``every``, ... and of the last round stepped, each shaped
    like ``weights``; the other columns keep every round.

    The loop is the one place where rows become Python floats: it hands
    ``_rounds`` one chunk of rows at a time, read once as lists
    (``tolist()``), at most ``_ROW_CHUNK`` rows and ``_CHUNK_CELLS`` entries
    (one row at least), so its size is bounded at any width.  It writes the
    rounds that chunk yields into columns allocated once for the block, and
    releases them before it makes the next chunk, so the block's transient
    memory is one chunk; a halted block returns copies of the rows it
    stepped.

    ``_rounds`` keeps the state in locals, iterates the chunk's row lists,
    yields each round's ``(prediction, loss, rate, weights)`` after its
    update, the weights as the row the trace records (EG's the exponent of
    the log weights it holds), and writes the state back in
    its ``finally``, which the loop's ``close`` runs also on a halt or a
    raise; so a block may be cut anywhere, and stepping its parts in turn
    gives the trace and state of the whole.

    ``step_block`` trusts its rows: it checks only their width, not the
    stream rule, which ``run_learner`` holds a raw array to."""

    def step_block(self, P, halt: bool = False, every: int = 1):
        P = np.asarray(P, dtype=float)
        if P.shape[1:] != (self.n,):
            raise ValueError(f"dimension mismatch: weights {(self.n,)} vs round {P.shape[1:]}")
        if every < 1:
            raise ValueError(f"weight stride {every!r} must be at least 1")
        T = len(P)
        size = max(1, min(_ROW_CHUNK, _CHUNK_CELLS // self.n))
        preds, losses, rates = np.empty(T), np.empty(T), np.empty(T)
        weights = np.empty((-(-T // every), *np.shape(self.weights)))
        done = kept = 0
        halted_at = None
        while done < T and halted_at is None:
            chunk = []
            with closing(self._rounds(P[done:done + size].tolist())) as rounds:
                for row in rounds:
                    chunk.append(row)
                    if halt and row[1] == INFINITE_LOSS:
                        halted_at = done + len(chunk)
                        break
            stop = done + len(chunk)
            preds[done:stop], losses[done:stop], rates[done:stop], w = zip(*chunk)
            # the chunk's rounds that are multiples of every, and the block's last
            w = w[(every - 1 - done) % every::every] + (
                w[-1:] if (stop == T or halted_at is not None) and stop % every else ())
            if w:
                weights[kept:kept + len(w)] = w
                kept += len(w)
            done = stop
            del chunk, w   # released before the next chunk is made
        columns = preds, losses, rates, weights
        if done < T:
            columns = [column[:n].copy() for column, n in zip(columns, (done, done, done, kept))]
        return (*columns, halted_at)


# the smallest normal float: below it eta / M can overflow
_MIN_NORMAL = sys.float_info.min


def _ml_rate(v: float, ln_n: float) -> float:
    """ML-soft-Bayes's per-expert rate from the accumulated squared excess
    ratio V >= 0, in odds form: eta_bar / (1 + eta_bar) with
    eta_bar = sqrt((ln N / 2) / (ln N + V)), for N >= 2; nonincreasing in V."""
    eta_bar = math.sqrt((ln_n / 2.0) / (ln_n + v))
    return eta_bar / (1.0 + eta_bar)


def soft_bayes_sweep(batch, schedules):
    """Plain-schedule soft-Bayes for K schedules over a batch of S same-shape
    streams, all K x S (schedule, stream) learners in one pass over the rounds.

    ``batch`` is a (streams, rounds, experts) array, held to the stream rule
    (a bad round names its stream and round); ``schedules`` is a nonempty
    sequence of the plain kinds (fixed, inverse-t), since the online
    correction is a per-learner affair.  Returns ``(predictions, weights)``
    with shapes (K, S, T) and (K, S, T, N) (post-update weights); member
    ``[k, s]`` is bit for bit ``SoftBayes(N, schedules[k])`` run over
    ``batch[s]``.  The weights are one (K, S, N) stack stepped in numpy
    by the operations of ``SoftBayes._rounds``'s normal-M update, so seed
    sweeps don't pay the per-round interpreter cost once per learner.

    The sweep steps only that case: a round where any member's M is below
    the smallest normal float, 0 included, raises ``ValueError`` before its
    weights are stored.  The learner alone handles divergence and a
    subnormal M.
    """
    if not schedules:
        raise ValueError("a sweep needs at least one schedule")
    if any(schedule.applies_correction for schedule in schedules):
        raise ValueError("batched sweeps support only plain schedules")
    P = np.asarray(batch, dtype=float)
    if P.ndim != 3:
        raise ValueError("batch must be (streams, rounds, experts)")
    if not len(P):
        raise ValueError("batch holds no streams")
    check_rounds(P)
    K, (S, T, N) = len(schedules), P.shape
    W = np.tile(uniform_weights(N), (K, S, 1))
    preds = np.empty((K, S, T))
    hist = np.empty((K, S, T, N))
    # the plain schedules read no round, so every rate is known up front
    etas = np.array([[schedule.rate(t) for schedule in schedules] for t in range(1, T + 1)])
    for t in range(T):
        Q = P[:, t, :]
        # M = w_1 q_1 + ... + w_N q_N added left to right, the learner's
        # order, and one that no BLAS kernel or SIMD path changes
        m = np.add.accumulate(W * Q, axis=-1)[..., -1]
        # check_rounds leaves no NaN for Python's min to miss
        if not min(m.ravel().tolist()) >= _MIN_NORMAL:
            raise ValueError(f"round {t + 1}: a sweep member diverged (mixture 0) or its "
                             "mixture is subnormal; run it through run_learner, which "
                             "steps both")
        # SoftBayes._rounds's normal-M update, w_i ((1 - eta) + (eta / M) q_i)
        eta = etas[t, :, None, None]
        u = Q * (eta / m[..., None])
        u += 1.0 - eta
        W *= u
        preds[:, :, t] = m
        hist[:, :, t] = W
    return preds, hist


class SoftBayes(_Learner):
    """Soft-Bayes learner with a pluggable rate schedule: the update
    w_i <- w_i (1 - eta_t + eta_t p_i / M), exact Bayes at eta_t = 1.

    Schedules flagged ``applies_correction`` additionally blend toward the
    prior with the ratio eta_{t+1}/eta_t, which keeps a floor of
    prior_i (1 - eta_{t+1}/eta_t) under every weight; a schedule that emits
    an increasing rate under that flag aborts the run.
    """

    def __init__(self, n: int, schedule, prior=None, name: str = "soft-bayes"):
        self.n = n
        self.name = name
        self.schedule = schedule
        self.prior = _start_weights(n, prior)
        self.weights = self.prior.copy()
        self.t = 1
        # the rate the next round will use
        self.current_rate = schedule.rate(1)

    def _rounds(self, rows):
        """The schedule sees round t, as the row's Python floats, and its M
        before it gives eta_{t+1}, also on a diverged round."""
        schedule = self.schedule
        observe, rate = schedule.observe, schedule.rate
        corrects = schedule.applies_correction
        t, eta_t = self.t, self.current_rate
        wl, pl = self.weights.tolist(), self.prior.tolist()
        try:
            for q in rows:
                m = 0.0
                for wi, qi in zip(wl, q):
                    m += wi * qi
                observe(t, q, m)
                eta_next = rate(t + 1)
                if corrects and eta_next > eta_t and m != 0.0:
                    raise RuntimeError(
                        f"schedule {type(schedule).__name__} emitted an increasing rate "
                        f"({eta_t!r} -> {eta_next!r}) at t={t}")
                if m >= _MIN_NORMAL:
                    c1, c2 = 1.0 - eta_t, eta_t / m
                    if corrects and eta_next != eta_t:
                        ratio = eta_next / eta_t
                        c3 = 1.0 - ratio
                        wl = [wi * (c1 + c2 * qi) * ratio + c3 * pi
                              for wi, qi, pi in zip(wl, q, pl)]
                    else:
                        wl = [wi * (c1 + c2 * qi) for wi, qi in zip(wl, q)]
                elif m != 0.0:
                    # M is subnormal, so eta / M can overflow: each weight
                    # divides before it scales, and one carrying all of M is
                    # not rounded away
                    c1 = 1.0 - eta_t
                    wl = [wi * qi / m * eta_t + c1 * wi for wi, qi in zip(wl, q)]
                    if corrects and eta_next != eta_t:
                        ratio = eta_next / eta_t
                        c3 = 1.0 - ratio
                        wl = [wi * ratio + c3 * pi for wi, pi in zip(wl, pl)]
                rate_used, t, eta_t = eta_t, t + 1, eta_next
                yield m, _loss(m), rate_used, wl
        finally:
            self.weights, self.t, self.current_rate = np.array(wl), t, eta_t


class Bayes(SoftBayes):
    """Exact Bayesian mixture: soft-Bayes pinned at rate 1."""

    def __init__(self, n: int, prior=None, name: str = "bayes"):
        super().__init__(n, FixedRate(1.0), prior=prior, name=name)


class ExponentiatedGradient(_Learner):
    """EG over the linearized loss, with weights kept in the log domain so
    the huge p/M ratios adversarial streams produce do not overflow."""

    def __init__(self, n: int, eta: float, prior=None, name: str = "eg"):
        if not 0.0 < eta < math.inf:
            raise ValueError(f"EG rate {eta!r} must be positive and finite")
        self.n = n
        self.eta = float(eta)
        self.name = name
        self.log_w = np.array([math.log(x) if x > 0.0 else -math.inf
                               for x in _start_weights(n, prior).tolist()])

    @property
    def weights(self) -> np.ndarray:
        return np.array([math.exp(x) for x in self.log_w.tolist()])

    def _rounds(self, rows):
        """EG's round on Python floats at every width: ln M by log-sum-exp,
        each sum added left to right, with ln M = -inf and the log weights
        unchanged on divergence.

        Log-sum-exp keeps -ln M finite after M underflows and lets exponent
        arguments reach ~1e300; beyond the float range the mass collapses
        onto the offending experts, which is the instability this update
        genuinely has.  A zero weight stays zero.  The rounds yield the
        weights' linear row, the exponent of the log weights."""
        log_w, eta = self.log_w.tolist(), self.eta
        exp, log, inf = math.exp, math.log, math.inf
        try:
            for q in rows:
                log_q = [log(qi) if qi > 0.0 else -inf for qi in q]
                z = [lw + lq for lw, lq in zip(log_w, log_q)]
                top = max(z)
                if top == -inf:
                    # M = 0: the round diverged
                    m, loss = 0.0, inf
                else:
                    s = 0.0
                    for zi in z:
                        s += exp(zi - top)
                    log_m = top + log(s)
                    try:
                        g = [eta * exp(lq - log_m) for lq in log_q]
                    except OverflowError:
                        g = [eta * _exp(lq - log_m) for lq in log_q]
                    z = [lw + gi if lw != -inf else lw for lw, gi in zip(log_w, g)]
                    top = max(z)
                    if top == inf:
                        hit = -log(z.count(inf))
                        log_w = [hit if zi == inf else -inf for zi in z]
                    else:
                        s = 0.0
                        for zi in z:
                            s += exp(zi - top)
                        shift = top + log(s)
                        log_w = [zi - shift for zi in z]
                    # the prediction may underflow to 0.0 for display while
                    # the loss, taken from ln M, stays finite
                    m, loss = exp(log_m), -log_m
                yield m, loss, eta, list(map(exp, log_w))
        finally:
            self.log_w = np.array(log_w)


class OnlineGradientDescent(_Learner):
    """Projected online gradient descent on the simplex."""

    def __init__(self, n: int, eta: float, prior=None, name: str = "ogd"):
        if not 0.0 < eta < math.inf:
            raise ValueError(f"OGD rate {eta!r} must be positive and finite")
        self.n = n
        self.eta = float(eta)
        self.name = name
        self.weights = _start_weights(n, prior)

    def _rounds(self, rows):
        """The projected gradient step w' = Pi(w + eta q / M), M = w . q added
        left to right, with the weights unchanged when M = 0.

        The projection can concentrate all mass on one expert, after which a
        round that expert gets wrong produces the infinite-loss sentinel.
        Where the step eta/M overflows (M subnormal), each entry divides
        before it scales, w_i + eta (q_i / M), which stays finite where q_i
        is as small as M; only when one of those is infinite too is the step
        taken at its limit: all mass on the experts with the largest q, split
        as the projection of their current weights."""
        eta = self.eta
        w = self.weights.tolist()
        try:
            for q in rows:
                m = 0.0
                for wi, qi in zip(w, q):
                    m += wi * qi
                if m != 0.0:
                    step = eta / m
                    if math.isinf(step):
                        u = [wi + eta * (qi / m) for wi, qi in zip(w, q)]
                        if any(map(math.isinf, u)):
                            top = max(q)
                            shares = iter(project_floats([wi for wi, qi in zip(w, q)
                                                          if qi == top]))
                            w = [next(shares) if qi == top else 0.0 for qi in q]
                        else:
                            w = project_floats(u)
                    else:
                        # w_i + step q_i rounds twice: no fused multiply-add
                        w = project_floats([wi + step * qi for wi, qi in zip(w, q)])
                yield m, _loss(m), eta, w
        finally:
            self.weights = np.array(w)


class MLSoftBayes(_Learner):
    """Soft-Bayes with one adaptive rate per expert, each driven by that
    expert's accumulated squared excess ratio."""

    def __init__(self, n: int, prior=None, name: str = "ml-soft-bayes"):
        if n < 2:
            raise ValueError("ml-soft-bayes needs N >= 2")
        self.n = n
        self.ln_n = math.log(n)
        self.name = name
        self.prior = _start_weights(n, prior)
        self.weights = self.prior.copy()
        self.rates = np.full(n, _ml_rate(0.0, self.ln_n))
        self.V = np.zeros(n)

    def _rounds(self, rows):
        """Prediction sum(w_i eta_i p_i) / sum(w_i eta_i), both sums added
        left to right; each expert then runs the soft-Bayes update and prior
        blend with its own rate pair, eta_{t+1} taken from V advanced by
        (p_i/M - 1)^2.  A diverged round leaves the state as it was."""
        ln_n = self.ln_n
        wl, rl, vl = self.weights.tolist(), self.rates.tolist(), self.V.tolist()
        pl = self.prior.tolist()
        try:
            for q in rows:
                num = den = 0.0
                for wi, ri, qi in zip(wl, rl, q):
                    wri = wi * ri
                    num += wri * qi
                    den += wri
                m = num / den
                if m != 0.0:
                    # eta_bar / (1 + eta_bar) can rise by an ulp as V grows,
                    # so the rates are clamped to stay nonincreasing
                    new_w, new_v, new_r = [], [], []
                    for wi, ri, qi, vi, pi in zip(wl, rl, q, vl, pl):
                        ratio = qi / m
                        d = ratio - 1.0
                        vi += d * d
                        nxt = min(_ml_rate(vi, ln_n), ri)
                        # a rate is 0 only once V is inf; its blend 0 / 0 is NaN
                        blend = nxt / ri if ri else math.nan
                        wi = wi * (1.0 - ri + ri * ratio) * blend + (1.0 - blend) * pi
                        new_w.append(wi)
                        new_v.append(vi)
                        new_r.append(nxt)
                    wl, vl, rl = new_w, new_v, new_r
                yield m, _loss(m), math.nan, wl
        finally:
            self.weights, self.rates, self.V = np.array(wl), np.array(rl), np.array(vl)


class MetaBayes(_Learner):
    """Bayesian mixture over fixed-rate ``SoftBayes`` sub-learners ``subs``.

    A sub-learner that diverges has its prediction pinned to zero from that
    round on; the Bayes posterior then removes its meta weight natively.  It
    is no longer stepped, and ``sub_dead`` records it.
    """

    def __init__(self, n: int, rates, prior=None, name: str = "meta"):
        schedules = [FixedRate(float(r)) for r in rates]
        if not schedules:
            raise ValueError("meta learner needs at least one sub-rate")
        self.n = n
        self.name = name
        self.subs = [SoftBayes(n, schedule, prior) for schedule in schedules]
        self.sub_dead = [False] * len(schedules)
        self.u = uniform_weights(len(schedules))

    @property
    def weights(self) -> np.ndarray:
        """Meta weights over the sub-learners (not over the experts)."""
        return self.u

    def _rounds(self, rows):
        """Each live sub-learner's own rounds over the same row lists,
        stepped in lockstep; one whose M is 0 is closed on that round.  The
        rounds yield the meta weights, as a list."""
        ul, dead = self.u.tolist(), list(self.sub_dead)
        live = {k: sub._rounds(rows) for k, sub in enumerate(self.subs) if not dead[k]}
        ms = [0.0] * len(dead)
        try:
            for _ in rows:
                for k in tuple(live):
                    ms[k] = m = next(live[k])[0]
                    if m == 0.0:
                        # a sub-learner that dies predicts 0 from here on
                        live.pop(k).close()
                        dead[k] = True
                # the meta prediction sum_k u_k M_k, added left to right, and
                # the Bayes posterior u_k M_k / mp; where mp = 0 the round
                # diverged and u stays
                mp = 0.0
                for uk, mk in zip(ul, ms):
                    mp += uk * mk
                if mp != 0.0:
                    ul = [uk * mk / mp for uk, mk in zip(ul, ms)]
                yield mp, _loss(mp), math.nan, ul
        finally:
            for rounds in live.values():
                rounds.close()
            self.u, self.sub_dead = np.array(ul), dead


@dataclass
class LearnerTrace:
    """Per-round record of one learner's run over a stream: the predictions,
    losses and rates of every round, and the weights of the rounds that
    ``weight_rounds`` names."""

    name: str
    predictions: np.ndarray
    losses: np.ndarray
    rates: np.ndarray
    weights: np.ndarray
    halted_at: int | None = None
    every: int = 1

    @property
    def rounds(self) -> int:
        return len(self.losses)

    @property
    def weight_rounds(self) -> np.ndarray:
        """The 1-based round of each row of ``weights``: rounds ``every``,
        2 ``every``, ... and the last, which may lie off that stride."""
        r = np.arange(self.every, self.rounds + 1, self.every)
        return r if self.rounds % self.every == 0 else np.append(r, self.rounds)

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


# what a run does at an infinite loss: stop there, or step on with the weights kept
DIVERGENCE_POLICIES = ("halt", "continue")


def run_learner(learner, stream, on_divergence: str = "continue",
                every: int = 1) -> LearnerTrace:
    """Run a learner over a stream, recording every round's outcome: one
    ``step_block`` over the stream's rows.  Rows that are not an
    ``ExpertStream`` are made one first, so they are held to the stream rule.

    The trace keeps the weights of rounds ``every``, 2 ``every``, ... and of
    the last round stepped; ``every=len(stream)`` keeps only the last.

    ``on_divergence="halt"`` stops at the first infinite loss, leaving a
    partial trace; ``"continue"`` keeps stepping (the learner's weights are
    unchanged on diverged rounds).
    """
    if on_divergence not in DIVERGENCE_POLICIES:
        raise ValueError(f"unknown divergence policy {on_divergence!r}")
    if not isinstance(stream, ExpertStream):
        stream = ExpertStream(stream)
    columns = learner.step_block(stream.p, on_divergence == "halt", every)
    return LearnerTrace(getattr(learner, "name", type(learner).__name__), *columns,
                        every=every)
