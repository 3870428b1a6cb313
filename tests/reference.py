"""The learners' updates and the online rate schedules restated in 60-digit
``decimal`` arithmetic (more where an OGD step needs them).

Each ``*_losses`` function replays one update rule over a stream's rows and
returns the per-round losses -ln M as floats, ``math.inf`` on a round whose
mixture is exactly 0 (the weights are then left as they were).  Each
``*_rates`` function returns a schedule's rates eta_1, ..., eta_{T+1} as
``Decimal``.  The stream's values enter exactly (``Decimal(float)``) and
the uniform prior is 1/N, so the float learners and schedules can be held to
these values with a bound far below their own rounding of a single round.
Standard library only, but for ``project_simplex_numpy``, the float
projection restated in numpy operations.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np

DIGITS = 60


def _rows(p):
    return [[Decimal(x) for x in row] for row in p.tolist()]


def _loss(m: Decimal) -> float:
    return math.inf if m == 0 else float(-m.ln())


def _dot(w, q) -> Decimal:
    return sum((wi * qi for wi, qi in zip(w, q)), Decimal(0))


def soft_bayes_losses(p, rates, corrects: bool) -> list:
    """Soft-Bayes from the uniform prior, driven by ``rates`` = eta_1, ...,
    eta_{T+1}: w_i <- w_i (1 - eta_t + eta_t p_i / M), then, when
    ``corrects``, w <- r w + (1 - r) prior with r = eta_{t+1} / eta_t."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        rows = _rows(p)
        n = len(rows[0])
        prior = [Decimal(1) / n] * n
        eta = [Decimal(float(r)) for r in rates]
        w = list(prior)
        losses = []
        for t, q in enumerate(rows):
            m = _dot(w, q)
            losses.append(_loss(m))
            if m == 0:
                continue
            e = eta[t]
            w = [wi * (1 - e + e * qi / m) for wi, qi in zip(w, q)]
            if corrects:
                r = eta[t + 1] / e
                w = [r * wi + (1 - r) * pi for wi, pi in zip(w, prior)]
        return losses


def ml_soft_bayes_losses(p) -> list:
    """ML-soft-Bayes from the uniform prior: M = sum(w_i eta_i p_i) /
    sum(w_i eta_i); V_i grows by (p_i/M - 1)^2, eta_i's next value is
    eta_bar / (1 + eta_bar) with eta_bar = sqrt((ln N / 2) / (ln N + V_i)),
    clamped at the current eta_i; each weight then takes its own update and
    prior blend."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        rows = _rows(p)
        n = len(rows[0])
        ln_n = Decimal(n).ln()

        def rate(v):
            eta_bar = (ln_n / 2 / (ln_n + v)).sqrt()
            return eta_bar / (1 + eta_bar)

        prior = [Decimal(1) / n] * n
        w = list(prior)
        v = [Decimal(0)] * n
        eta = [rate(Decimal(0))] * n
        losses = []
        for q in rows:
            wr = [wi * ei for wi, ei in zip(w, eta)]
            m = _dot(wr, q) / sum(wr)
            losses.append(_loss(m))
            if m == 0:
                continue
            ratio = [qi / m for qi in q]
            v = [vi + (ri - 1) ** 2 for vi, ri in zip(v, ratio)]
            nxt = [min(rate(vi), ei) for vi, ei in zip(v, eta)]
            w = [wi * (1 - ei + ei * ri) * (xi / ei) + (1 - xi / ei) * pi
                 for wi, ei, ri, xi, pi in zip(w, eta, ratio, nxt, prior)]
            eta = nxt
        return losses


def meta_losses(p, rates) -> list:
    """The Bayes mixture, from uniform meta weights, over one fixed-rate
    soft-Bayes row per rate; a row whose M is 0 is dead and predicts 0 from
    then on."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        rows = _rows(p)
        n = len(rows[0])
        k = len(rates)
        eta = [Decimal(float(r)) for r in rates]
        w = [[Decimal(1) / n] * n for _ in range(k)]
        u = [Decimal(1) / k] * k
        dead = [False] * k
        losses = []
        for q in rows:
            preds = []
            for j in range(k):
                m = Decimal(0) if dead[j] else _dot(w[j], q)
                dead[j] = m == 0
                preds.append(m)
                if not dead[j]:
                    w[j] = [wi * (1 - eta[j] + eta[j] * qi / m) for wi, qi in zip(w[j], q)]
            mp = _dot(u, preds)
            losses.append(_loss(mp))
            if mp != 0:
                u = [uj * mj / mp for uj, mj in zip(u, preds)]
        return losses


def eg_losses(p, eta) -> list:
    """EG from the uniform prior: w_i <- w_i exp(eta p_i / M), normalized."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        rows = _rows(p)
        n = len(rows[0])
        e = Decimal(float(eta))
        w = [Decimal(1) / n] * n
        losses = []
        for q in rows:
            m = _dot(w, q)
            losses.append(_loss(m))
            if m == 0:
                continue
            w = [wi * (e * qi / m).exp() for wi, qi in zip(w, q)]
            z = sum(w)
            w = [wi / z for wi in w]
        return losses


def _project_simplex(u):
    """Euclidean projection onto the simplex: subtract the threshold
    (sum of the rho largest entries - 1) / rho, rho the largest j whose
    j-th largest entry stays above the threshold of the j largest."""
    total, theta = Decimal(0), Decimal(0)
    for j, uj in enumerate(sorted(u, reverse=True), 1):
        total += uj
        if uj - (total - 1) / j > 0:
            theta = (total - 1) / j
    return [max(ui - theta, Decimal(0)) for ui in u]


def project_simplex_numpy(v) -> np.ndarray:
    """The sort-based projection in numpy operations: the descending sort,
    ``np.cumsum``'s sequential running sum, the support test, and the shift
    by the top entry when rounding leaves no support."""
    x = np.asarray(v, dtype=float)
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    support = np.nonzero(u * np.arange(1, x.size + 1) > css - 1.0)[0]
    if not support.size:
        return project_simplex_numpy(x - u[0])
    rho = int(support[-1])
    return np.maximum(x + (1.0 - css[rho]) / (rho + 1), 0.0)


def ogd_losses(p, eta) -> list:
    """Projected gradient steps from the uniform prior:
    w <- Pi(w + eta p / M).  The projection takes 1 from sums of entries as
    large as the step eta / M, so a round steps and projects at ``DIGITS``
    digits beyond the step's magnitude, which passes 10^300 where M is
    subnormal."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        rows = _rows(p)
        n = len(rows[0])
        e = Decimal(float(eta))
        w = [Decimal(1) / n] * n
        losses = []
        for q in rows:
            ctx.prec = DIGITS
            m = _dot(w, q)
            losses.append(_loss(m))
            if m == 0:
                continue
            ctx.prec = DIGITS + max(0, (e / m).adjusted())
            w = _project_simplex([wi + e * qi / m for wi, qi in zip(w, q)])
        return losses


def anytime_rates(n: int, T: int) -> list:
    """sqrt(ln N / (2 N t))."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ln_n = Decimal(n).ln()
        return [(ln_n / (2 * n * t)).sqrt() for t in range(1, T + 2)]


def shifting_rates(n: int, T: int) -> list:
    """sqrt(ln N / (2 N t)) ln(t + 3)."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return [r * Decimal(t + 3).ln() for t, r in enumerate(anytime_rates(n, T), 1)]


def sparse_rates(p) -> list:
    """min(sqrt(ln N / (2 m_t t)), 1/2), m_t the number of experts (at least
    one) counted before round t.  A round counts its argmax expert; on a tie
    nothing new is counted if a tied expert already is, else the lowest
    tied index is."""
    rows = p.tolist()
    with localcontext() as ctx:
        ctx.prec = DIGITS
        ln_n = Decimal(len(rows[0])).ln()
        counted = set()
        rates = []
        for t in range(1, len(rows) + 2):
            m_t = max(1, len(counted))
            rates.append(min((ln_n / (2 * m_t * t)).sqrt(), Decimal(1) / 2))
            if t <= len(rows):
                q = rows[t - 1]
                ties = [i for i, x in enumerate(q) if x == max(q)]
                if counted.isdisjoint(ties):
                    counted.add(ties[0])
        return rates


def self_confident_rates(p, observed_m, eta_max: float = 0.5) -> list:
    """min(eta_max, sqrt(2 ln N / max(C1, ln N))), and from t = 2 on at most
    eta_{t-1} sqrt((t - 1) / t).  C1 sums max_i p_i / M - 1 over the rounds
    before t whose M, the mixture the learner observed (``observed_m``), is
    positive."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        rows = _rows(p)
        ln_n = Decimal(len(rows[0])).ln()
        cap = Decimal(float(eta_max))
        c1 = Decimal(0)
        rates = []
        for t in range(1, len(rows) + 2):
            r = min(cap, (2 * ln_n / max(c1, ln_n)).sqrt())
            if t > 1:
                r = min(r, rates[-1] * (Decimal(t - 1) / t).sqrt())
            rates.append(r)
            if t <= len(rows):
                m = Decimal(float(observed_m[t - 1]))
                if m > 0:
                    c1 += max(rows[t - 1]) / m - 1
        return rates
