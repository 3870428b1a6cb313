"""The learners' updates restated in 60-digit ``decimal`` arithmetic.

Each function replays one update rule over a stream's rows and returns the
per-round losses -ln M as floats, ``math.inf`` on a round whose mixture is
exactly 0 (the weights are then left as they were).  The stream's values
enter exactly (``Decimal(float)``) and the uniform prior is 1/N, so the
float learners can be held to these losses with a bound far below their
own rounding of a single round.  Standard library only.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

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
