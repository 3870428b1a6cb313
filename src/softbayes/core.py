"""Simplex arithmetic, mixture prediction, and log-loss accounting.

All losses are in nats.  An infinite instantaneous loss (the learner placed
zero probability on the realized symbol) is represented by the explicit
sentinel ``math.inf``, never by a floating-point overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIMPLEX_ATOL = 1e-9

INFINITE_LOSS = math.inf


def as_simplex(v, atol: float = SIMPLEX_ATOL) -> np.ndarray:
    """Validate ``v`` as a probability vector, renormalizing float dust.

    Entries must be nonnegative and sum to 1 within ``atol``; anything
    further off is a hard error, not something to silently rescale.
    """
    w = np.asarray(v, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("simplex vector must be one-dimensional and nonempty")
    if not np.all(np.isfinite(w)):
        raise ValueError("simplex vector must be finite")
    if np.any(w < 0):
        raise ValueError(f"negative simplex entry: {w.min()}")
    s = float(w.sum())
    if abs(s - 1.0) > atol:
        raise ValueError(f"simplex entries sum to {s!r}, expected 1 within {atol}")
    return w / s


def uniform_weights(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one expert")
    return np.full(n, 1.0 / n)


@dataclass
class ExpertStream:
    """A sequence of rounds, reduced form: ``p[t, i]`` is the probability
    expert ``i`` assigned to the symbol realized at round ``t``."""

    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.p, dtype=float)
        if q.ndim != 2:
            raise ValueError("stream must be a (rounds, experts) array")
        if q.shape[1] < 1:
            raise ValueError("stream needs at least one expert")
        if not np.all(np.isfinite(q)):
            raise ValueError("stream contains non-finite probabilities")
        if np.any(q < 0.0) or np.any(q > 1.0):
            raise ValueError("stream probabilities must lie in [0, 1]")
        if q.shape[0] and not np.all(q.max(axis=1) > 0.0):
            bad = int(np.nonzero(q.max(axis=1) == 0.0)[0][0])
            raise ValueError(f"round {bad + 1} has no expert with positive probability")
        self.p = q

    @property
    def n_experts(self) -> int:
        return self.p.shape[1]

    def __len__(self) -> int:
        return self.p.shape[0]

    def __iter__(self):
        return iter(self.p)

    def slice(self, start: int, stop: int) -> "ExpertStream":
        """Sub-stream of rounds ``start..stop`` inclusive, 1-based."""
        if not (1 <= start <= stop <= len(self)):
            raise ValueError(f"invalid round range [{start}, {stop}] for T={len(self)}")
        return ExpertStream(self.p[start - 1 : stop].copy())

    def concat(self, other: "ExpertStream") -> "ExpertStream":
        if other.n_experts != self.n_experts:
            raise ValueError("cannot concatenate streams with different expert counts")
        return ExpertStream(np.concatenate([self.p, other.p]))


def mixture_prob(w, p) -> float:
    """Probability the weighted mixture assigns to the realized symbol."""
    w = np.asarray(w, dtype=float)
    q = np.asarray(p, dtype=float)
    if w.shape != q.shape:
        raise ValueError(f"dimension mismatch: weights {w.shape} vs round {q.shape}")
    return float(np.dot(w, q))


def log_loss(m: float) -> float:
    """Instantaneous loss -ln(m), with the infinite sentinel at m = 0."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"prediction {m!r} outside [0, 1]")
    if m == 0.0:
        return INFINITE_LOSS
    return -math.log(m)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("projection input must be a nonempty vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("projection input must be finite")
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, x.size + 1)
    rho = int(np.nonzero(u * j > css - 1.0)[0][-1])
    lam = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(x + lam, 0.0)
