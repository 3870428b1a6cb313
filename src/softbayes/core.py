"""Simplex arithmetic, expert streams, and the infinite-loss sentinel.

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


def read_number(text: str, kind=float):
    """``text`` read by ``kind``, ``float`` or ``int``, refusing with a
    ValueError the digit-group underscores and non-ASCII characters (digits
    of other scripts, no-break spaces) those take.  Every number that a
    stream, selector, flag or generator parameter gives as text is read by
    this one rule."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to {kind.__name__}: {text!r}")
    return kind(text)


def read_count(text: str) -> int:
    """``text`` read as an integer by ``read_number``'s rule: a digit string
    exactly, any other spelling (``1e4``, ``10.0``) when its float is
    integral; a ValueError for ``10.5``, ``1e400`` or ``nan``.  Every count
    given as text is read by this one rule."""
    try:
        return read_number(text, int)
    except ValueError:
        value = read_number(text)
    if not value.is_integer():
        raise ValueError(f"not an integer: {text!r}")
    return int(value)


def read_name(text: str, names):
    """The key of ``names`` (lower-case keys) that ``text`` stands for, or
    None: the text is stripped, its case ignored, and ``-`` and ``_`` are one
    character.  Every selector name is read by this one rule."""
    name = text.strip().lower().replace("_", "-")
    return next((key for key in names if key.replace("_", "-") == name), None)


def as_simplex(v) -> np.ndarray:
    """Validate ``v`` as a probability vector, renormalizing float dust.

    Entries must be nonnegative and sum to 1 within ``SIMPLEX_ATOL``; anything
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
    if abs(s - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"simplex entries sum to {s!r}, expected 1 within {SIMPLEX_ATOL}")
    return w / s


def uniform_weights(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one expert")
    return np.full(n, 1.0 / n)


class BadRoundError(ValueError):
    """A round that breaks the stream's validity rule: ``round`` is its
    1-based index, ``reason`` what is wrong with it; in a batch of streams
    the message also names the stream, by its index in the batch."""

    def __init__(self, index: int, reason: str, stream: int | None = None):
        where = f"round {index}" if stream is None else f"stream {stream}, round {index}"
        super().__init__(f"{where}: {reason}")
        self.round = index
        self.reason = reason


def check_rounds(q: np.ndarray) -> None:
    """Hold a float array of rounds to the stream rule: every entry finite
    and in [0, 1], and some expert positive in every round.

    ``q`` is one stream, ``(rounds, experts)``, or a batch of them,
    ``(streams, rounds, experts)``; the first bad round raises
    ``BadRoundError``, naming its stream in a batch.
    """
    if q.shape[-1] < 1:
        # every round is empty, so the first one is named
        if q.shape[-2]:
            raise BadRoundError(1, "stream needs at least one expert", 0 if q.ndim > 2 else None)
        raise ValueError("stream needs at least one expert")
    # the first bad round is looked for only once a check has failed
    if not np.all(np.isfinite(q)):
        bad, reason = ~np.isfinite(q).all(axis=-1), "non-finite probability"
    elif np.any(q < 0.0) or np.any(q > 1.0):
        bad = ((q < 0.0) | (q > 1.0)).any(axis=-1)
        reason = "stream probabilities must lie in [0, 1]"
    elif q.shape[-2] and not np.all(q.max(axis=-1) > 0.0):
        bad, reason = q.max(axis=-1) == 0.0, "no expert has positive probability"
    else:
        return
    *stream, index = np.argwhere(bad)[0].tolist()
    raise BadRoundError(index + 1, reason, *stream)


@dataclass
class ExpertStream:
    """A sequence of rounds, reduced form: ``p[t, i]`` is the probability
    expert ``i`` assigned to the symbol realized at round ``t``."""

    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.p, dtype=float)
        if q.ndim != 2:
            raise ValueError("stream must be a (rounds, experts) array")
        check_rounds(q)
        self.p = q

    @property
    def n_experts(self) -> int:
        return self.p.shape[1]

    def __len__(self) -> int:
        return self.p.shape[0]

    def __iter__(self):
        return iter(self.p)

    def concat(self, other: "ExpertStream") -> "ExpertStream":
        if other.n_experts != self.n_experts:
            raise ValueError("cannot concatenate streams with different expert counts")
        return ExpertStream(np.concatenate([self.p, other.p]))


def unchecked_stream(p: np.ndarray) -> ExpertStream:
    """A stream over ``p`` as it is, with no copy and no check: ``p`` holds
    rows of a stream that passed the stream rule, and any subset of them
    passes it again, since the rule is per row.  Its reader must not write
    to ``p``."""
    stream = object.__new__(ExpertStream)
    stream.p = p
    return stream


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based):
    ``project_floats`` on a nonempty vector."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("projection input must be a nonempty vector")
    return np.array(project_floats(x.tolist()))


def project_floats(xs: list) -> list:
    """The projection of a nonempty list of Python floats, as a list."""
    # a NaN fails both comparisons
    if not all(-math.inf < xi < math.inf for xi in xs):
        raise ValueError("projection input must be finite")
    return _project_floats(xs)


def _project_floats(xs: list) -> list:
    """The projection of a list of finite Python floats: the descending
    sort, a running sum added left to right, and the largest j whose sorted
    entry passes u_j j > sum_{i <= j} u_i - 1 gives the shift."""
    css = css_rho = 0.0
    rho = 0
    for j, uj in enumerate(sorted(xs, reverse=True), 1):
        css += uj
        if uj * j > css - 1.0:
            rho, css_rho = j, css
    if not rho:
        # rounding swallowed the 1 beside a huge top entry; shifting every
        # entry by the max leaves the projection unchanged
        top = max(xs)
        return _project_floats([xi - top for xi in xs])
    lam = (1.0 - css_rho) / rho
    return [v if (v := xi + lam) > 0.0 else 0.0 for xi in xs]
