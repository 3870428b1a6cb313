"""Simplex arithmetic, expert streams, and the infinite-loss sentinel.

All losses are in nats.  An infinite instantaneous loss (the learner placed
zero probability on the realized symbol) is represented by the explicit
sentinel ``math.inf``, never by a floating-point overflow.
"""

from __future__ import annotations

import math
import numbers
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


def read_count(value, what: str = "a count") -> int:
    """``value`` read as an integer: text by ``read_number``'s rule, a digit
    string exactly and any other spelling (``1e4``, ``10.0``) when its float
    is integral; an integer that is not a bool as it is; any other real
    number, numpy's included, when it is integral.  Every count is read by
    this one rule.  A ValueError says that ``what`` must be an integer and
    quotes text as the number it spells, or else as its stripped text."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = value
    if isinstance(value, str):
        try:
            return read_number(value, int)
        except ValueError:
            try:
                number = read_number(value)
            except ValueError:
                number = value.strip()
    if (isinstance(number, bool) or not isinstance(number, numbers.Real)
            or not float(number).is_integer()):
        raise ValueError(f"{what} must be an integer, got {number!r}")
    return int(number)


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


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based):
    ``project_floats`` on a nonempty vector."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("projection input must be a nonempty vector")
    return np.array(project_floats(x.tolist()))


def project_floats(xs: list) -> list:
    """The projection of a nonempty list of finite Python floats, as a list:
    the descending sort, a running sum added left to right, and the largest
    j whose sorted entry passes u_j j > sum_{i <= j} u_i - 1 gives the
    shift."""
    # a NaN fails both comparisons
    if not all(-math.inf < xi < math.inf for xi in xs):
        raise ValueError("projection input must be finite")
    while True:
        css = css_rho = 0.0
        rho = 0
        for j, uj in enumerate(sorted(xs, reverse=True), 1):
            css += uj
            if uj * j > css - 1.0:
                rho, css_rho = j, css
        if rho:
            break
        # rounding swallowed the 1 beside a huge top entry; shifting every
        # entry by the max leaves the projection unchanged (an entry that
        # shifts past the float range reads -inf, and projects to 0)
        top = max(xs)
        xs = [xi - top for xi in xs]
    lam = (1.0 - css_rho) / rho
    return [v if (v := xi + lam) > 0.0 else 0.0 for xi in xs]
