"""Deterministic and seeded stream generators.

Seeded generation uses numpy's Philox bit generator (counter-based and
splittable); artifacts pin reproducibility by recording the generator name
and seed.  Identical (kind, params, seed) always yields a bit-identical
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ExpertStream, as_simplex, read_count, read_name, read_number

RNG_NAME = "philox"


def rng_from_seed(seed: int) -> np.random.Generator:
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def adversarial_alternating(T: int) -> ExpertStream:
    """Two disjoint Dirac experts; the second is right for the first half,
    then correctness alternates.  This is the stream on which EG's weights
    oscillate catastrophically once the first expert becomes good."""
    if T < 2 or T % 2 != 0:
        raise ValueError("T must be even and >= 2")
    p = np.zeros((T, 2))
    half = T // 2
    p[:half, 1] = 1.0
    t = np.arange(half + 1, T + 1)
    p[half:, 0] = (t % 2 == 0).astype(float)
    p[half:, 1] = (t % 2 == 1).astype(float)
    return ExpertStream(p)


def adversarial_constant(T: int) -> ExpertStream:
    """Two disjoint Dirac experts; the second is always right.  Drives EG's
    first weight exponentially to zero and OGD's onto the second vertex."""
    if T < 1:
        raise ValueError("T must be >= 1")
    p = np.zeros((T, 2))
    p[:, 1] = 1.0
    return ExpertStream(p)


def with_flip_round(stream: ExpertStream) -> ExpertStream:
    """Append one round where only the first expert is right; after
    ``adversarial_constant`` this is the round that makes OGD's loss
    infinite."""
    flip = np.zeros((1, stream.n_experts))
    flip[0, 0] = 1.0
    return stream.concat(ExpertStream(flip))


def disjoint_dirac(symbols, N: int) -> ExpertStream:
    """One Dirac expert per symbol: round t has p_i = 1 iff i == symbols[t].

    ``symbols`` are 1-based indices in [1, N].
    """
    s = np.asarray(symbols, dtype=int)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need a nonempty symbol sequence")
    if np.any(s < 1) or np.any(s > N):
        raise ValueError(f"symbols must lie in [1, {N}]")
    p = np.zeros((s.size, N))
    p[np.arange(s.size), s - 1] = 1.0
    return ExpertStream(p)


def iid_mixture(a, expert_dists, T: int, seed: int) -> ExpertStream:
    """Draw T symbols i.i.d. from the a-mixture of the expert distributions
    and reduce each expert to the probability it gave the drawn symbol."""
    if T < 1:
        raise ValueError("T must be >= 1")
    weights = as_simplex(a)
    dists = np.asarray(expert_dists, dtype=float)
    if dists.ndim != 2 or dists.shape[0] != weights.size:
        raise ValueError("expert_dists must be one distribution row per expert")
    # NaN fails no comparison, so it is refused before them
    if not np.all(np.isfinite(dists)):
        raise ValueError("distributions must be finite")
    if np.any(dists < 0):
        raise ValueError("distributions must be nonnegative")
    sums = dists.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("each expert distribution must sum to 1")
    dists = dists / sums[:, None]
    mix = weights @ dists
    rng = rng_from_seed(seed)
    symbols = rng.choice(dists.shape[1], size=T, p=mix / mix.sum())
    return ExpertStream(dists[:, symbols].T.copy())


def random_iid_instance(N: int, T: int, seed: int,
                        alphabet: int | None = None) -> ExpertStream:
    """Convenience instance: mixture weights and expert distributions drawn
    from Dirichlet(1) with the same seed that later drives the symbols."""
    if N < 1:
        raise ValueError("N must be >= 1")
    k = alphabet if alphabet is not None else max(2, N)
    rng = rng_from_seed(seed)
    a = rng.dirichlet(np.ones(N))
    dists = rng.dirichlet(np.ones(k), size=N)
    return iid_mixture(a, dists, T, seed + 1)


def random_disjoint_symbols(N: int, T: int, seed: int) -> np.ndarray:
    """Seeded uniform symbol sequence in [1, N]."""
    return rng_from_seed(seed).integers(1, N + 1, size=T)


def _disjoint_dirac_stream(spec: "GeneratorSpec", seed: int | None) -> ExpertStream:
    n = spec._int("N")
    if seed is None:
        raise ValueError("disjoint_dirac needs a seed")
    return disjoint_dirac(random_disjoint_symbols(n, spec._int("T"), seed), n)


def _iid_mixture_stream(spec: "GeneratorSpec", seed: int | None) -> ExpertStream:
    if seed is None:
        raise ValueError("iid_mixture needs a seed")
    alphabet = spec._int("alphabet") if "alphabet" in spec.params else None
    return random_iid_instance(spec._int("N"), spec._int("T"), seed, alphabet)


# generator kind -> (the parameters it takes, builder (spec, seed) -> stream)
GENERATOR_KINDS = {
    "theorem2": (("T",), lambda spec, seed: adversarial_alternating(spec._int("T", even=True))),
    "theorem2_constant": (("T",), lambda spec, seed: adversarial_constant(spec._int("T"))),
    "disjoint_dirac": (("N", "T"), _disjoint_dirac_stream),
    "iid_mixture": (("N", "T", "alphabet"), _iid_mixture_stream),
}


@dataclass(frozen=True)
class GeneratorSpec:
    """Parsed generator selector; ``build(seed)`` materializes the stream.

    A parameter is a count: its text as a selector spells it, read by
    ``read_count`` once the kind and the keys are known to be good, or an
    integral number."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            known = ", ".join(GENERATOR_KINDS)
            raise ValueError(f"unknown generator {self.kind!r}; known: {known}")
        takes = GENERATOR_KINDS[self.kind][0]
        for key in self.params:
            if key not in takes:
                raise ValueError(f"generator {self.kind!r} has no parameter {key!r}; "
                                 f"it takes {', '.join(takes)}")
        object.__setattr__(self, "params", {k: self._count(k, v) for k, v in self.params.items()})

    def _count(self, key, value) -> int:
        """A parameter as an int: its text read by ``read_count``, or a
        number from Python when it is integral."""
        if isinstance(value, str):
            try:
                return read_count(value)
            except ValueError:
                # quoted as the number it spells, or else as its text
                try:
                    value = read_number(value)
                except ValueError:
                    value = value.strip()
        elif float(value).is_integer():
            return int(value)
        raise ValueError(f"generator {self.kind!r} parameter {key} must be an integer, "
                         f"got {value!r}")

    def _int(self, key, even: bool = False) -> int:
        v = self.params.get(key)
        if v is None:
            raise ValueError(f"generator {self.kind!r} needs parameter {key}")
        # every count a generator takes (rounds, experts, symbols) is
        # positive, and an even one at least 2
        if even and (v < 2 or v % 2):
            raise ValueError(f"generator {self.kind!r} parameter {key} must be even and "
                             f"at least 2, got {v}")
        if v < 1:
            raise ValueError(f"generator {self.kind!r} parameter {key} must be at least 1, "
                             f"got {v}")
        return v

    def build(self, seed: int | None = None) -> ExpertStream:
        return GENERATOR_KINDS[self.kind][1](self, seed)

    def __str__(self):
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.kind}:{inner}"


def parse_generator(text: str) -> GeneratorSpec:
    """Parse e.g. ``theorem2:T=100``, ``disjoint-dirac:N=3,T=1000``,
    ``iid-mixture:N=10,T=10000[,alphabet=12]``."""
    head, _, rest = text.strip().partition(":")
    kind = read_name(head, GENERATOR_KINDS) or head.strip()
    items = []
    for item in rest.split(",") if rest.strip() else ():
        k, sep, v = item.partition("=")
        if not sep:
            raise ValueError(f"malformed generator parameter {item!r}")
        items.append((k.strip(), v))
    spec = GeneratorSpec(kind, dict(items))
    keys = [k for k, _ in items]
    for k in keys:
        if keys.count(k) > 1:
            raise ValueError(f"generator {kind!r} parameter {k} is given twice")
    return spec
