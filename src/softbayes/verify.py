"""Built-in verification suites: scalar inequality fuzzing, reverse-Jensen
fuzzing, and the disjoint-support closed-form equivalence.

These back the ``softbayes verify`` subcommand; the test suite drives the
same checks.  All checks are seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comparators import disjoint_closed_form
from .core import ExpertStream
from .generators import disjoint_dirac, random_disjoint_symbols, rng_from_seed
from .learners import SoftBayes, run_learner, soft_bayes_sweep
from .rates import InverseT

SLACK = 1e-12
# the disjoint-support checks' rounds and seeds per expert count
DISJOINT_T, DISJOINT_SEEDS = 1000, 20


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _max_violation(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest amount by which lhs exceeds rhs; -inf entries never violate."""
    with np.errstate(invalid="ignore"):
        gap = lhs - rhs
    gap = gap[np.isfinite(gap) | (gap > 0)]
    return float(gap.max()) if gap.size else -math.inf


def _sample_positive(rng, size):
    """Positive values spanning many scales, with a pinch of exact zeros."""
    x = 10.0 ** rng.uniform(-8, 6, size=size)
    zeros = rng.random(size) < 0.02
    x[zeros] = 0.0
    return x


def scalar_inequality_checks(samples: int = 100_000, seed: int = 2024) -> list:
    """Fuzz the scalar log inequalities the regret analysis rests on."""
    if samples < 2:
        raise ValueError(f"scalar checks need at least 2 samples, got {samples}")
    rng = rng_from_seed(seed)
    results = []

    # -ln(1-x) <= x/(1-x) for x < 1
    x = np.concatenate([rng.uniform(-50.0, 1.0 - 1e-12, samples // 2),
                        1.0 - 10.0 ** rng.uniform(-12, 0, samples - samples // 2)])
    v = _max_violation(-np.log1p(-x), x / (1.0 - x))
    results.append(CheckResult("neg-log-one-minus", v <= SLACK, f"max violation {v:.3e}"))

    # ln(1+x) >= 2x/(2+x) for x >= 0
    x = _sample_positive(rng, samples)
    v = _max_violation(2.0 * x / (2.0 + x), np.log1p(x))
    results.append(CheckResult("log-one-plus-lower", v <= SLACK, f"max violation {v:.3e}"))

    # ln(1+x) <= x - (x^2/2)/(1+x) for x >= 0
    x = _sample_positive(rng, samples)
    v = _max_violation(np.log1p(x), x - 0.5 * x * x / (1.0 + x))
    results.append(CheckResult("log-one-plus-upper", v <= SLACK, f"max violation {v:.3e}"))

    # (1/x) ln(1/(1-x)) - 1 <= x/2 + x^2 for x in (0, 1/2]
    x = 10.0 ** rng.uniform(-8, math.log10(0.5), samples)
    v = _max_violation(-np.log1p(-x) / x - 1.0, 0.5 * x + x * x)
    results.append(CheckResult("inverse-log-ratio", v <= SLACK, f"max violation {v:.3e}"))

    # (x-1) <= (1/eta) ln(1-eta+eta x) + (eta/(1-eta))(x-1)^2 for x >= 0, eta in (0,1)
    x = _sample_positive(rng, samples)
    eta = rng.uniform(1e-6, 1.0 - 1e-6, samples)
    rhs = np.log1p(eta * (x - 1.0)) / eta + eta / (1.0 - eta) * (x - 1.0) ** 2
    v = _max_violation(x - 1.0, rhs)
    results.append(CheckResult("linearized-rate", v <= SLACK, f"max violation {v:.3e}"))
    return results


def _jensen_batch(rng, samples: int, n: int, half_rate: bool):
    a = rng.dirichlet(np.ones(n), size=samples)
    q = _sample_positive(rng, (samples, n))
    if half_rate:
        eta = rng.uniform(1e-6, 0.5, samples)
    else:
        eta = rng.uniform(1e-6, 1.0 - 1e-6, samples)
    with np.errstate(divide="ignore"):
        lhs = np.log((a * q).sum(axis=1))
    body = (a * np.log1p(eta[:, None] * (q - 1.0))).sum(axis=1) / eta
    if half_rate:
        tail = (0.5 * eta[:, None] * (q - 1.0)).max(axis=1) + eta ** 2
    else:
        eta_bar = eta / (1.0 - eta)
        tail = np.log1p(eta_bar[:, None] * q).max(axis=1)
    return _max_violation(lhs, body + tail)


def reverse_jensen_checks(samples: int = 100_000, seed: int = 7) -> list:
    """Fuzz the two reverse-Jensen mixture inequalities (the full-range
    log-tail form and the half-range linear-tail form)."""
    if samples < 4:
        raise ValueError(f"reverse-Jensen checks need at least 4 samples, got {samples}")
    rng = rng_from_seed(seed)
    results = []
    for half_rate, label in ((False, "reverse-jensen-log-tail"),
                             (True, "reverse-jensen-linear-tail")):
        worst = -math.inf
        for n in (2, 3, 5, 8):
            worst = max(worst, _jensen_batch(rng, samples // 4, n, half_rate))
        results.append(CheckResult(label, worst <= SLACK, f"max violation {worst:.3e}"))
    return results


def disjoint_equivalence_checks() -> list:
    """Soft-Bayes with rate 1/(t+c) on disjoint Dirac streams must reproduce
    the add-constant estimator within ``SLACK``, for the three classical
    choices of c (1, N/2, N) and N in {2, 3, 5}.

    Each N's seed sweep runs all three rates in one pass of the vectorized
    runner; the sweep's first stream is additionally replayed through the
    sequential learner at each rate and held to the same tolerance.
    """
    T = DISJOINT_T
    results = []
    for n in (2, 3, 5):
        batch = np.stack([disjoint_dirac(random_disjoint_symbols(n, T, 1000 * n + s), n).p
                          for s in range(DISJOINT_SEEDS)])
        counts = batch.cumsum(axis=1)
        t_col = np.arange(1, T + 1)[:, None]
        cells = (("perks", 1.0), ("kt", n / 2.0), ("laplace", float(n)))
        _, hists = soft_bayes_sweep(batch, [InverseT(c) for _, c in cells])
        replayed = ExpertStream(batch[0])
        for (label, c), hist in zip(cells, hists):
            expected = (counts + c / n) / (t_col + c)
            worst = float(np.abs(hist - expected).max())
            trace = run_learner(SoftBayes(n, InverseT(c)), replayed)
            worst = max(worst, float(np.abs(trace.weights - expected[0]).max()))
            # spot-check one round through the closed-form evaluator itself,
            # which must agree exactly
            mid = T // 2
            exact = np.array_equal(expected[0, mid - 1],
                                   disjoint_closed_form(counts[0, mid - 1], mid, c, n))
            detail = f"max weight gap {worst:.3e}"
            if not exact:
                detail += f"; closed form differs at round {mid}"
            results.append(CheckResult(f"disjoint-{label}-n{n}", worst <= SLACK and exact, detail))
    return results


def run_all(samples: int = 100_000, seed: int = 2024) -> list:
    return (scalar_inequality_checks(samples, seed)
            + reverse_jensen_checks(samples, seed + 1)
            + disjoint_equivalence_checks())
