"""Metamorphic relations of the log-loss game, checked without a reference:
scaling a row by a power of two, and permuting the experts.

Scaling round t's row by 2^-k_t is exact in floating point and leaves every
ratio p_i / M as it was.  A learner whose update reads the row only through
those ratios keeps bitwise-equal weights, and its loss at round t moves by
k_t ln 2, to the rounding of the log; an infinite loss stays infinite.

EG is left out: its log-domain round takes ln(p_i 2^-k), which rounds, so
its weights part from round 1.  The edge streams are left out too: there a
scale by 2^-k is not exact (5e-324 * 2^-1 = 0).
"""

import math

import numpy as np
import pytest

from softbayes.core import ExpertStream
from softbayes.generators import parse_generator
from softbayes.harness import parse_learner
from softbayes.learners import run_learner
from test_edge_streams import SELECTORS

LN2 = math.log(2.0)

# stream -> (generator, seed, seed of the k_t draw)
STREAMS = {f"iid-N{n}-seed{seed}": (f"iid-mixture:N={n},T=2000", seed, 100 + seed)
           for n in (2, 5, 17) for seed in range(3)}
STREAMS["theorem2"] = ("theorem2:T=2000", None, 102)

# meta's posterior terms u_k M_k go subnormal after theorem2's switch, and
# its weights first differ at round 1,002 (ROADMAP item 1)
META_SUBNORMAL = pytest.mark.xfail(reason="meta's posterior underflows on theorem2",
                                   strict=True)
CASES = [pytest.param(stream, selector, marks=META_SUBNORMAL
                      if stream == "theorem2" and selector.startswith("meta") else ())
         for stream in STREAMS for selector in SELECTORS if selector != "eg:fixed=0.5"]


@pytest.mark.parametrize("stream, selector", CASES)
def test_scaling_a_row_by_a_power_of_two_moves_only_its_loss(stream, selector):
    generator, seed, k_seed = STREAMS[stream]
    base = parse_generator(generator).build(seed)
    k = np.random.default_rng(k_seed).integers(0, 40, len(base))
    scaled = ExpertStream(np.ldexp(base.p, -k[:, None]))
    a, b = (run_learner(parse_learner(selector).build(s.n_experts), s) for s in (base, scaled))
    assert np.array_equal(a.weights, b.weights)
    finite = np.isfinite(a.losses)
    assert np.array_equal(finite, np.isfinite(b.losses))
    assert np.isinf(b.losses[~finite]).all()
    moved = b.losses[finite] - (a.losses[finite] + k[finite] * LN2)
    assert np.all(np.abs(moved) <= 4.5e-16 * np.maximum(1.0, b.losses[finite]))


# Permuting the experts permutes the weights and leaves the losses.  Each
# update is symmetric in the experts, but its sums over them are added left
# to right, so a permuted run adds the same terms in another order: at N = 2
# a two-term sum commutes and the runs agree bit for bit, and beyond it they
# agree to the rounding of those sums.
PERMUTED = {f"iid-N{n}-seed{seed}": (f"iid-mixture:N={n},T=2000", seed)
            for n in (2, 5, 17) for seed in range(3)}
PERMUTED["theorem2"] = ("theorem2:T=2000", None)
# OGD's projection sorts and sums its entries, so its rounding moves further
OGD_TOLERANCE = 1e-13
TOLERANCE = 4e-15


def permutation(stream, n):
    if n == 2:
        return np.array([1, 0])
    return np.random.default_rng(300 + PERMUTED[stream][1]).permutation(n)


# EG is held only at N = 2: beyond it its permuted run drifts further than
# its sums' rounding, by up to 1.4e-8 nats in a round's loss and 5.7e-9 in a
# weight on iid-N17-seed1
PERMUTE_CASES = [(stream, selector) for stream in PERMUTED for selector in SELECTORS
                 if selector != "eg:fixed=0.5" or "N2" in stream or stream == "theorem2"]


@pytest.mark.parametrize("stream, selector", PERMUTE_CASES)
def test_permuting_the_experts_permutes_only_the_weights(stream, selector):
    generator, seed = PERMUTED[stream]
    base = parse_generator(generator).build(seed)
    n = base.n_experts
    order = permutation(stream, n)
    permuted = ExpertStream(base.p[:, order])
    spec = parse_learner(selector)
    a, b = (run_learner(spec.build(n), s) for s in (base, permuted))
    # meta's weights are over its sub-rates, which no permutation moves
    want = a.weights if spec.kind == "meta" else a.weights[:, order]
    finite = np.isfinite(a.losses)
    assert np.array_equal(finite, np.isfinite(b.losses))
    if n == 2:
        assert np.array_equal(a.losses, b.losses)
        assert np.array_equal(want, b.weights)
        return
    tol = OGD_TOLERANCE if spec.kind == "ogd" else TOLERANCE
    assert np.isinf(b.losses[~finite]).all()
    moved = np.abs(b.losses[finite] - a.losses[finite])
    assert np.all(moved <= tol * np.maximum(1.0, a.losses[finite]))
    assert np.all(np.abs(b.weights - want) <= tol)
