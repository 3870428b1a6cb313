"""Metamorphic relations of the log-loss game, checked without a reference.

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
