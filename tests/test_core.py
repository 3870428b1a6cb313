import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softbayes.core import (
    ExpertStream,
    as_simplex,
    log_loss,
    mixture_prob,
    project_simplex,
    uniform_weights,
)


def grid_project(v, step=1e-4):
    """Brute-force quadratic minimization over a grid on the 2-simplex."""
    xs = np.arange(0.0, 1.0 + step / 2, step)
    pts = np.stack([xs, 1 - xs], axis=1)
    d = ((pts - np.asarray(v, float)) ** 2).sum(axis=1)
    return pts[d.argmin()]


def grid_project_nd(v, step):
    """Grid minimizer over the simplex in up to 4 dimensions."""
    v = np.asarray(v, float)
    n = v.size
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    grids = np.meshgrid(*([ticks] * (n - 1)), indexing="ij")
    rest = np.stack([g.ravel() for g in grids], axis=1)
    last = 1.0 - rest.sum(axis=1)
    ok = last >= -1e-12
    pts = np.concatenate([rest[ok], np.clip(last[ok], 0, None)[:, None]], axis=1)
    d = ((pts - v) ** 2).sum(axis=1)
    return pts[d.argmin()]


class TestMixtureProb:
    def test_dot_product(self):
        assert mixture_prob([0.5, 0.5], [0.2, 0.6]) == pytest.approx(0.4, abs=1e-15)

    def test_dirac_weight(self):
        for q, r in [(0.0, 1.0), (0.3, 0.9), (1.0, 0.0)]:
            assert mixture_prob([1.0, 0.0], [q, r]) == pytest.approx(q, abs=1e-15)

    def test_symmetric(self):
        assert mixture_prob([0.5, 0.5], [0.7, 0.7]) == pytest.approx(0.7, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mixture_prob([0.5, 0.5], [0.1, 0.2, 0.7])

    @given(st.integers(2, 6), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_dominance(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        p = rng.random(n)
        m = mixture_prob(w, p)
        assert p.min() - 1e-12 <= m <= p.max() + 1e-12
        assert np.all(m >= w * p - 1e-12)


class TestLogLoss:
    def test_certain(self):
        assert log_loss(1.0) == 0.0

    def test_half(self):
        assert log_loss(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_zero_is_sentinel(self):
        assert math.isinf(log_loss(0.0))

    @pytest.mark.parametrize("m", [-0.1, 1.1, 2.0])
    def test_out_of_range(self, m):
        with pytest.raises(ValueError):
            log_loss(m)


class TestProjectSimplex:
    def test_symmetric_overweight(self):
        np.testing.assert_allclose(project_simplex([0.6, 0.6]), [0.5, 0.5], atol=1e-12)

    def test_identity_on_simplex(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5], atol=1e-12)

    def test_outside_corner(self):
        # frozen from the 1e-4 grid oracle: grid_project([1.5, 0.5]) -> (1, 0)
        np.testing.assert_allclose(project_simplex([1.5, 0.5]), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(grid_project([1.5, 0.5]), [1.0, 0.0], atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.dirichlet(np.ones(4))
            np.testing.assert_allclose(project_simplex(w), w, atol=1e-12)

    @given(st.integers(2, 4), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_grid_oracle(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-2.0, 2.0, n)
        w = project_simplex(v)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-9
        oracle = grid_project_nd(v, step=0.02 if n < 4 else 0.05)
        assert np.linalg.norm(w - oracle) <= 1e-3 + np.sqrt(n) * (0.02 if n < 4 else 0.05)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            project_simplex([np.inf, 0.0])


class TestSimplexValidation:
    def test_renormalizes_dust(self):
        w = as_simplex([0.5, 0.5 + 1e-12])
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(ValueError, match="sum"):
            as_simplex([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            as_simplex([-0.1, 1.1])

    def test_uniform(self):
        np.testing.assert_allclose(uniform_weights(4), [0.25] * 4)


class TestExpertStream:
    def test_rejects_all_zero_round(self):
        with pytest.raises(ValueError, match="positive"):
            ExpertStream(np.array([[0.5, 0.5], [0.0, 0.0]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ExpertStream(np.array([[1.2, 0.0]]))
        with pytest.raises(ValueError):
            ExpertStream(np.array([[0.5, -0.1]]))

    def test_slice_and_concat(self):
        s = ExpertStream(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        first = s.slice(1, 2)
        assert len(first) == 2
        both = first.concat(s.slice(3, 3))
        np.testing.assert_array_equal(both.p, s.p)
        with pytest.raises(ValueError):
            s.slice(0, 2)
