import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import project_simplex_numpy
from softbayes.core import (
    BadRoundError,
    ExpertStream,
    as_simplex,
    project_floats,
    project_simplex,
    uniform_weights,
)

# entries whose sums over 17 terms stay finite, with the
# values that exercise ties, signed zeros, subnormals and the 1e300 shift
PROJECTION_ENTRIES = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e300, -1e300, 1e-320, 5e-324]),
    st.floats(-1e300, 1e300),
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

    @given(st.lists(PROJECTION_ENTRIES, min_size=1, max_size=17))
    @settings(max_examples=400, deadline=None)
    def test_both_forms_match_the_numpy_restatement_bit_for_bit(self, xs):
        # the projection runs on Python floats at every width, as an array
        # (project_simplex) and as a list (project_floats)
        want = project_simplex_numpy(xs).tobytes()
        assert project_simplex(xs).tobytes() == want
        assert np.array(project_floats([float(x) for x in xs])).tobytes() == want

    def test_huge_entry_swallowing_the_rest(self):
        # 1e300 - 1 rounds to 1e300, so no entry passes the support test
        # until the point is shifted by its max
        np.testing.assert_array_equal(project_simplex([1e300, 1.0]), [1.0, 0.0])
        np.testing.assert_array_equal(project_simplex([1.0, 1e300, 1e300]), [0.0, 0.5, 0.5])


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

    def test_rounds_without_experts_name_the_first(self):
        with pytest.raises(BadRoundError, match="round 1: stream needs at least one expert"):
            ExpertStream(np.zeros((3, 0)))
        with pytest.raises(ValueError, match="^stream needs at least one expert$"):
            ExpertStream(np.zeros((0, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ExpertStream(np.array([[1.2, 0.0]]))
        with pytest.raises(ValueError):
            ExpertStream(np.array([[0.5, -0.1]]))

    def test_concat(self):
        s = ExpertStream(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        both = ExpertStream(s.p[:2]).concat(ExpertStream(s.p[2:]))
        np.testing.assert_array_equal(both.p, s.p)
