import math

import numpy as np
import pytest

from softbayes.core import ExpertStream
from softbayes.generators import (
    GeneratorSpec,
    adversarial_alternating,
    adversarial_constant,
    disjoint_dirac,
    iid_mixture,
    parse_generator,
    random_disjoint_symbols,
    random_iid_instance,
    with_flip_round,
)
from softbayes.learners import ExponentiatedGradient, OnlineGradientDescent, run_learner


class TestAdversarialAlternating:
    def test_layout_t8(self):
        stream = adversarial_alternating(8)
        expected = [[0, 1]] * 4 + [[0, 1], [1, 0], [0, 1], [1, 0]]
        np.testing.assert_array_equal(stream.p, np.array(expected, float))

    def test_minimal(self):
        stream = adversarial_alternating(2)
        np.testing.assert_array_equal(stream.p, [[0.0, 1.0], [1.0, 0.0]])

    def test_every_round_is_dirac(self):
        stream = adversarial_alternating(50)
        assert np.all(stream.p.sum(axis=1) == 1.0)
        assert np.all((stream.p == 0) | (stream.p == 1))

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            adversarial_alternating(7)


class TestAdversarialConstant:
    def test_layout(self):
        stream = adversarial_constant(3)
        np.testing.assert_array_equal(stream.p, [[0.0, 1.0]] * 3)

    def test_best_mixture_is_free(self):
        from softbayes.comparators import best_fixed_mixture

        sol = best_fixed_mixture(adversarial_constant(10))
        np.testing.assert_allclose(sol.a, [0.0, 1.0], atol=1e-12)
        assert sol.loss == pytest.approx(0.0, abs=1e-12)

    def test_ogd_collapses_within_three_rounds(self):
        trace = run_learner(OnlineGradientDescent(2, eta=0.5), adversarial_constant(3))
        np.testing.assert_allclose(trace.weights[-1], [0.0, 1.0], atol=1e-12)

    def test_flip_round_diverges_ogd(self):
        stream = with_flip_round(adversarial_constant(10))
        trace = run_learner(OnlineGradientDescent(2, eta=0.5), stream, on_divergence="halt")
        assert trace.diverged
        assert trace.halted_at == 11
        assert math.isinf(trace.losses[-1])

    def test_eg_first_weight_decays_exponentially(self):
        trace = run_learner(ExponentiatedGradient(2, eta=0.5), adversarial_constant(100))
        # after 50 rounds the wrong expert's weight is <= exp(-25)
        assert trace.weights[49, 0] <= 1.4e-11


class TestDisjointDirac:
    def test_rows(self):
        stream = disjoint_dirac([1, 1], 3)
        np.testing.assert_array_equal(stream.p, [[1, 0, 0], [1, 0, 0]])
        stream = disjoint_dirac([1, 2, 1], 2)
        np.testing.assert_array_equal(stream.p, [[1, 0], [0, 1], [1, 0]])

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            disjoint_dirac([1, 4], 3)
        with pytest.raises(ValueError):
            disjoint_dirac([0], 3)

    def test_seeded_symbols_deterministic(self):
        a = random_disjoint_symbols(5, 100, 7)
        b = random_disjoint_symbols(5, 100, 7)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 1 and a.max() <= 5


class TestIIDMixture:
    def test_degenerate_mixture(self):
        stream = iid_mixture([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], T=50, seed=1)
        assert np.all(stream.p[:, 0] == 1.0)

    def test_determinism(self):
        a = iid_mixture([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], T=200, seed=42)
        b = iid_mixture([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], T=200, seed=42)
        np.testing.assert_array_equal(a.p, b.p)
        c = iid_mixture([0.3, 0.7], [[0.9, 0.1], [0.2, 0.8]], T=200, seed=43)
        assert not np.array_equal(a.p, c.p)

    def test_symbol_frequency(self):
        stream = iid_mixture([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], T=1000, seed=42)
        freq = float((stream.p[:, 0] == 1.0).mean())
        assert abs(freq - 0.5) < 0.05

    def test_validates_distributions(self):
        with pytest.raises(ValueError):
            iid_mixture([0.5, 0.5], [[0.9, 0.2], [0.2, 0.8]], T=10, seed=1)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_rejects_a_non_finite_distribution_entry(self, entry):
        # a NaN passes the sign and sum checks, and numpy's sampler named no argument
        with pytest.raises(ValueError, match="^distributions must be finite$"):
            iid_mixture([0.5, 0.5], [[entry, 1.0], [0.5, 0.5]], T=10, seed=1)

    def test_random_instance_deterministic(self):
        a = random_iid_instance(4, 100, seed=5)
        b = random_iid_instance(4, 100, seed=5)
        np.testing.assert_array_equal(a.p, b.p)
        assert a.n_experts == 4 and len(a) == 100


class TestGeneratorSpec:
    def test_parse_and_build(self):
        spec = parse_generator("theorem2:T=8")
        assert spec == GeneratorSpec("theorem2", {"T": 8})
        assert len(spec.build()) == 8
        spec = parse_generator("theorem2-constant:T=5")
        assert len(spec.build()) == 5
        spec = parse_generator("disjoint-dirac:N=3,T=20")
        stream = spec.build(seed=1)
        assert stream.n_experts == 3 and len(stream) == 20
        spec = parse_generator("iid-mixture:N=4,T=30,alphabet=6")
        assert spec.build(seed=2).n_experts == 4

    def test_same_spec_same_seed_identical(self):
        spec = parse_generator("iid-mixture:N=3,T=100")
        np.testing.assert_array_equal(spec.build(seed=9).p, spec.build(seed=9).p)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            parse_generator("chaos:T=3")

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="needs parameter"):
            parse_generator("theorem2").build()

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="has no parameter 'symbols'; it takes N, T"):
            GeneratorSpec("disjoint_dirac", {"N": 2, "T": 3, "symbols": [1, 2, 1]})

    def test_seed_required_for_stochastic(self):
        with pytest.raises(ValueError, match="seed"):
            parse_generator("iid-mixture:N=2,T=10").build()


class TestFlipRound:
    def test_appends_first_expert_round(self):
        base = adversarial_constant(4)
        flipped = with_flip_round(base)
        assert len(flipped) == 5
        np.testing.assert_array_equal(flipped.p[-1], [1.0, 0.0])
        assert isinstance(flipped, ExpertStream)
