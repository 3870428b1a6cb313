import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softbayes.core import ExpertStream
from softbayes.learners import (
    Bayes,
    ExponentiatedGradient,
    LearnerTrace,
    MetaBayes,
    MLSoftBayes,
    MLWeightState,
    SoftBayes,
    WeightState,
    bayes_step,
    eg_step,
    meta_bayes_step,
    ml_rate_next,
    ml_soft_bayes_step,
    ogd_step,
    run_learner,
    soft_bayes_step,
    soft_bayes_sweep,
)
from softbayes.rates import AnytimeRate, FixedRate, InverseT


def random_stream(rng, T, n, low=0.01):
    return ExpertStream(rng.uniform(low, 1.0, size=(T, n)))


class TestSoftBayesStep:
    def test_hand_update(self):
        out = soft_bayes_step(WeightState.uniform(2), [0.0, 1.0], 0.5)
        assert out.prediction == pytest.approx(0.5)
        np.testing.assert_allclose(out.new_weights, [0.25, 0.75], atol=1e-15)

    def test_rate_one_is_posterior(self):
        out = soft_bayes_step(WeightState.uniform(2), [0.2, 0.6], 1.0)
        assert out.prediction == pytest.approx(0.4)
        np.testing.assert_allclose(out.new_weights, [0.25, 0.75], atol=1e-15)

    def test_hand_correction(self):
        # base update to (0.25, 0.75), then blended halfway back to the prior
        out = soft_bayes_step(WeightState.uniform(2), [0.0, 1.0], 0.5, 0.25)
        np.testing.assert_allclose(out.new_weights, [0.375, 0.625], atol=1e-15)

    def test_equal_probabilities_leave_weights(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(4))
            q = rng.uniform(0.05, 1.0)
            eta = rng.uniform(0.01, 1.0)
            out = soft_bayes_step(WeightState(w.copy(), w.copy(), 1), np.full(4, q), eta)
            np.testing.assert_allclose(out.new_weights, w, atol=1e-12)

    def test_divergence_sentinel_keeps_weights(self):
        state = WeightState(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1)
        out = soft_bayes_step(state, [0.0, 1.0], 0.5)
        assert out.diverged and math.isinf(out.loss)
        np.testing.assert_array_equal(out.new_weights, [1.0, 0.0])

    def test_rejects_increasing_rates(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            soft_bayes_step(WeightState.uniform(2), [0.5, 0.5], 0.5, 0.6)

    def test_rejects_rate_out_of_range(self):
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                soft_bayes_step(WeightState.uniform(2), [0.5, 0.5], eta)

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_normalized_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 7)
        w = rng.dirichlet(np.ones(n))
        p = rng.random(n)
        if p.max() == 0.0:
            p[0] = 0.5
        eta = rng.uniform(0.001, 0.999)
        state = WeightState(w.copy(), w.copy(), 1)
        out = soft_bayes_step(state, p, eta)
        assert abs(out.new_weights.sum() - 1.0) <= 1e-9
        assert np.all(out.new_weights <= (1 - eta) * w + eta + 1e-12)
        assert np.all(out.new_weights >= 0)


class TestBayesStep:
    def test_posterior(self):
        out = bayes_step(WeightState.uniform(2), [0.2, 0.6])
        np.testing.assert_allclose(out.new_weights, [0.25, 0.75], atol=1e-15)

    def test_equal_likelihoods(self):
        out = bayes_step(WeightState.uniform(2), [0.7, 0.7])
        np.testing.assert_allclose(out.new_weights, [0.5, 0.5], atol=1e-15)

    def test_zero_weight_stays_zero(self):
        state = WeightState(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1)
        out = bayes_step(state, [0.3, 0.9])
        np.testing.assert_allclose(out.new_weights, [1.0, 0.0], atol=1e-15)

    def test_bit_identical_to_rate_one_soft_bayes(self):
        rng = np.random.default_rng(42)
        stream = random_stream(rng, 200, 4)
        lsb = SoftBayes(4, FixedRate(1.0))
        lb = Bayes(4)
        for p in stream:
            a = lsb.step(p)
            b = lb.step(p)
            assert a.prediction == b.prediction
            assert np.array_equal(a.new_weights, b.new_weights)


class TestEGStep:
    def test_hand_update(self):
        out = eg_step(WeightState.uniform(2), [0.0, 1.0], 0.5)
        assert out.prediction == pytest.approx(0.5)
        np.testing.assert_allclose(out.new_weights, [0.26894, 0.73106], atol=5e-6)

    def test_equal_probabilities_leave_weights(self):
        w = np.array([0.3, 0.7])
        out = eg_step(WeightState(w.copy(), w.copy(), 1), [0.4, 0.4], 1.0)
        np.testing.assert_allclose(out.new_weights, w, atol=1e-12)

    def test_weight_collapse_under_huge_ratio(self):
        w = np.array([1e-12, 1 - 1e-12])
        out = eg_step(WeightState(w.copy(), w.copy(), 1), [1.0, 0.0], 1.0)
        assert out.new_weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_divergence(self):
        state = WeightState(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1)
        out = eg_step(state, [0.0, 1.0], 0.5)
        assert out.diverged

    def test_log_domain_learner_survives_overflow_ratios(self):
        # drive a weight below the linear floating range: the log-domain
        # learner keeps a finite loss where linear weights would flush to 0
        learner = ExponentiatedGradient(2, eta=0.5)
        learner.log_w = np.array([math.log(0.5), math.log(0.5)])
        learner.log_w = np.array([-800.0, math.log1p(-math.exp(-800.0))])
        out = learner.step(np.array([1.0, 0.0]))
        assert out.prediction == 0.0  # underflowed for display
        assert math.isfinite(out.loss) and out.loss == pytest.approx(800.0, rel=1e-12)


class TestOGDStep:
    def test_hand_update(self):
        out = ogd_step(WeightState.uniform(2), [0.0, 1.0], 0.5)
        assert out.prediction == pytest.approx(0.5)
        # pre-projection point is (0.5, 1.5); the grid oracle projects it to
        # (0, 1): all mass onto the expert that was right
        np.testing.assert_allclose(out.new_weights, [0.0, 1.0], atol=1e-12)

    def test_uniform_shift_removed_by_projection(self):
        w = np.array([0.2, 0.3, 0.5])
        out = ogd_step(WeightState(w.copy(), w.copy(), 1), [0.6, 0.6, 0.6], 0.7)
        np.testing.assert_allclose(out.new_weights, w, atol=1e-12)

    def test_divergence(self):
        state = WeightState(np.array([1.0, 0.0]), np.array([0.5, 0.5]), 1)
        out = ogd_step(state, [0.0, 1.0], 0.5)
        assert out.diverged and math.isinf(out.loss)


class TestMLSoftBayes:
    def test_hand_update(self):
        state = MLWeightState.uniform(2, [0.5, 0.25])
        out, new_state = ml_soft_bayes_step(state, [0.0, 1.0], [0.5, 0.25])
        assert out.prediction == pytest.approx(1 / 3)
        np.testing.assert_allclose(out.new_weights, [0.25, 0.75], atol=1e-15)
        np.testing.assert_allclose(new_state.V, [1.0, 4.0], atol=1e-12)

    def test_equal_probabilities_leave_weights(self):
        state = MLWeightState.uniform(3, [0.4, 0.3, 0.2])
        out, _ = ml_soft_bayes_step(state, [0.6, 0.6, 0.6], [0.4, 0.3, 0.2])
        assert out.prediction == pytest.approx(0.6)
        np.testing.assert_allclose(out.new_weights, state.prior, atol=1e-15)

    def test_equal_rates_match_plain_mixture(self):
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.ones(4))
        p = rng.random(4)
        state = MLWeightState(w.copy(), w.copy(), np.full(4, 0.3), np.zeros(4), 1)
        out, _ = ml_soft_bayes_step(state, p, np.full(4, 0.3))
        assert out.prediction == pytest.approx(float(w @ p) / float(w.sum()), rel=1e-12)

    def test_constant_rates_stay_on_simplex(self):
        rng = np.random.default_rng(6)
        rates = np.array([0.5, 0.3, 0.2])
        state = MLWeightState.uniform(3, rates)
        for _ in range(200):
            p = rng.uniform(0.01, 1.0, 3)
            _, state = ml_soft_bayes_step(state, p, rates)
            assert abs(state.w.sum() - 1.0) <= 1e-9
            assert np.all(state.w > 0)

    def test_adaptive_learner_weights_positive_and_growth_bounded(self):
        rng = np.random.default_rng(7)
        learner = MLSoftBayes(4)
        eta1 = learner.state.rates.copy()
        for _ in range(500):
            learner.step(rng.uniform(0.01, 1.0, 4))
            assert np.all(learner.state.w > 0)
        bar = lambda eta: eta / (1 - eta)
        growth_cap = float(np.sum(learner.state.prior * (1 + np.log(bar(eta1) / bar(learner.state.rates)))))
        assert learner.state.w.sum() <= growth_cap + 1e-9

    def test_rejects_increasing_rates(self):
        state = MLWeightState.uniform(2, [0.3, 0.3])
        with pytest.raises(ValueError):
            ml_soft_bayes_step(state, [0.5, 0.5], [0.4, 0.3])


class TestMLRateNext:
    def test_values(self):
        assert ml_rate_next(0.0, 5) == pytest.approx(0.41421, abs=5e-6)
        assert ml_rate_next(math.log(7), 7) == pytest.approx(1 / 3, abs=1e-12)

    def test_monotone_vanishing(self):
        vals = [ml_rate_next(v, 3) for v in (0.0, 1.0, 10.0, 1e6, 1e12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5


class TestMetaBayes:
    def test_hand_update(self):
        pred, u = meta_bayes_step([0.5, 0.5], [0.5, 0.25])
        assert pred == pytest.approx(0.375)
        np.testing.assert_allclose(u, [2 / 3, 1 / 3], atol=1e-15)

    def test_equal_predictions_leave_weights(self):
        pred, u = meta_bayes_step([0.3, 0.7], [0.4, 0.4])
        assert pred == pytest.approx(0.4)
        np.testing.assert_allclose(u, [0.3, 0.7], atol=1e-15)

    def test_dirac_meta_weight(self):
        pred, u = meta_bayes_step([1.0, 0.0], [0.6, 0.1])
        assert pred == pytest.approx(0.6)
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)

    def test_all_zero_predictions_signal_divergence(self):
        pred, u = meta_bayes_step([0.5, 0.5], [0.0, 0.0])
        assert pred == 0.0
        np.testing.assert_allclose(u, [0.5, 0.5])

    def test_diverged_sub_learner_is_pinned_to_zero(self):
        # the rate-1 sub-learner concentrates on expert 2, then diverges on
        # the flip round; the meta mixture keeps going on the low-rate sub
        meta = MetaBayes(2, rates=[1.0, 0.25])
        for _ in range(5):
            meta.step(np.array([0.0, 1.0]))
        out = meta.step(np.array([1.0, 0.0]))
        assert meta.sub_dead == [True, False]
        assert math.isfinite(out.loss)
        out = meta.step(np.array([0.0, 1.0]))
        assert meta.u[0] == 0.0 and math.isfinite(out.loss)


class TestSoftBayesLearner:
    def test_restart_floor_and_telescoping_with_correction(self):
        rng = np.random.default_rng(17)
        n = 5
        learner = SoftBayes(n, AnytimeRate(n))
        for t in range(1, 400):
            p = rng.uniform(0.0, 1.0, n)
            if p.max() == 0.0:
                p[0] = 1.0
            w_pre = learner.weights.copy()
            eta_t = learner.current_rate
            out = learner.step(p)
            eta_next = learner.current_rate
            floor = learner.state.prior * (1.0 - eta_next / eta_t)
            assert np.all(out.new_weights >= floor - 1e-12)
            lhs = np.log(1.0 - eta_t + eta_t * p / out.prediction)
            rhs = np.log(out.new_weights / w_pre) + math.log(eta_t / eta_next)
            assert np.all(lhs <= rhs + 1e-10)
            assert abs(out.new_weights.sum() - 1.0) <= 1e-9

    def test_increasing_rate_under_correction_aborts(self):
        class BadSchedule:
            applies_correction = True
            observes = False

            def rate(self, t):
                return 0.1 * t  # increasing: must abort the run

            def observe(self, t, p, m):
                pass

        learner = SoftBayes(2, BadSchedule())
        with pytest.raises(RuntimeError, match="increasing rate"):
            learner.step(np.array([0.2, 0.8]))

    def test_divergence_keeps_state_and_continues(self):
        stream = ExpertStream(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        learner = SoftBayes(2, FixedRate(1.0), prior=[0.5, 0.5])
        trace = run_learner(learner, stream, on_divergence="continue")
        assert trace.diverged
        assert math.isinf(trace.losses[1])
        assert math.isfinite(trace.losses[2])
        assert trace.rounds == 3

    def test_halt_policy_truncates(self):
        stream = ExpertStream(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        trace = run_learner(SoftBayes(2, FixedRate(1.0)), stream, on_divergence="halt")
        assert trace.halted_at == 2
        assert trace.rounds == 2

    def test_single_expert_regret_bound_constant_rate(self):
        rng = np.random.default_rng(23)
        n = 4
        for eta in (0.2, 0.7, 1.0):
            stream = random_stream(rng, 300, n)
            trace = run_learner(SoftBayes(n, FixedRate(eta)), stream)
            for i in range(n):
                regret = float(np.log(stream.p[:, i] / trace.predictions).sum())
                assert regret <= math.log(n) / eta + 1e-6


class TestSoftBayesSweep:
    # N = 17 is past the sequential learner's N <= 16 scalar branch
    @pytest.mark.parametrize("n", [2, 5, 17])
    def test_bitwise_matches_sequential_learner(self, n):
        rng = np.random.default_rng(31)
        batch = rng.uniform(0.01, 1.0, size=(6, 120, n))
        for schedule in (FixedRate(0.3), InverseT(2.5)):
            preds, hist = soft_bayes_sweep(batch, type(schedule)(
                schedule.eta if isinstance(schedule, FixedRate) else schedule.c))
            for s in range(batch.shape[0]):
                trace = run_learner(
                    SoftBayes(n, type(schedule)(
                        schedule.eta if isinstance(schedule, FixedRate) else schedule.c)),
                    ExpertStream(batch[s]))
                assert np.array_equal(hist[s], trace.weights)
                assert np.array_equal(preds[s], trace.predictions)

    def test_rejects_correcting_schedules(self):
        with pytest.raises(ValueError, match="plain"):
            soft_bayes_sweep(np.full((1, 3, 2), 0.5), AnytimeRate(2))

    def test_rejects_divergence(self):
        batch = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        with pytest.raises(ValueError, match="diverged"):
            soft_bayes_sweep(batch, FixedRate(1.0))


class TestLearnerTrace:
    def test_trace_shapes_and_cumsum(self):
        rng = np.random.default_rng(2)
        stream = random_stream(rng, 50, 3)
        trace = run_learner(SoftBayes(3, AnytimeRate(3)), stream)
        assert trace.rounds == 50
        assert trace.weights.shape == (50, 3)
        assert np.all(np.diff(trace.cumulative_losses) >= -1e-12)
        assert trace.total_loss == pytest.approx(trace.losses.sum())

    def test_sentinel_marks_divergence_and_finite_loss_sums_the_rest(self):
        losses = np.array([1.0, math.inf, 2.0])
        trace = LearnerTrace("t", np.zeros(3), losses, np.zeros(3), np.zeros((3, 2)))
        assert trace.finite_loss == 3.0
        assert trace.diverged
        assert math.isinf(trace.total_loss)
