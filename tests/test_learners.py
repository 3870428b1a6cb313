import math
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softbayes.core import BadRoundError, ExpertStream
from softbayes.generators import adversarial_alternating
from softbayes.harness import LEARNER_KINDS, parse_learner
from softbayes.learners import (
    _ROW_CHUNK,
    Bayes,
    ExponentiatedGradient,
    LearnerTrace,
    MetaBayes,
    MLSoftBayes,
    OnlineGradientDescent,
    SoftBayes,
    _ml_rate,
    run_learner,
    soft_bayes_sweep,
)
from softbayes.rates import AnytimeRate, FixedRate, InverseT
from test_edge_streams import SELECTORS as EDGE_SELECTORS
from test_edge_streams import STREAMS as EDGE_STREAMS
from test_edge_streams import blocks, padded


def random_stream(rng, T, n, low=0.01):
    return ExpertStream(rng.uniform(low, 1.0, size=(T, n)))


def one_round(learner, p):
    """The trace of one round: ``run_learner`` over the one-row stream ``p``."""
    return run_learner(learner, [p])


class TwoRates:
    """eta_1, then eta_2 on every later round, with the prior-blend
    correction: a rate pair of the test's choosing as a schedule."""

    applies_correction = True

    def __init__(self, first, then):
        self.first, self.then = first, then

    def rate(self, t):
        return self.first if t == 1 else self.then

    def observe(self, t, p, m):
        pass


class TestSoftBayesStep:
    def test_hand_update(self):
        out = one_round(SoftBayes(2, FixedRate(0.5)), [0.0, 1.0])
        assert out.predictions[0] == pytest.approx(0.5)
        np.testing.assert_allclose(out.weights[0], [0.25, 0.75], atol=1e-15)

    def test_rate_one_is_posterior(self):
        out = one_round(SoftBayes(2, FixedRate(1.0)), [0.2, 0.6])
        assert out.predictions[0] == pytest.approx(0.4)
        np.testing.assert_allclose(out.weights[0], [0.25, 0.75], atol=1e-15)

    def test_hand_correction(self):
        # base update to (0.25, 0.75), then blended halfway back to the prior
        out = one_round(SoftBayes(2, TwoRates(0.5, 0.25)), [0.0, 1.0])
        np.testing.assert_allclose(out.weights[0], [0.375, 0.625], atol=1e-15)

    def test_equal_probabilities_leave_weights(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(4))
            q = rng.uniform(0.05, 1.0)
            eta = rng.uniform(0.01, 1.0)
            out = one_round(SoftBayes(4, FixedRate(eta), prior=w), np.full(4, q))
            np.testing.assert_allclose(out.weights[0], w, atol=1e-12)

    def test_divergence_sentinel_keeps_weights(self):
        learner = SoftBayes(2, FixedRate(0.5), prior=[1.0, 0.0])
        out = one_round(learner, [0.0, 1.0])
        assert out.diverged and math.isinf(out.losses[0])
        np.testing.assert_array_equal(out.weights[0], [1.0, 0.0])
        np.testing.assert_array_equal(learner.weights, [1.0, 0.0])

    def test_rejects_rate_out_of_range(self):
        for eta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="outside"):
                FixedRate(eta)
        with pytest.raises(ValueError, match=re.escape("fixed rate 1.5 outside (0, 1]")):
            MetaBayes(2, [1.5])

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
        new = one_round(SoftBayes(n, FixedRate(eta), prior=w), p).weights[0]
        assert abs(new.sum() - 1.0) <= 1e-9
        assert np.all(new <= (1 - eta) * w + eta + 1e-12)
        assert np.all(new >= 0)


class TestBayesStep:
    def test_posterior(self):
        out = one_round(Bayes(2), [0.2, 0.6])
        np.testing.assert_allclose(out.weights[0], [0.25, 0.75], atol=1e-15)

    def test_equal_likelihoods(self):
        out = one_round(Bayes(2), [0.7, 0.7])
        np.testing.assert_allclose(out.weights[0], [0.5, 0.5], atol=1e-15)

    def test_zero_weight_stays_zero(self):
        out = one_round(Bayes(2, prior=[1.0, 0.0]), [0.3, 0.9])
        np.testing.assert_allclose(out.weights[0], [1.0, 0.0], atol=1e-15)

    def test_bit_identical_to_rate_one_soft_bayes(self):
        rng = np.random.default_rng(42)
        stream = random_stream(rng, 200, 4)
        a = run_learner(SoftBayes(4, FixedRate(1.0)), stream)
        b = run_learner(Bayes(4), stream)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.weights, b.weights)


class TestEGStep:
    def test_hand_update(self):
        out = one_round(ExponentiatedGradient(2, 0.5), [0.0, 1.0])
        assert out.predictions[0] == pytest.approx(0.5)
        np.testing.assert_allclose(out.weights[0], [0.26894, 0.73106], atol=5e-6)

    def test_equal_probabilities_leave_weights(self):
        w = np.array([0.3, 0.7])
        out = one_round(ExponentiatedGradient(2, 1.0, prior=w), [0.4, 0.4])
        np.testing.assert_allclose(out.weights[0], w, atol=1e-12)

    def test_weight_collapse_under_huge_ratio(self):
        w = np.array([1e-12, 1 - 1e-12])
        out = one_round(ExponentiatedGradient(2, 1.0, prior=w), [1.0, 0.0])
        assert out.weights[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_divergence(self):
        out = one_round(ExponentiatedGradient(2, 0.5, prior=[1.0, 0.0]), [0.0, 1.0])
        assert out.diverged

    def test_halt_reads_the_loss_not_an_underflowed_prediction(self):
        # after 2000 rounds the first weight is about exp(-1000): the next
        # round's M underflows to 0.0 for display, but its loss is finite
        stream = ExpertStream(np.array([[0.0, 1.0]] * 2000 + [[1.0, 0.0]] + [[0.5, 0.5]] * 2))
        trace = run_learner(ExponentiatedGradient(2, 0.5), stream, on_divergence="halt")
        assert trace.halted_at is None and trace.rounds == 2003
        assert trace.predictions[2000] == 0.0
        assert trace.losses[2000] == pytest.approx(1000.901, abs=5e-4)
        assert np.isfinite(trace.losses).all()

    def test_log_domain_learner_survives_overflow_ratios(self):
        # drive a weight below the linear floating range: the log-domain
        # learner keeps a finite loss where linear weights would flush to 0
        learner = ExponentiatedGradient(2, eta=0.5)
        learner.log_w = np.array([math.log(0.5), math.log(0.5)])
        learner.log_w = np.array([-800.0, math.log1p(-math.exp(-800.0))])
        out = one_round(learner, [1.0, 0.0])
        assert out.predictions[0] == 0.0  # underflowed for display
        loss = out.losses[0]
        assert math.isfinite(loss) and loss == pytest.approx(800.0, rel=1e-12)


@pytest.mark.parametrize("cls", [ExponentiatedGradient, OnlineGradientDescent])
@pytest.mark.parametrize("eta", [0.0, -1.0, math.inf, math.nan])
def test_gradient_learners_reject_rate_outside_positive_finite(cls, eta):
    # at rate inf, EG's weights turn NaN and the run reads them as diverged
    with pytest.raises(ValueError, match="must be positive and finite"):
        cls(2, eta)


class TestOGDStep:
    def test_hand_update(self):
        out = one_round(OnlineGradientDescent(2, 0.5), [0.0, 1.0])
        assert out.predictions[0] == pytest.approx(0.5)
        # pre-projection point is (0.5, 1.5); the grid oracle projects it to
        # (0, 1): all mass onto the expert that was right
        np.testing.assert_allclose(out.weights[0], [0.0, 1.0], atol=1e-12)

    def test_uniform_shift_removed_by_projection(self):
        w = np.array([0.2, 0.3, 0.5])
        out = one_round(OnlineGradientDescent(3, 0.7, prior=w), [0.6, 0.6, 0.6])
        np.testing.assert_allclose(out.weights[0], w, atol=1e-12)

    def test_divergence(self):
        out = one_round(OnlineGradientDescent(2, 0.5, prior=[1.0, 0.0]), [0.0, 1.0])
        assert out.diverged and math.isinf(out.losses[0])


class TestMLSoftBayes:
    def test_hand_update(self):
        learner = MLSoftBayes(2)
        learner.rates = np.array([0.5, 0.25])
        out = one_round(learner, [0.0, 1.0])
        assert out.predictions[0] == pytest.approx(1 / 3)
        np.testing.assert_allclose(learner.V, [1.0, 4.0], atol=1e-12)
        # base update to (0.25, 0.75), each blended toward the prior by its
        # own rate ratio
        # each rate is the formula on its own expert's V, one float at a time
        assert learner.rates.tolist() == [_ml_rate(v, math.log(2)) for v in (1.0, 4.0)]
        blend = learner.rates / [0.5, 0.25]
        np.testing.assert_allclose(out.weights[0], [0.25, 0.75] * blend + (1 - blend) * 0.5,
                                   atol=1e-15)

    def test_equal_probabilities_leave_weights(self):
        learner = MLSoftBayes(3)
        learner.rates = np.array([0.4, 0.3, 0.2])
        out = one_round(learner, [0.6, 0.6, 0.6])
        assert out.predictions[0] == pytest.approx(0.6)
        np.testing.assert_allclose(out.weights[0], learner.prior, atol=1e-15)

    def test_equal_rates_match_plain_mixture(self):
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.ones(4))
        p = rng.random(4)
        learner = MLSoftBayes(4, prior=w)
        learner.rates = np.full(4, 0.3)
        out = one_round(learner, p)
        assert out.predictions[0] == pytest.approx(float(w @ p) / float(w.sum()), rel=1e-12)

    def test_diverged_round_leaves_state(self):
        learner = MLSoftBayes(2, prior=[1.0, 0.0])
        before = (learner.weights.copy(), learner.rates.copy(), learner.V.copy())
        out = one_round(learner, [0.0, 1.0])
        assert out.diverged
        for kept, now in zip(before, (learner.weights, learner.rates, learner.V)):
            np.testing.assert_array_equal(now, kept)

    def test_adaptive_learner_weights_positive_and_growth_bounded(self):
        rng = np.random.default_rng(7)
        learner = MLSoftBayes(4)
        eta1 = learner.rates.copy()
        for _ in range(500):
            one_round(learner, rng.uniform(0.01, 1.0, 4))
            assert np.all(learner.weights > 0)
        bar = lambda eta: eta / (1 - eta)
        growth_cap = float(np.sum(learner.prior * (1 + np.log(bar(eta1) / bar(learner.rates)))))
        assert learner.weights.sum() <= growth_cap + 1e-9

    def test_near_tie_rounds_keep_rates_nonincreasing(self):
        # eta_bar / (1 + eta_bar) rose by an ulp here, which aborted the run
        stream = ExpertStream(np.array([[0.1, 0.9]] * 7 + [[0.5, 0.5000001]] * 3))
        learner = MLSoftBayes(2)
        rates, losses = [learner.rates], []
        for p in stream:
            losses.append(one_round(learner, p).losses[0])
            rates.append(learner.rates)
        assert np.all(np.diff(rates, axis=0) <= 0.0)
        assert sum(losses) == pytest.approx(4.677, abs=5e-4)


class TestMLRate:
    def test_values(self):
        np.testing.assert_allclose(MLSoftBayes(5).rates, 0.41421, atol=5e-6)
        assert _ml_rate(math.log(7), math.log(7)) == pytest.approx(1 / 3, abs=1e-12)

    def test_monotone_vanishing(self):
        vals = [_ml_rate(v, math.log(3)) for v in (0.0, 1.0, 10.0, 1e6, 1e12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5


class TestMetaBayes:
    """The posterior by hand, on two-round streams with sub-rates 1 and 0.5.
    Round 1 on [1, 0] moves the rate-1 sub-learner to [1, 0] and the rate-0.5
    one to [0.75, 0.25]; both predict 0.5, so the meta weights stay uniform.
    On [0.6, 0.2] they then predict 0.6 and 0.5, and on [0.4, 0.4] both 0.4."""

    @staticmethod
    def second_round(u, row):
        """Round 2, on ``row``, from the meta weights ``u``."""
        meta = MetaBayes(2, [1.0, 0.5])
        one_round(meta, [1.0, 0.0])
        meta.u = np.array(u)
        out = one_round(meta, row)
        return out.predictions[0], out.weights[0]

    def test_hand_update(self):
        pred, u = self.second_round([0.5, 0.5], [0.6, 0.2])
        assert pred == pytest.approx(0.55)
        np.testing.assert_allclose(u, [6 / 11, 5 / 11], atol=1e-15)

    def test_equal_predictions_leave_weights(self):
        pred, u = self.second_round([0.3, 0.7], [0.4, 0.4])
        assert pred == pytest.approx(0.4)
        np.testing.assert_allclose(u, [0.3, 0.7], atol=1e-15)

    def test_dirac_meta_weight(self):
        pred, u = self.second_round([1.0, 0.0], [0.6, 0.2])
        assert pred == pytest.approx(0.6)
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)

    def test_all_zero_predictions_signal_divergence(self):
        # both sub-learners move all mass to expert 2, which round 2 misses
        meta = MetaBayes(2, [1.0, 1.0])
        out = run_learner(meta, [[0.0, 1.0], [1.0, 0.0]])
        assert out.predictions[1] == 0.0 and math.isinf(out.losses[1])
        np.testing.assert_array_equal(out.weights[1], [0.5, 0.5])
        assert meta.sub_dead == [True, True]

    def test_diverged_sub_learner_is_pinned_to_zero(self):
        # the rate-1 sub-learner concentrates on expert 2, then diverges on
        # the flip round; the meta mixture keeps going on the low-rate sub
        meta = MetaBayes(2, rates=[1.0, 0.25])
        run_learner(meta, [[0.0, 1.0]] * 5)
        out = one_round(meta, [1.0, 0.0])
        assert meta.sub_dead == [True, False]
        assert math.isfinite(out.losses[0])
        out = one_round(meta, [0.0, 1.0])
        assert meta.u[0] == 0.0 and math.isfinite(out.losses[0])
        # the dead sub-learner stopped on round 6: its weights and round stay
        dead = meta.subs[0]
        np.testing.assert_array_equal(dead.weights, [0.0, 1.0])
        assert dead.t == 7 and meta.subs[1].t == 8


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
            out = one_round(learner, p)
            new = out.weights[0]
            eta_next = learner.current_rate
            floor = learner.prior * (1.0 - eta_next / eta_t)
            assert np.all(new >= floor - 1e-12)
            lhs = np.log(1.0 - eta_t + eta_t * p / out.predictions[0])
            rhs = np.log(new / w_pre) + math.log(eta_t / eta_next)
            assert np.all(lhs <= rhs + 1e-10)
            assert abs(new.sum() - 1.0) <= 1e-9

    def test_increasing_rate_under_correction_aborts(self):
        class Up:
            applies_correction = True
            observes = False

            def rate(self, t):
                return 0.1 * t  # increasing: must abort the run

            def observe(self, t, p, m):
                pass

        learner = SoftBayes(2, Up())
        with pytest.raises(RuntimeError) as exc:
            one_round(learner, [0.2, 0.8])
        # the schedule is named by its class, not by a repr with an address
        assert str(exc.value) == "schedule Up emitted an increasing rate (0.1 -> 0.2) at t=1"

    def test_divergence_keeps_state_and_continues(self):
        stream = ExpertStream(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        learner = SoftBayes(2, FixedRate(1.0), prior=[0.5, 0.5])
        trace = run_learner(learner, stream, on_divergence="continue")
        assert trace.diverged
        assert math.isinf(trace.losses[1])
        assert math.isfinite(trace.losses[2])
        assert trace.rounds == 3

    def test_prediction_is_the_weighted_mixture(self):
        out = one_round(SoftBayes(2, FixedRate(0.5)), [0.2, 0.6])
        assert out.predictions[0] == pytest.approx(0.4, abs=1e-15)
        out = one_round(SoftBayes(2, FixedRate(0.5)), [0.7, 0.7])
        assert out.predictions[0] == pytest.approx(0.7, abs=1e-15)
        for q, r in [(0.0, 1.0), (0.3, 0.9), (1.0, 0.0)]:
            out = one_round(SoftBayes(2, FixedRate(0.5), prior=[1.0, 0.0]), [q, r])
            assert out.predictions[0] == pytest.approx(q, abs=1e-15)

    def test_loss_is_negative_log_prediction(self):
        assert one_round(SoftBayes(2, FixedRate(0.5)), [1.0, 1.0]).losses[0] == 0.0
        assert one_round(SoftBayes(2, FixedRate(0.5)), [0.5, 0.5]).losses[0] == pytest.approx(
            math.log(2), abs=1e-15)

    @given(st.integers(2, 6), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_prediction_bounds_and_dominance(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(n))
        p = rng.random(n)
        m = one_round(SoftBayes(n, FixedRate(0.5), prior=w), p).predictions[0]
        assert p.min() - 1e-12 <= m <= p.max() + 1e-12
        assert np.all(m >= w * p - 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            one_round(SoftBayes(2, FixedRate(0.5)), [0.1, 0.2, 0.7])

    @pytest.mark.parametrize("make", [
        lambda prior: SoftBayes(3, FixedRate(0.5), prior=prior),
        lambda prior: Bayes(3, prior=prior),
        lambda prior: ExponentiatedGradient(3, 0.5, prior=prior),
        lambda prior: OnlineGradientDescent(3, 0.1, prior=prior),
        lambda prior: MLSoftBayes(3, prior=prior),
        lambda prior: MetaBayes(3, [1.0, 0.5], prior=prior),
    ])
    def test_prior_of_the_wrong_length(self, make):
        with pytest.raises(ValueError, match=re.escape(
                "prior has 2 entries, expected one for each of 3 experts")):
            make([0.5, 0.5])

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


class TestSubnormalMixture:
    """M below the smallest normal float, where eta / M overflows."""

    def test_exact_bayes_posterior_after_subnormal_round(self):
        stream = ExpertStream(np.concatenate([np.tile([0.0, 1.0], (50, 1)), [[1.0, 1e-320]],
                                              np.tile([0.5, 0.5], (3, 1))]))
        trace = run_learner(Bayes(2), stream, on_divergence="halt")
        assert trace.halted_at is None
        np.testing.assert_array_equal(trace.weights[50:], np.tile([0.0, 1.0], (4, 1)))
        np.testing.assert_array_equal(trace.losses[51:], [math.log(2)] * 3)

    def test_division_comes_before_the_rate(self):
        # a weight holding all of M keeps its share: 0.25 of it, not 1e-323
        w = np.array([1e-323, 1.0 - 1e-323])
        q = np.array([1.0, 0.0])
        learner = SoftBayes(2, FixedRate(0.25))
        learner.weights = w
        new = one_round(learner, q).weights[0]
        assert new[0] == pytest.approx(0.25, rel=1e-12)
        assert np.isfinite(new).all()

    def test_meta_loses_only_the_round_every_row_misses(self):
        trace = run_learner(MetaBayes(2, [1.0, 0.5, 0.25]), adversarial_alternating(20_000))
        assert int((~np.isfinite(trace.losses)).sum()) == 1
        assert not np.isnan(trace.losses).any()


class TestSoftBayesSweep:
    @staticmethod
    def assert_members_match_sequential(batch, kinds):
        """Every ``[k, s]`` member equals the sequential learner with a fresh
        ``kinds[k]`` schedule, a ``(class, parameter)`` pair, over stream s,
        bit for bit."""
        preds, hist = soft_bayes_sweep(batch, [cls(arg) for cls, arg in kinds])
        S, T, n = batch.shape
        assert preds.shape == (len(kinds), S, T)
        assert hist.shape == (len(kinds), S, T, n)
        for k, (cls, arg) in enumerate(kinds):
            for s in range(S):
                trace = run_learner(SoftBayes(n, cls(arg)), ExpertStream(batch[s]))
                assert np.array_equal(hist[k, s], trace.weights), (k, s)
                assert np.array_equal(preds[k, s], trace.predictions), (k, s)
        return preds

    # the sweep is the one numpy form of soft-Bayes, held to the learner's
    # Python floats past 16 experts too
    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_bitwise_matches_sequential_learner(self, n):
        batch = np.random.default_rng(31).uniform(0.01, 1.0, size=(6, 120, n))
        self.assert_members_match_sequential(batch, [
            (FixedRate, 0.3), (InverseT, 2.5), (FixedRate, 1.0), (InverseT, n / 2.0)])

    # the sweep steps only normal mixtures: a round where any member's M is
    # subnormal is refused whole, and the learner alone steps it
    REFUSAL = (r"^round {}: a sweep member diverged \(mixture 0\) or its mixture is "
               r"subnormal; run it through run_learner, which steps both$")

    def test_refuses_a_subnormal_round(self):
        # only member (0, 0) goes subnormal, at round 51: Bayes zeroes expert
        # 0 on stream 0, which rate 0.5 only halves each round
        subnormal = np.concatenate([np.tile([0.0, 1.0], (50, 1)), [[1.0, 1e-320]],
                                    np.tile([0.5, 0.5], (3, 1))])
        batch = np.stack([subnormal, np.random.default_rng(5).uniform(0.01, 1.0, (54, 2))])
        kinds = [(FixedRate, 1.0), (FixedRate, 0.5)]
        self.assert_members_match_sequential(batch[:, :50], kinds)
        with pytest.raises(ValueError, match=self.REFUSAL.format(51)):
            soft_bayes_sweep(batch, [cls(arg) for cls, arg in kinds])

    @pytest.mark.parametrize("n", [2, 17, 40])
    def test_refuses_a_subnormal_member_beside_normal_ones(self, n):
        # round 1 puts all of the Bayes member's weight on expert 1, which
        # reads 1 until round 51 reads it 1e-320: that member's M is
        # subnormal there, while the lower rates keep a normal M
        stream = np.random.default_rng(n).uniform(0.01, 1.0, (54, n))
        stream[:51, 1] = 1.0
        stream[0] = np.eye(n)[1]
        stream[50, 1] = 1e-320
        kinds = [(FixedRate, 1.0), (FixedRate, 0.5), (FixedRate, 0.25)]
        self.assert_members_match_sequential(stream[None, :50], kinds)
        with pytest.raises(ValueError, match=self.REFUSAL.format(51)):
            soft_bayes_sweep(stream[None], [cls(arg) for cls, arg in kinds])

    def test_steps_a_mixture_at_the_smallest_normal_float(self):
        stream = np.random.default_rng(7).uniform(0.01, 1.0, (20, 2))
        stream[0] = 2.0 ** -1022
        preds = self.assert_members_match_sequential(
            stream[None], [(FixedRate, 1.0), (FixedRate, 0.5)])
        assert preds[:, 0, 0].tolist() == [sys.float_info.min] * 2

    def test_refuses_a_mixture_below_the_smallest_normal_float(self):
        stream = np.random.default_rng(7).uniform(0.01, 1.0, (20, 2))
        stream[0] = 2.0 ** -1023
        with pytest.raises(ValueError, match=self.REFUSAL.format(1)):
            soft_bayes_sweep(stream[None], [FixedRate(1.0), FixedRate(0.5)])

    def test_rejects_correcting_schedules(self):
        with pytest.raises(ValueError, match="plain"):
            soft_bayes_sweep(np.full((1, 3, 2), 0.5), [FixedRate(0.5), AnytimeRate(2)])

    def test_rejects_an_empty_schedule_list(self):
        with pytest.raises(ValueError, match="at least one schedule"):
            soft_bayes_sweep(np.full((1, 3, 2), 0.5), [])

    def test_rejects_an_empty_batch(self):
        with pytest.raises(ValueError, match="no streams"):
            soft_bayes_sweep(np.empty((0, 3, 2)), [FixedRate(1.0)])

    @staticmethod
    def batch_with(entry):
        batch = np.full((3, 4, 2), 0.5)
        batch[1, 2, 0] = entry
        return batch

    def test_rejects_an_entry_above_one(self):
        with pytest.raises(ValueError, match=r"^stream 1, round 3: .*\[0, 1\]$"):
            soft_bayes_sweep(self.batch_with(3.0), [FixedRate(1.0)])

    def test_rejects_a_negative_entry(self):
        with pytest.raises(ValueError, match=r"^stream 1, round 3: .*\[0, 1\]$"):
            soft_bayes_sweep(self.batch_with(-0.2), [FixedRate(1.0)])

    def test_rejects_a_nan_entry(self):
        with pytest.raises(ValueError, match="^stream 1, round 3: non-finite probability$"):
            soft_bayes_sweep(self.batch_with(math.nan), [FixedRate(1.0)])

    def test_rejects_divergence(self):
        batch = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        with pytest.raises(ValueError, match="diverged"):
            soft_bayes_sweep(batch, [FixedRate(0.5), FixedRate(1.0)])


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


def halts_at(k):
    """512 rows, two whole ``_ROW_CHUNK``s, where Bayes and OGD put all their
    weight on the second expert by round ``k``, which then reads 0; the run
    goes on at [0.5, 0.5]."""
    return lambda: blocks((k - 1, [0.0, 1.0]), (1, [1.0, 0.0]), (512 - k, [0.5, 0.5]))


# every LEARNER_KINDS selector (soft-Bayes under each schedule) on the edge
# streams, as they are and padded to 17 experts, on theorem2, and on
# streams that halt on the last and on the first row of a ``_ROW_CHUNK``
BLOCK_STREAMS = {**EDGE_STREAMS, "theorem2": lambda: adversarial_alternating(200),
                 "halt-256": halts_at(256), "halt-257": halts_at(257)}


@pytest.mark.parametrize("k", [256, 257])
@pytest.mark.parametrize("selector", ["bayes", "ogd:fixed=0.1"])
def test_chunk_edge_streams_halt_on_their_round(selector, k):
    stream = BLOCK_STREAMS[f"halt-{k}"]()
    trace = run_learner(parse_learner(selector).build(2), stream, "halt")
    assert trace.halted_at == trace.rounds == k


def partitioned_trace(learner, stream, halt, cuts):
    """The trace of ``step_block`` over the blocks of rows between
    consecutive ``cuts`` (0 and T among them), one call each, recorded as
    ``run_learner`` records one block; a halt ends it."""
    parts, halted_at = [], None
    for start, stop in zip(cuts, cuts[1:]):
        *columns, halted = learner.step_block(stream.p[start:stop], halt)
        parts.append(columns)
        if halted is not None:
            halted_at = start + halted
            break
    return LearnerTrace(learner.name, *(np.concatenate(c) for c in zip(*parts)), halted_at)


def partitions(T):
    """One-row blocks, cuts on both sides of the first ``_ROW_CHUNK`` edge
    and on the second, and a seeded random partition of the T rows."""
    rng = np.random.default_rng(T)
    inner = np.sort(rng.choice(np.arange(1, T), size=rng.integers(1, T), replace=False))
    edges = [cut for cut in (255, 256, 257, 512) if cut < T]
    return {"one-row": list(range(T + 1)), "chunk-edges": [0, *edges, T],
            "random": [0, *inner.tolist(), T]}


def bits(value):
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def learner_state(learner):
    """Every attribute a learner steps, as bits; a schedule by its own
    attributes (the sparse tracker compares by its best set), and meta's
    sub-learners by their own state."""
    state = {name: bits(getattr(learner, name))
             for name in ("weights", "log_w", "t", "current_rate", "rates", "V", "u", "sub_dead")
             if hasattr(learner, name)}
    if hasattr(learner, "schedule"):
        state["schedule"] = vars(learner.schedule)
    if hasattr(learner, "subs"):
        state["subs"] = [learner_state(sub) for sub in learner.subs]
    return state


@pytest.mark.parametrize("policy", ["halt", "continue"])
@pytest.mark.parametrize("selector", EDGE_SELECTORS)
@pytest.mark.parametrize("stream_name", sorted(BLOCK_STREAMS))
def test_block_and_one_row_forms_agree(stream_name, selector, policy):
    """``step_block`` over any partition of the rows gives the one block's
    trace and state bit for bit: each part's state is written back, and the
    next part starts from it."""
    stream = BLOCK_STREAMS[stream_name]()
    block = parse_learner(selector).build(stream.n_experts)
    want = run_learner(block, stream, policy)
    for name, cuts in partitions(len(stream)).items():
        parts = parse_learner(selector).build(stream.n_experts)
        got = partitioned_trace(parts, stream, policy == "halt", cuts)
        for column in ("predictions", "losses", "rates", "weights"):
            assert bits(getattr(got, column)) == bits(getattr(want, column)), (name, column)
        assert got.halted_at == want.halted_at, name
        assert learner_state(parts) == learner_state(block), name


@pytest.mark.parametrize("n, T", [(2, 600), (8, 600), (9, 600), (64, 600), (3000, 3)])
@pytest.mark.parametrize("selector", ["soft-bayes:anytime", "meta:rates=1,0.5,0.25"])
def test_a_chunk_holds_at_most_its_rows_and_cells(selector, n, T):
    # each _rounds call is handed one chunk of row lists: one row at least,
    # at most _ROW_CHUNK rows and 2,048 entries, one row a chunk past that;
    # meta's sub-learners are handed the very lists meta is
    learner = parse_learner(selector).build(n)
    handed = []

    def spy(rounds):
        def call(rows):
            handed.append(rows)
            return rounds(rows)
        return call

    learner._rounds = spy(learner._rounds)
    for sub in getattr(learner, "subs", ()):
        sub._rounds = spy(sub._rounds)
    stream = random_stream(np.random.default_rng(n), T, n)
    run_learner(learner, stream)
    # each call on meta is followed by one on each sub-learner, none of which dies
    calls = 1 + len(getattr(learner, "subs", ()))
    chunks = handed[::calls]
    assert all(rows is handed[i - i % calls] for i, rows in enumerate(handed))
    assert [row for chunk in chunks for row in chunk] == stream.p.tolist()
    for chunk in chunks:
        assert 1 <= len(chunk) <= _ROW_CHUNK
        assert len(chunk) * n <= 2048 or len(chunk) == 1
    assert len(chunks) == (T if n == 3000 else -(-T // min(_ROW_CHUNK, 2048 // n)))


def trace_columns(trace):
    return trace.predictions, trace.losses, trace.rates, trace.weights


def memory_test_rounds(n):
    """The rounds of a traced-memory run at ``n`` experts.  At 2 experts a
    chunk is small beside the columns, so the run is long; wider, 4,000
    rounds still leave a step_block that keeps every chunk's rows, or a
    (T, N) array, more than twice the bound, and trace far faster."""
    return 20_000 if n == 2 else 4_000


@pytest.mark.parametrize("n", [2, 17])
@pytest.mark.parametrize("selector", EDGE_SELECTORS)
def test_a_run_holds_its_trace_columns_and_one_chunk(selector, n):
    # the rounds' Python floats and weight rows are written into the columns
    # a chunk at a time, not kept until the block ends
    T = memory_test_rounds(n)
    stream = random_stream(np.random.default_rng(n), T, n)
    learner = parse_learner(selector).build(n)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = run_learner(learner, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.rounds == T
    assert peak - entry <= sum(column.nbytes for column in trace_columns(trace)) + 512 * 1024


@pytest.mark.parametrize("n", [2, 17])
@pytest.mark.parametrize("selector", EDGE_SELECTORS)
def test_a_halted_run_owns_only_the_rows_it_stepped(selector, n):
    # on the prior's one expert until round 5 reads it 0: every learner halts there
    first = np.eye(n)[0]
    stream = blocks((4, first), (1, 1.0 - first), (19_995, first))
    learner = replace(parse_learner(selector), prior=tuple(first.tolist())).build(n)
    trace = run_learner(learner, stream, "halt")
    assert trace.halted_at == 5
    for column in trace_columns(trace):
        assert len(column) == 5 and column.flags.owndata


@pytest.mark.parametrize("policy", ["halt", "continue"])
@pytest.mark.parametrize("n", [2, 17])
@pytest.mark.parametrize("selector", EDGE_SELECTORS)
def test_a_stride_keeps_the_rows_of_its_rounds(selector, n, policy):
    # halt-257 ends off the stride of 3, on round 257 (Bayes, OGD) or 512;
    # the random stream ends on it, on round 600; every chunk starts at
    # another offset from the stride
    for make in (halts_at(257), lambda: random_stream(np.random.default_rng(n), 600, 2)):
        stream = (make if n == 2 else padded(make))()
        want = run_learner(parse_learner(selector).build(n), stream, policy)
        for every in (3, len(stream)):
            got = run_learner(parse_learner(selector).build(n), stream, policy, every)
            rounds = [t for t in range(1, want.rounds + 1) if t % every == 0 or t == want.rounds]
            assert got.every == every
            assert got.weight_rounds.tolist() == rounds
            assert bits(got.weights) == bits(want.weights[np.array(rounds) - 1]), every
            for column in ("predictions", "losses", "rates"):
                assert bits(getattr(got, column)) == bits(getattr(want, column)), column
            assert got.halted_at == want.halted_at


@pytest.mark.parametrize("n", [2, 64])
@pytest.mark.parametrize("kind", sorted(LEARNER_KINDS))
def test_a_run_that_keeps_the_last_row_holds_three_columns_and_one_chunk(kind, n):
    # no T x N weights column: what a run holds beside its predictions,
    # losses and rates is one chunk of at most _ROW_CHUNK rounds, each at
    # most 1 KiB up to 64 experts (a row, a weight row, three floats and
    # their list slots)
    T = memory_test_rounds(n)
    stream = random_stream(np.random.default_rng(n), T, n)
    selector = next(s for s in EDGE_SELECTORS if parse_learner(s).kind == kind)
    learner = parse_learner(selector).build(n)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = run_learner(learner, stream, every=T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.weight_rounds.tolist() == [T]
    assert peak - entry <= 3 * T * 8 + _ROW_CHUNK * 1024


@pytest.mark.parametrize("kind", sorted(LEARNER_KINDS))
def test_an_empty_block_keeps_a_weights_column_of_no_rows(kind):
    # the weights column is (rows, W) for every block, W the experts or
    # meta's sub-learners, so a block of no rounds concatenates with others
    n = 3
    selector = next(s for s in EDGE_SELECTORS if parse_learner(s).kind == kind)
    learner = parse_learner(selector).build(n)
    width = len(learner.subs) if kind == "meta" else n
    before = learner_state(learner)
    *columns, weights, halted_at = learner.step_block(np.empty((0, n)), halt=True)
    assert [column.shape for column in columns] == [(0,)] * 3
    assert weights.shape == (0, width)
    assert halted_at is None
    trace = run_learner(learner, ExpertStream(np.empty((0, n))), every=5)
    assert trace.rounds == 0 and trace.weights.shape == (0, width)
    assert trace.weight_rounds.tolist() == []
    assert learner_state(learner) == before


@pytest.mark.parametrize("row", [[-0.5, 0.9], [1.5, 0.2], [math.nan, 0.2]])
@pytest.mark.parametrize("kind", sorted(LEARNER_KINDS))
def test_run_learner_holds_raw_rows_to_the_stream_rule(kind, row):
    # the learners read no row's values for the rule: a raw array went
    # through unchecked, to weights off the simplex or a finite loss
    selector = next(s for s in EDGE_SELECTORS if parse_learner(s).kind == kind)
    learner = parse_learner(selector).build(2)
    before = learner_state(learner)
    with pytest.raises(BadRoundError) as raised:
        run_learner(learner, np.array([row]))
    assert raised.value.round == 1
    assert learner_state(learner) == before


class RisesAt:
    """1/(t + 1), then a rise to 0.9 at round ``k``, with the prior-blend
    correction; logs every call it gets."""

    applies_correction = True

    def __init__(self, k):
        self.k, self.calls = k, []

    def rate(self, t):
        self.calls.append(("rate", t))
        return 0.9 if t >= self.k else 1.0 / (t + 1)

    def observe(self, t, p, m):
        self.calls.append(("observe", t, m))


class RecordsRows(FixedRate):
    """Rate 0.5; keeps every row it is shown."""

    def __init__(self):
        super().__init__(0.5)
        self.rows = []

    def observe(self, t, p, m):
        self.rows.append(p)


@pytest.mark.parametrize("n", [2, 16, 17, 64])
def test_the_schedule_sees_each_row_in_the_form_the_learner_holds(n):
    # the row's Python floats at every width
    stream = random_stream(np.random.default_rng(n), _ROW_CHUNK + 44, n)
    schedule = RecordsRows()
    run_learner(SoftBayes(n, schedule), stream)
    assert len(schedule.rows) == len(stream)
    assert all(type(row) is list for row in schedule.rows)
    assert all(type(x) is float for row in schedule.rows for x in row)
    assert schedule.rows == stream.p.tolist()


def test_block_and_one_row_forms_agree_on_a_rising_rate():
    # the raise comes after the block has written its first chunk of rows
    stream = random_stream(np.random.default_rng(8), 300, 3)
    block, rows = SoftBayes(3, RisesAt(260)), SoftBayes(3, RisesAt(260))
    with pytest.raises(RuntimeError) as raised:
        run_learner(block, stream)
    with pytest.raises(RuntimeError) as stepped:
        partitioned_trace(rows, stream, False, range(len(stream) + 1))
    assert str(raised.value) == str(stepped.value) == (
        "schedule RisesAt emitted an increasing rate (0.0038461538461538464 -> 0.9) at t=259")
    # rounds 1-258 stepped; round 259 was observed and asked eta_260, then refused
    assert block.t == rows.t == 259
    assert block.schedule.calls == rows.schedule.calls
    assert [call[:2] for call in block.schedule.calls[-2:]] == [("observe", 259), ("rate", 260)]
    assert learner_state(block) == learner_state(rows)
    np.testing.assert_array_equal(block.weights, run_learner(
        SoftBayes(3, RisesAt(260)), ExpertStream(stream.p[:258])).weights[-1])
