"""Each learner class must drive the same kernel as its exported step function.

Every round the function and the class start from the same weights (EG's
class from their logarithm), the function gets the rates the class used,
and prediction, loss and new weights must agree bit for bit.
"""

import numpy as np
import pytest

from softbayes.generators import adversarial_alternating, random_iid_instance
from softbayes.learners import (
    Bayes,
    ExponentiatedGradient,
    MLSoftBayes,
    MLWeightState,
    OnlineGradientDescent,
    SoftBayes,
    WeightState,
    bayes_step,
    eg_step,
    ml_soft_bayes_step,
    ogd_step,
    soft_bayes_step,
)
from softbayes.rates import (
    AnytimeRate,
    FixedRate,
    InverseT,
    SelfConfidentRate,
    ShiftingRate,
    SparseRate,
)

STREAMS = {
    "theorem2": lambda: adversarial_alternating(200),
    "iid-n5": lambda: random_iid_instance(5, 300, seed=3),
}

SCHEDULES = {
    "anytime": AnytimeRate,
    "sparse": SparseRate,
    "shifting": ShiftingRate,
    "self-confident": SelfConfidentRate,
    "fixed": lambda n: FixedRate(0.3),
    "inverse-t": lambda n: InverseT(2.0),
}


def assert_same(fn_out, cls_out):
    assert fn_out.prediction == cls_out.prediction
    assert fn_out.loss == cls_out.loss
    assert np.array_equal(fn_out.new_weights, cls_out.new_weights)


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_soft_bayes(stream_name, schedule):
    stream = STREAMS[stream_name]()
    n = stream.n_experts
    learner = SoftBayes(n, SCHEDULES[schedule](n))
    corrects = learner.schedule.applies_correction
    for p in stream:
        state = WeightState(learner.weights.copy(), learner.state.prior, learner.state.t)
        eta_t = learner.current_rate
        cls_out = learner.step(p)
        fn_out = soft_bayes_step(state, p, eta_t, learner.current_rate if corrects else eta_t)
        assert_same(fn_out, cls_out)


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
def test_bayes(stream_name):
    stream = STREAMS[stream_name]()
    learner = Bayes(stream.n_experts)
    for p in stream:
        state = WeightState(learner.weights.copy(), learner.state.prior, learner.state.t)
        assert_same(bayes_step(state, p), learner.step(p))


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
def test_eg(stream_name):
    stream = STREAMS[stream_name]()
    n = stream.n_experts
    learner = ExponentiatedGradient(n, 0.5)
    w = learner.weights
    for p in stream:
        with np.errstate(divide="ignore"):
            learner.log_w = np.log(w)
        cls_out = learner.step(p)
        fn_out = eg_step(WeightState(w.copy(), w.copy(), 1), p, 0.5)
        assert_same(fn_out, cls_out)
        w = fn_out.new_weights


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
def test_ogd(stream_name):
    stream = STREAMS[stream_name]()
    learner = OnlineGradientDescent(stream.n_experts, 0.1)
    for p in stream:
        state = WeightState(learner.weights.copy(), learner.state.prior, learner.state.t)
        assert_same(ogd_step(state, p, 0.1), learner.step(p))


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
def test_ml_soft_bayes(stream_name):
    stream = STREAMS[stream_name]()
    learner = MLSoftBayes(stream.n_experts)
    for p in stream:
        s = learner.state
        state = MLWeightState(s.w.copy(), s.prior, s.rates.copy(), s.V.copy(), s.t)
        cls_out = learner.step(p)
        fn_out, fn_state = ml_soft_bayes_step(state, p, learner.state.rates)
        assert_same(fn_out, cls_out)
        assert np.array_equal(fn_state.V, learner.state.V)
