"""Each learner class must drive the same kernel as its exported step function.

Every round the function and the class start from the same weights, the
function gets the rates the class used, and prediction, loss and new weights
must agree bit for bit.
"""

import math

import numpy as np
import pytest

from softbayes.generators import adversarial_alternating, random_iid_instance
from softbayes.learners import (
    MLSoftBayes,
    MetaBayes,
    MLWeightState,
    SoftBayes,
    WeightState,
    meta_bayes_step,
    ml_soft_bayes_step,
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


META_CASES = {
    # iid N = 2, 10 and 20 cover both sides of the N <= 16 scalar branch
    "iid-n2": (lambda: random_iid_instance(2, 300, seed=3), None),
    "iid-n10-prior": (lambda: random_iid_instance(10, 300, seed=4),
                      np.random.default_rng(4).dirichlet(np.ones(10))),
    "iid-n20": (lambda: random_iid_instance(20, 300, seed=5), None),
    # the rate-1 sub-learner dies on the first flip round
    "theorem2": (lambda: adversarial_alternating(200), None),
    # the low-rate sub-learners' weights underflow into NaN
    "theorem2-long": (lambda: adversarial_alternating(20000), None),
}


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("case", sorted(META_CASES))
def test_meta_bayes(case):
    """The meta learner against K fixed-rate soft-Bayes learners feeding
    ``meta_bayes_step``, a diverged one pinned at prediction 0.0."""
    make_stream, prior = META_CASES[case]
    stream = make_stream()
    n = stream.n_experts
    rates = [1.0, 0.5, 0.25]
    learner = MetaBayes(n, rates, prior=prior)
    subs = [SoftBayes(n, FixedRate(r), prior=prior) for r in rates]
    dead = [False] * len(rates)
    u = learner.weights.copy()
    with np.errstate(all="ignore"):
        for p in stream:
            preds = np.zeros(len(rates))
            for k, sub in enumerate(subs):
                if not dead[k]:
                    out = sub.step(p)
                    preds[k], dead[k] = out.prediction, out.diverged
            mp, u = meta_bayes_step(u, preds)
            cls_out = learner.step(p)
            assert same(cls_out.prediction, mp)
            assert same(cls_out.loss, math.inf if mp == 0.0 else -math.log(mp))
            assert np.array_equal(cls_out.new_weights, u, equal_nan=True)
            assert np.array_equal(learner.weights, u, equal_nan=True)
            assert learner.sub_dead == dead
    if case == "theorem2":
        assert dead == [True, False, False]
