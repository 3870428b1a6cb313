"""The learner classes and the rate schedules against exact restatements.

Soft-Bayes under every schedule, Bayes, EG, OGD, ML-soft-Bayes and meta run
through ``run_learner`` and are held, round by round, to the 60-digit
``decimal`` replays in ``reference.py``: the same diverged rounds, and each
finite loss within 1e-12 nats.  Every rate an online schedule emits is held
to its exact formula within a relative 1e-14.  The meta learner is also
held bit for bit to the Bayes posterior over K fixed-rate ``SoftBayes``
learners' predictions, restated here with its sum added left to right.
"""

import math
from decimal import Decimal

import numpy as np
import pytest

from reference import (
    anytime_rates,
    eg_losses,
    meta_losses,
    ml_soft_bayes_losses,
    ogd_losses,
    self_confident_rates,
    shifting_rates,
    soft_bayes_losses,
    sparse_rates,
)
from softbayes.core import ExpertStream
from softbayes.generators import adversarial_alternating, random_iid_instance
from softbayes.learners import (
    Bayes,
    ExponentiatedGradient,
    MLSoftBayes,
    MetaBayes,
    OnlineGradientDescent,
    SoftBayes,
    run_learner,
)
from softbayes.rates import (
    AnytimeRate,
    FixedRate,
    InverseT,
    SelfConfidentRate,
    ShiftingRate,
    SparseRate,
)


def _runs(*runs):
    """The stream of each (count, row) run's row repeated count times."""
    return ExpertStream(np.array([row for count, row in runs for _ in range(count)]))


STREAMS = {
    "theorem2": lambda: adversarial_alternating(200),
    "iid-n5": lambda: random_iid_instance(5, 300, seed=3),
    # 20 experts, where a chunk holds 102 rows
    "iid-n20": lambda: random_iid_instance(20, 300, seed=5),
    # M is subnormal on round 21: every update divides before it scales, and
    # the corrected schedules blend toward the prior after it; OGD's step
    # eta / M overflows while each eta q_i / M stays finite
    "subnormal-row": lambda: _runs((20, [0.6, 0.4]), (1, [2e-310, 1e-310]), (20, [0.6, 0.4])),
    # OGD's step eta / M on round 31 is 10^169, far past the reference's 60
    # digits; the round-32 row's subnormal entry then meets a zero weight
    "huge-step": lambda: _runs((30, [0.6, 0.4]), (1, [1e-170, 0.4]), (1, [1e-310, 1.0]),
                               (5, [0.6, 0.4])),
}


def _soft_bayes(schedule):
    def make(n):
        return SoftBayes(n, schedule(n))
    return make


def _soft_bayes_exact(p, learner, trace):
    rates = [*trace.rates.tolist(), learner.current_rate]
    return soft_bayes_losses(p, rates, learner.schedule.applies_correction)


META_RATES = [1.0, 0.5, 0.25]

# name -> (learner factory, exact losses from (rows, learner, trace))
LEARNERS = {
    "anytime": (_soft_bayes(AnytimeRate), _soft_bayes_exact),
    "sparse": (_soft_bayes(SparseRate), _soft_bayes_exact),
    "shifting": (_soft_bayes(ShiftingRate), _soft_bayes_exact),
    "self-confident": (_soft_bayes(SelfConfidentRate), _soft_bayes_exact),
    "fixed": (_soft_bayes(lambda n: FixedRate(0.3)), _soft_bayes_exact),
    "inverse-t": (_soft_bayes(lambda n: InverseT(2.0)), _soft_bayes_exact),
    "bayes": (Bayes, _soft_bayes_exact),
    "ml-soft-bayes": (MLSoftBayes, lambda p, learner, trace: ml_soft_bayes_losses(p)),
    "meta": (lambda n: MetaBayes(n, META_RATES),
             lambda p, learner, trace: meta_losses(p, META_RATES)),
    "eg": (lambda n: ExponentiatedGradient(n, 0.5),
           lambda p, learner, trace: eg_losses(p, learner.eta)),
    "ogd": (lambda n: OnlineGradientDescent(n, 0.1),
            lambda p, learner, trace: ogd_losses(p, learner.eta)),
}

# EG's exp(eta p_i / M) on the alternating stream leaves Decimal's exponent range
CASES = [(learner_name, stream_name) for learner_name in sorted(LEARNERS)
         for stream_name in sorted(STREAMS) if (learner_name, stream_name) != ("eg", "theorem2")]


@pytest.mark.parametrize("learner_name,stream_name", CASES)
def test_exact_reference(learner_name, stream_name):
    stream = STREAMS[stream_name]()
    make, exact = LEARNERS[learner_name]
    learner = make(stream.n_experts)
    trace = run_learner(learner, stream)
    want = np.array(exact(stream.p, learner, trace))
    diverged = np.isinf(trace.losses)
    np.testing.assert_array_equal(diverged, np.isinf(want))
    assert np.abs(trace.losses[~diverged] - want[~diverged]).max() <= 1e-12
    if (stream_name, learner_name) in (("theorem2", "bayes"), ("theorem2", "ogd")):
        # every flip round that the lost expert (posterior) or the vertex
        # weights (OGD) get wrong
        assert diverged.sum() == 50


# schedule -> its exact rates eta_1, ..., eta_{T+1} from the stream's rows
# and the mixtures M the learner observed
RATE_REFERENCES = {
    "anytime": lambda p, observed_m: anytime_rates(p.shape[1], len(p)),
    "sparse": lambda p, observed_m: sparse_rates(p),
    "shifting": lambda p, observed_m: shifting_rates(p.shape[1], len(p)),
    "self-confident": self_confident_rates,
}


@pytest.mark.parametrize("stream_name", sorted(STREAMS))
@pytest.mark.parametrize("schedule_name", sorted(RATE_REFERENCES))
def test_exact_rates(schedule_name, stream_name):
    stream = STREAMS[stream_name]()
    learner = LEARNERS[schedule_name][0](stream.n_experts)
    trace = run_learner(learner, stream)
    got = [*trace.rates.tolist(), learner.current_rate]
    want = RATE_REFERENCES[schedule_name](stream.p, trace.predictions)
    assert len(got) == len(want) == len(stream) + 1
    assert max(abs(Decimal(g) / w - 1) for g, w in zip(got, want)) <= Decimal("1e-14")


META_CASES = {
    # iid N = 2, 10 and 20: chunks of 256, 204 and 102 rows
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
    """The meta learner against the Bayes posterior restated over K
    fixed-rate soft-Bayes learners' predictions: each is the prediction
    column of a halted ``run_learner``, pinned at 0.0 after the round its
    learner diverged on, and the prediction sum_k u_k M_k is added left to
    right.  The meta learner steps one-row blocks, so its state is read
    after every round."""
    make_stream, prior = META_CASES[case]
    stream = make_stream()
    n, T = stream.n_experts, len(stream)
    rates = [1.0, 0.5, 0.25]
    learner = MetaBayes(n, rates, prior=prior)
    subs = np.zeros((T, len(rates)))
    died = []
    for k, r in enumerate(rates):
        trace = run_learner(SoftBayes(n, FixedRate(r), prior=prior), stream, "halt")
        subs[: trace.rounds, k] = trace.predictions
        died.append(trace.halted_at or T + 1)
    u = learner.weights.copy()
    with np.errstate(all="ignore"):
        for t, (p, preds) in enumerate(zip(stream.p, subs), 1):
            mp = 0.0
            for uk, mk in zip(u.tolist(), preds.tolist()):
                mp += uk * mk
            if mp != 0.0:
                u = u * preds / mp
            pred, loss, _, weights, _ = learner.step_block(p[None])
            assert same(pred[0], mp)
            assert same(loss[0], math.inf if mp == 0.0 else -math.log(mp))
            assert np.array_equal(weights[0], u, equal_nan=True)
            assert np.array_equal(learner.weights, u, equal_nan=True)
            assert learner.sub_dead == [t >= d for d in died]
    if case == "theorem2":
        assert learner.sub_dead == [True, False, False]
