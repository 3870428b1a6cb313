#!/usr/bin/env python3
"""Reproduce the EG/OGD failure modes next to the soft-Bayes guarantee.

Three adversarial settings with two disjoint Dirac experts:

  constant     expert 2 is always right; watch EG starve expert 1's weight
               exponentially and OGD walk onto the vertex.
  alternating  expert 2 is right for the first half, then correctness
               alternates; EG's regret blows up the moment expert 1 first
               becomes good, while anytime soft-Bayes stays within its bound.
  ogd-flip     the constant stream plus one round where only expert 1 is
               right: OGD's vertex weights give that round probability zero,
               so its loss (and regret) is infinite.
"""

import argparse
import math

from softbayes.comparators import best_fixed_mixture, regret_report, theoretical_bound
from softbayes.generators import (
    adversarial_alternating,
    adversarial_constant,
    with_flip_round,
)
from softbayes.learners import (
    ExponentiatedGradient,
    OnlineGradientDescent,
    SoftBayes,
    run_learner,
)
from softbayes.rates import AnytimeRate


def fmt(x):
    return "inf" if math.isinf(x) else f"{x:10.3f}"


def show(title, stream, learners, policy="continue"):
    comparator = best_fixed_mixture(stream).loss
    print(f"\n== {title} (T={len(stream)}, comparator loss {comparator:.3f}) ==")
    print(f"{'learner':<22} {'loss':>12} {'regret':>12}  notes")
    for learner in learners:
        # only the losses are read, so the trace keeps only the last weight row
        trace = run_learner(learner, stream, policy, every=len(stream))
        regret = regret_report(trace, comparator).regret
        note = "diverged" if trace.diverged else ""
        print(f"{learner.name:<22} {fmt(trace.total_loss):>12} {fmt(regret):>12}  {note}")
    return comparator


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=100, help="horizon (even)")
    parser.add_argument("--eta", type=float, default=0.5, help="EG/OGD rate")
    args = parser.parse_args()
    T, eta = args.T, args.eta
    if T < 2 or T % 2:
        parser.error(f"argument --T: must be even and at least 2, got {T}")
    if not 0.0 < eta < math.inf:
        parser.error(f"argument --eta: must be positive and finite, got {eta!r}")

    stream = adversarial_constant(T)
    t = T // 2
    w = run_learner(ExponentiatedGradient(2, eta), stream).weights[t - 1, 0]
    print(f"EG weight on the always-wrong expert after {t} rounds: "
          f"{w:.3e} (<= exp(-{eta * t:.0f}) = {math.exp(-eta * t):.3e})")

    show("constant stream", stream, [
        ExponentiatedGradient(2, eta, name=f"eg eta={eta}"),
        OnlineGradientDescent(2, eta, name=f"ogd eta={eta}"),
        SoftBayes(2, AnytimeRate(2), name="soft-bayes anytime"),
    ])

    bound = theoretical_bound("thm5", T=T, N=2)
    show("alternating stream", adversarial_alternating(T), [
        ExponentiatedGradient(2, eta, name=f"eg eta={eta}"),
        SoftBayes(2, AnytimeRate(2), name="soft-bayes anytime"),
    ])
    print(f"anytime guarantee at T={T}, N=2: {bound:.3f}")

    show("constant stream + flip round", with_flip_round(adversarial_constant(T)), [
        OnlineGradientDescent(2, eta, name=f"ogd eta={eta}"),
        SoftBayes(2, AnytimeRate(2), name="soft-bayes anytime"),
    ], policy="halt")


if __name__ == "__main__":
    main()
