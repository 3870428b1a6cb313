#!/usr/bin/env python3
"""Check the paper's robustness and guarantee claims in one report.

robustness  EG and OGD beside anytime soft-Bayes on two Dirac experts:
  constant     expert 2 is always right; watch EG starve expert 1's weight
               exponentially and OGD walk onto the vertex.
  alternating  expert 2 is right for the first half, then correctness
               alternates; EG's regret blows up the moment expert 1 first
               becomes good, while anytime soft-Bayes stays within its bound.
  flip         the constant stream plus one round where only expert 1 is
               right, run under halt: OGD's vertex weights give that round
               probability zero, so its loss (and regret) is infinite.
guarantees  soft-Bayes under each online schedule (plus a horizon-tuned
            constant rate) over seeded i.i.d. mixture streams: mean and max
            regret beside the closed-form bound.

Every row names its stream, learner, regret, bound, regret/bound and the
bound variant it checks (``theoretical_bound``'s name; "-" where the learner
has none).  A guarantees row's ratio is the largest over its streams, and its
bound is that stream's.
"""

import argparse
import math

import numpy as np

from softbayes.comparators import best_fixed_mixture, regret_report, theoretical_bound
from softbayes.generators import (
    adversarial_alternating,
    adversarial_constant,
    random_iid_instance,
    with_flip_round,
)
from softbayes.harness import stream_best_count
from softbayes.learners import (
    ExponentiatedGradient,
    OnlineGradientDescent,
    SoftBayes,
    run_learner,
)
from softbayes.rates import (
    AnytimeRate,
    FixedRate,
    SelfConfidentRate,
    ShiftingRate,
    SparseRate,
    rate_offline,
)


def regret(learner, stream, comparator, policy="continue"):
    """The learner's trace over ``stream`` and its regret to ``comparator``."""
    # only the losses are read, so the trace keeps only the last weight row
    trace = run_learner(learner, stream, policy, every=len(stream))
    return trace, regret_report(trace, comparator).regret


def row(stream, learner, width, cells, theorem, note=""):
    """Print one table line, its learner padded to ``width``: a number at
    three decimals, inf as "inf" and a missing bound (or ratio) as "-"; a
    string cell is printed as it is."""
    text = (c if isinstance(c, str) else "-" if c is None else "inf" if math.isinf(c)
            else f"{c:.3f}" for c in cells)
    print(f"{stream:<12} {learner:<{width}} {' '.join(f'{c:>11}' for c in text)}  "
          f"{theorem:<10} {note}".rstrip())


def robustness(T, eta):
    stream = adversarial_constant(T)
    t = T // 2
    w = run_learner(ExponentiatedGradient(2, eta), stream).weights[t - 1, 0]
    print(f"== robustness: 2 Dirac experts, T={T} (flip: T+1), EG and OGD at eta={eta} ==")
    print(f"EG weight on the always-wrong expert after {t} rounds: "
          f"{w:.3e} (<= exp(-{eta * t:.0f}) = {math.exp(-eta * t):.3e})")
    eg = lambda: ExponentiatedGradient(2, eta, name=f"eg:fixed={eta}")
    ogd = lambda: OnlineGradientDescent(2, eta, name=f"ogd:fixed={eta}")
    anytime = lambda: SoftBayes(2, AnytimeRate(2), name="soft-bayes:anytime")
    width = max(len(label) for label in ("learner", *(make().name for make in (eg, ogd, anytime))))
    row("stream", "learner", width, ("comparator", "loss", "regret", "bound", "ratio"),
        "theorem", "notes")
    for label, s, learners, policy in (
            ("constant", stream, (eg, ogd, anytime), "continue"),
            ("alternating", adversarial_alternating(T), (eg, anytime), "continue"),
            ("flip", with_flip_round(adversarial_constant(T)), (ogd, anytime), "halt")):
        comparator = best_fixed_mixture(s).loss
        for make in learners:
            trace, r = regret(make(), s, comparator, policy)
            bound = theoretical_bound("thm5", T=len(s), N=2) if make is anytime else None
            ratio = None if bound is None else r / bound
            row(label, trace.name, width, (comparator, trace.total_loss, r, bound, ratio),
                "-" if bound is None else "thm5", "diverged" if trace.diverged else "")


def guarantees(T, n, seeds):
    streams = [random_iid_instance(n, T, seed) for seed in range(seeds)]
    comparators = [best_fixed_mixture(s).loss for s in streams]
    m = max(stream_best_count(s) for s in streams)
    eta = rate_offline(T, n)
    # label -> (schedule factory, bound variant, its parameters past T and N given the run's schedule)
    schedules = {
        f"fixed:{eta!r}": (lambda: FixedRate(eta), "thm2", lambda _: {"m": m, "eta": eta}),
        "anytime": (lambda: AnytimeRate(n), "thm5", lambda _: {}),
        "sparse": (lambda: SparseRate(n), "thm6", lambda _: {"m": m}),
        "shifting": (lambda: ShiftingRate(n), "thm7", lambda _: {"K": 1}),
        "self-confident": (lambda: SelfConfidentRate(n), "thm4_tuned", lambda s: {"c1": s.C1}),
    }
    print(f"\n== guarantees: N={n}, T={T}, {seeds} seeded iid streams, worst best-set size m={m} ==")
    width = max(len(label) for label in ("learner", *(f"soft-bayes:{s}" for s in schedules)))
    row("stream", "learner", width, ("mean regret", "max regret", "bound", "max ratio"), "theorem")
    for label, (make, theorem, params) in schedules.items():
        regrets, bounds = [], []
        for s, comparator in zip(streams, comparators):
            schedule = make()
            regrets.append(regret(SoftBayes(n, schedule), s, comparator)[1])
            bounds.append(theoretical_bound(theorem, T=T, N=n, **params(schedule)))
        ratios = [r / b for r, b in zip(regrets, bounds)]
        worst = ratios.index(max(ratios))
        row("iid-mixture", f"soft-bayes:{label}", width,
            (np.mean(regrets), max(regrets), f"{bounds[worst]:.2f}", ratios[worst]), theorem)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--T", type=int, default=2000, help="rounds in every stream (even)")
    parser.add_argument("--eta", type=float, default=0.5, help="EG/OGD rate")
    parser.add_argument("--n", type=int, default=5, help="experts in the iid streams")
    parser.add_argument("--seeds", type=int, default=10, help="iid stream count")
    args = parser.parse_args()
    if args.T < 2 or args.T % 2:
        parser.error(f"argument --T: must be even and at least 2, got {args.T}")
    if not 0.0 < args.eta < math.inf:
        parser.error(f"argument --eta: must be positive and finite, got {args.eta!r}")
    # N >= 2 is where every bound in the table is defined
    for name, least in (("n", 2), ("seeds", 1)):
        if getattr(args, name) < least:
            parser.error(f"argument --{name}: must be at least {least}, "
                         f"got {getattr(args, name)}")
    robustness(args.T, args.eta)
    guarantees(args.T, args.n, args.seeds)


if __name__ == "__main__":
    main()
