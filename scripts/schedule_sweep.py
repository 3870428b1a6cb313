#!/usr/bin/env python3
"""Empirical regret of every rate schedule against its guarantee.

Runs soft-Bayes under each online schedule (plus a horizon-tuned constant
rate) over seeded i.i.d. mixture streams and prints mean/max regret next to
the matching closed-form bound.
"""

import argparse

import numpy as np

from softbayes.comparators import best_fixed_mixture, theoretical_bound
from softbayes.generators import random_iid_instance
from softbayes.harness import stream_best_count
from softbayes.learners import SoftBayes, run_learner
from softbayes.rates import (
    AnytimeRate,
    FixedRate,
    SelfConfidentRate,
    ShiftingRate,
    SparseRate,
    rate_offline,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=5, help="experts")
    parser.add_argument("--T", type=int, default=2000, help="rounds")
    parser.add_argument("--seeds", type=int, default=10, help="stream count")
    args = parser.parse_args()
    # N >= 2 and T >= 2 are where every bound in the table is defined
    for name, least in (("n", 2), ("T", 2), ("seeds", 1)):
        if getattr(args, name) < least:
            parser.error(f"argument --{name}: must be at least {least}, "
                         f"got {getattr(args, name)}")
    n, T = args.n, args.T

    streams = [random_iid_instance(n, T, seed) for seed in range(args.seeds)]
    comparators = [best_fixed_mixture(s).loss for s in streams]
    m = max(stream_best_count(s) for s in streams)

    eta_offline = rate_offline(T, n)
    schedules = {
        f"fixed:{eta_offline:.4f}": (lambda: FixedRate(eta_offline),
                                     theoretical_bound("thm2", T=T, N=n, m=m, eta=eta_offline)),
        "anytime": (lambda: AnytimeRate(n), theoretical_bound("thm5", T=T, N=n)),
        "sparse": (lambda: SparseRate(n), theoretical_bound("thm6", T=T, N=n, m=m)),
        "shifting": (lambda: ShiftingRate(n), theoretical_bound("thm7", T=T, N=n, K=1)),
        "self-confident": (lambda: SelfConfidentRate(n), None),
    }

    print(f"N={n}, T={T}, {args.seeds} streams, worst best-set size m={m}")
    print(f"{'schedule':<16} {'mean regret':>12} {'max regret':>12} {'bound':>12} {'max/bound':>10}")
    for label, (make, bound) in schedules.items():
        regrets = []
        for stream, comp in zip(streams, comparators):
            # only the loss is read, so the trace keeps only the last weight row
            trace = run_learner(SoftBayes(n, make()), stream, every=len(stream))
            regrets.append(trace.total_loss - comp)
        regrets = np.asarray(regrets)
        btxt = f"{bound:12.2f}" if bound is not None else f"{'-':>12}"
        ratio = f"{regrets.max() / bound:10.3f}" if bound is not None else f"{'-':>10}"
        print(f"{label:<16} {regrets.mean():12.3f} {regrets.max():12.3f} {btxt} {ratio}")


if __name__ == "__main__":
    main()
