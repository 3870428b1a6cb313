"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted as stated.
"""

import math
import time

import numpy as np
import pytest

from softbayes.cli import main
from softbayes.comparators import (
    best_fixed_mixture,
    single_expert_losses,
    theoretical_bound,
)
from softbayes.core import ExpertStream
from softbayes.generators import (
    adversarial_alternating,
    adversarial_constant,
    iid_mixture,
    random_iid_instance,
    rng_from_seed,
    with_flip_round,
)
from softbayes.harness import _comparator_loss, parse_comparator, stream_best_count
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
)
from softbayes.verify import (
    disjoint_equivalence_checks,
    reverse_jensen_checks,
    scalar_inequality_checks,
)

SLACK = 1e-6


def _report(num: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_disjoint_support_exactness():
    t0 = time.perf_counter()
    results = disjoint_equivalence_checks()
    elapsed = time.perf_counter() - t0
    worst = max(float(r.detail.split()[-1]) for r in results)
    ok = all(r.passed for r in results) and elapsed < 1.0
    _report(1, ok, f"add-constant equivalence over 9 (N, c) cells x 20 seeds, "
                   f"max gap {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1 s)")


def test_criterion_2_single_expert_regret():
    t0 = time.perf_counter()
    n, T = 5, 1000
    worst_margin = -math.inf
    for eta in (0.1, 0.5, 1.0):
        for seed in range(50):
            rng = rng_from_seed(20_000 + seed)
            stream = ExpertStream(rng.uniform(0.01, 1.0, size=(T, n)))
            trace = run_learner(SoftBayes(n, FixedRate(eta)), stream)
            regrets = np.log(stream.p / trace.predictions[:, None]).sum(axis=0)
            bound = math.log(n) / eta
            worst_margin = max(worst_margin, float(regrets.max()) - bound)
    elapsed = time.perf_counter() - t0
    ok = worst_margin <= SLACK and elapsed < 5.0
    _report(2, ok, f"single-expert regret <= ln(N)/eta for eta in {{0.1, 0.5, 1.0}} "
                   f"on 150 runs, worst margin {worst_margin:.2e} (<= 1e-6), "
                   f"{elapsed:.2f}s (< 5 s)")


def test_criterion_3_anytime_bound():
    t0 = time.perf_counter()
    failures = []
    stream = adversarial_alternating(10_000)
    trace = run_learner(SoftBayes(2, AnytimeRate(2)), stream)
    regret_a = trace.total_loss - best_fixed_mixture(stream).loss
    bound_2 = theoretical_bound("thm5", T=10_000, N=2)
    if not regret_a <= bound_2 + SLACK:
        failures.append(("alternating", regret_a, bound_2))
    worst_ratio = regret_a / bound_2
    for n in (2, 10):
        bound = theoretical_bound("thm5", T=10_000, N=n)
        for seed in range(10):
            s = random_iid_instance(n, 10_000, seed=seed)
            r = run_learner(SoftBayes(n, AnytimeRate(n)), s).total_loss - best_fixed_mixture(s).loss
            worst_ratio = max(worst_ratio, r / bound)
            if not r <= bound + SLACK:
                failures.append((f"iid n={n} seed={seed}", r, bound))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(3, ok, f"anytime-rate regret within bound (~349.3 at N=2) on the "
                   f"adversarial stream and 20 seeded iid streams, worst "
                   f"regret/bound {worst_ratio:.3f}, {elapsed:.2f}s (< 10 s); "
                   f"failures: {failures or 'none'}")


def test_criterion_4_sparse_bound():
    t0 = time.perf_counter()
    T, n, m = 10_000, 20, 2
    bound = theoretical_bound("thm6", T=T, N=n, m=m)
    failures = []
    worst_ratio = -math.inf
    for seed in range(20):
        rng = rng_from_seed(40_000 + seed)
        p = rng.uniform(0.01, 0.4, size=(T, n))
        p[:, :m] = rng.uniform(0.5, 1.0, size=(T, m))
        stream = ExpertStream(p)
        assert stream_best_count(stream) == m
        r = run_learner(SoftBayes(n, SparseRate(n)), stream).total_loss \
            - best_fixed_mixture(stream).loss
        worst_ratio = max(worst_ratio, r / bound)
        if not r <= bound + SLACK:
            failures.append((seed, r, bound))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(4, ok, f"sparse-rate regret within bound on 20 streams where only "
                   f"{m} of {n} experts are ever best, worst regret/bound "
                   f"{worst_ratio:.3f}, {elapsed:.2f}s (< 10 s); failures: "
                   f"{failures or 'none'}")


def test_criterion_5_shifting_bound():
    t0 = time.perf_counter()
    T, n, K = 5000, 5, 3
    bound = theoretical_bound("thm7", T=T, N=n, K=K)
    segments = parse_comparator("shifting=1668,3335")
    mixes = ([0.7, 0.1, 0.1, 0.05, 0.05],
             [0.05, 0.7, 0.1, 0.1, 0.05],
             [0.05, 0.05, 0.1, 0.1, 0.7])
    failures = []
    worst_ratio = -math.inf
    for seed in range(5):
        rng = rng_from_seed(50_000 + seed)
        dists = rng.dirichlet(np.ones(6), size=n)
        parts = [iid_mixture(a, dists, 1667 if k < 2 else 1666, seed=51_000 + 10 * seed + k)
                 for k, a in enumerate(mixes)]
        stream = parts[0].concat(parts[1]).concat(parts[2])
        trace = run_learner(SoftBayes(n, ShiftingRate(n)), stream)
        r = trace.total_loss - _comparator_loss(segments, stream, False)[0]
        worst_ratio = max(worst_ratio, r / bound)
        if not r <= bound + SLACK:
            failures.append((seed, r, bound))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(5, ok, f"shifting-rate regret vs 3-segment comparator within bound "
                   f"({bound:.0f}), worst regret/bound {worst_ratio:.3f}, "
                   f"{elapsed:.2f}s (< 10 s); failures: {failures or 'none'}")


def test_criterion_6_eg_ogd_failure():
    t0 = time.perf_counter()
    # EG's wrong-expert weight collapses exponentially on the constant stream
    eg = run_learner(ExponentiatedGradient(2, eta=0.5), adversarial_constant(100))
    w_a_51 = float(eg.weights[49, 0])
    eg_decay_ok = w_a_51 <= math.exp(-25)

    # on the alternating stream EG blows up past the bound soft-Bayes meets
    stream = adversarial_alternating(100)
    eg_trace = run_learner(ExponentiatedGradient(2, eta=0.5), stream, "continue")
    comparator = best_fixed_mixture(stream).loss
    eg_regret = eg_trace.total_loss - comparator
    single_round = float(eg_trace.losses[51])  # round T/2 + 2
    sb_trace = run_learner(SoftBayes(2, AnytimeRate(2)), stream)
    sb_regret = sb_trace.total_loss - comparator
    sb_bound = theoretical_bound("thm5", T=100, N=2)
    eg_ok = eg_regret >= 12.5 and single_round >= 12.5
    sb_ok = sb_regret <= sb_bound + SLACK

    # OGD walks onto the vertex, then the flip round has infinite loss
    flip = with_flip_round(adversarial_constant(100))
    ogd_trace = run_learner(OnlineGradientDescent(2, eta=0.5), flip, "halt")
    flip_comparator = best_fixed_mixture(flip).loss
    ogd_regret = ogd_trace.total_loss - flip_comparator
    ogd_ok = ogd_trace.diverged and math.isinf(ogd_regret)

    elapsed = time.perf_counter() - t0
    ok = eg_decay_ok and eg_ok and sb_ok and ogd_ok and elapsed < 1.0
    _report(6, ok, f"EG w_a(51)={w_a_51:.2e} <= exp(-25), EG regret "
                   f"{eg_regret:.1f} >= 12.5 (round-52 loss {single_round:.1f}), "
                   f"soft-Bayes regret {sb_regret:.2f} <= {sb_bound:.1f}, OGD "
                   f"diverged={ogd_trace.diverged}, {elapsed:.2f}s (< 1 s)")


def test_criterion_7_comparator_solver():
    t0 = time.perf_counter()
    from test_comparators import grid_oracle_loss

    worst_gap = -math.inf
    vertex_violation = -math.inf
    for seed in range(100):
        rng = rng_from_seed(70_000 + seed)
        stream = ExpertStream(rng.uniform(0.01, 1.0, size=(50, 3)))
        sol = best_fixed_mixture(stream)
        worst_gap = max(worst_gap, sol.loss - grid_oracle_loss(stream, 0.01))
        vertex_violation = max(vertex_violation,
                               sol.loss - float(single_expert_losses(stream).min()))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-4 and vertex_violation <= 0.0 and elapsed < 30.0
    _report(7, ok, f"solver within 1e-4 of the 0.01-grid oracle on 100 streams "
                   f"(worst gap {worst_gap:.2e}) and never above any single "
                   f"expert (worst excess {vertex_violation:.2e}), "
                   f"{elapsed:.2f}s (< 30 s)")


def test_criterion_8_invariant_fuzz():
    t0 = time.perf_counter()
    inequality_results = (scalar_inequality_checks(samples=100_000, seed=81)
                          + reverse_jensen_checks(samples=100_000, seed=82))
    inequalities_ok = all(r.passed for r in inequality_results)

    schedules = {
        "anytime": lambda n: AnytimeRate(n),
        "sparse": lambda n: SparseRate(n),
        "shifting": lambda n: ShiftingRate(n),
        "self-confident": lambda n: SelfConfidentRate(n),
    }
    n, T = 4, 250
    run_failures = []
    for label, make in schedules.items():
        for seed in range(100):
            rng = rng_from_seed(80_000 + seed)
            P = rng.uniform(0.0, 1.0, size=(T, n))
            P[P.max(axis=1) == 0.0, 0] = 0.5
            learner = SoftBayes(n, make(n))
            for row in P:
                w_pre = learner.weights
                eta_t = learner.current_rate
                # one-row blocks, so the state is read after every round
                (m,), _, _, (w,), _ = learner.step_block(row[None])
                eta_next = learner.current_rate
                if abs(w.sum() - 1.0) > 1e-9:
                    run_failures.append((label, seed, "normalization"))
                    break
                floor = learner.prior * (1.0 - eta_next / eta_t)
                if not np.all(w >= floor - 1e-12):
                    run_failures.append((label, seed, "restart floor"))
                    break
                lhs = np.log(1.0 - eta_t + eta_t * row / m)
                rhs = np.log(w / w_pre) + math.log(eta_t / eta_next)
                if not np.all(lhs <= rhs + 1e-10):
                    run_failures.append((label, seed, "telescoping"))
                    break
    elapsed = time.perf_counter() - t0
    ok = inequalities_ok and not run_failures and elapsed < 30.0
    _report(8, ok, f"scalar + reverse-Jensen suites on 1e5 samples (slack "
                   f"1e-12) and normalization/restart/telescoping on 100 runs "
                   f"per online schedule, {elapsed:.2f}s (< 30 s); failures: "
                   f"{run_failures or 'none'}; "
                   f"{[r.line() for r in inequality_results if not r.passed] or 'all inequalities hold'}")


def test_criterion_9_determinism(tmp_path):
    args = [
        "run",
        "--generator", "iid-mixture:N=5,T=500",
        "--learner", "soft-bayes:anytime",
        "--learner", "soft-bayes:self-confident",
        "--learner", "ml-soft-bayes",
        "--learner", "meta:rates=1,0.5,0.25",
        "--comparator", "fixed-mixture",
        "--bound", "thm5",
        "--seed", "90",
        "--on-divergence", "continue",
    ]
    artifacts = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        json_path = tmp_path / f"{tag}.json"
        code = main(args + ["--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 0
        artifacts.append((csv_path.read_bytes(), json_path.read_bytes()))
    ok = artifacts[0] == artifacts[1]
    _report(9, ok, "repeated runs with identical config and seed produce "
                   f"byte-identical CSV ({len(artifacts[0][0])} bytes) and "
                   f"JSON ({len(artifacts[0][1])} bytes) artifacts")
