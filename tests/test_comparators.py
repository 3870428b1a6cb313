import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from softbayes.comparators import (
    best_fixed_mixture,
    best_single_expert,
    disjoint_closed_form,
    regret_report,
    single_expert_losses,
    theoretical_bound,
)
from softbayes.core import ExpertStream
from softbayes.generators import parse_generator, random_iid_instance, rng_from_seed
from softbayes.learners import SoftBayes, run_learner


def grid_oracle_loss(stream, step=0.01):
    """Brute-force best fixed mixture over a grid on the simplex (N <= 3)."""
    P = stream.p
    n = stream.n_experts
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if n == 2:
        mixes = np.stack([ticks, 1.0 - ticks], axis=1)
    elif n == 3:
        g1, g2 = np.meshgrid(ticks, ticks, indexing="ij")
        a1, a2 = g1.ravel(), g2.ravel()
        keep = a1 + a2 <= 1.0 + 1e-12
        mixes = np.stack([a1[keep], a2[keep], np.clip(1.0 - a1[keep] - a2[keep], 0, None)],
                         axis=1)
    else:
        raise ValueError("oracle supports N <= 3")
    A = mixes @ P.T
    with np.errstate(divide="ignore"):
        losses = -np.log(A).sum(axis=1)
    return float(np.min(losses))


class TestBestFixedMixture:
    def test_alternating_dirac(self):
        stream = ExpertStream(np.array([[1, 0], [0, 1], [1, 0], [0, 1]], float))
        sol = best_fixed_mixture(stream)
        # frozen from the 0.01-grid oracle: a* = (0.5, 0.5), loss = 4 ln 2
        np.testing.assert_allclose(sol.a, [0.5, 0.5], atol=1e-9)
        assert sol.loss == pytest.approx(4 * math.log(2), abs=1e-10)
        assert sol.loss <= grid_oracle_loss(stream) + 1e-9
        assert sol.converged

    def test_dominant_expert(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.1, 0.8, size=(30, 3))
        base[:, 0] = base.max(axis=1) + 0.1
        stream = ExpertStream(np.clip(base, 0, 1))
        sol = best_fixed_mixture(stream)
        # handed over to the vertex, whose own certificate is reported
        np.testing.assert_array_equal(sol.a, [1.0, 0.0, 0.0])
        assert sol.gap == pytest.approx(max(0.0, _certificate(stream, sol.a)), abs=1e-12)

    def test_single_round_picks_best_expert(self):
        stream = ExpertStream(np.array([[0.2, 0.6]]))
        sol = best_fixed_mixture(stream)
        np.testing.assert_allclose(sol.a, [0.0, 1.0], atol=1e-9)
        assert sol.loss == pytest.approx(-math.log(0.6), abs=1e-12)

    def test_matches_grid_oracle_on_random_streams(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            stream = ExpertStream(rng.uniform(0.01, 1.0, size=(50, 3)))
            sol = best_fixed_mixture(stream)
            assert sol.loss <= grid_oracle_loss(stream) + 1e-4
            assert sol.loss <= float(single_expert_losses(stream).min()) + 1e-12

    def test_never_worse_than_vertices(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            stream = ExpertStream(rng.uniform(0.0, 1.0, size=(40, 4)).clip(0.001, 1))
            sol = best_fixed_mixture(stream)
            assert sol.loss <= float(single_expert_losses(stream).min()) + 1e-12

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            best_fixed_mixture(ExpertStream(np.zeros((0, 2))))

    def test_zero_loss_is_positive_zero(self):
        # -ln 1 summed is -0.0, which artifacts would print as "-0.0"
        stream = ExpertStream(np.array([[0.0, 1.0]] * 5))
        for loss in (best_single_expert(stream)[1], best_fixed_mixture(stream).loss):
            assert loss == 0.0 and math.copysign(1.0, loss) == 1.0

    def test_non_convergence_reports_flag(self):
        rng = np.random.default_rng(8)
        stream = ExpertStream(rng.uniform(0.01, 1.0, size=(60, 3)))
        sol = best_fixed_mixture(stream, tol=0.0, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        assert sol.gap > 0.0


def _reference_fixed_mixture(stream, tol=1e-10, max_iter=100_000):
    """The solver before the certificate stop: plain multiplicative steps
    over every row until the objective's relative change falls to ``tol``,
    then the vertex handover.  Returns the loss."""
    P = stream.p
    T = len(stream)
    a = np.full(stream.n_experts, 1.0 / stream.n_experts)
    A = P @ a
    obj = float(np.log(A).sum())
    for _ in range(max_iter):
        a = a * (P.T @ (1.0 / A)) / T
        a = a / a.sum()
        A = P @ a
        new_obj = float(np.log(A).sum())
        done = abs(new_obj - obj) <= tol * max(1.0, abs(new_obj))
        obj = new_obj
        if done:
            break
    return min(-obj, best_single_expert(stream)[1])


def _certificate(stream, a):
    """Kuhn-Tucker gap at ``a`` from every row, not the distinct ones:
    T ln max_i g_i with g = P^T (1 / Pa) / T."""
    T = len(stream)
    g = stream.p.T @ (1.0 / (stream.p @ a)) / T
    return T * math.log(g.max())


def _criterion_7_streams():
    return [ExpertStream(rng_from_seed(70_000 + seed).uniform(0.01, 1.0, size=(50, 3)))
            for seed in range(100)]


# random_iid_instance(N, 10^4, 0) for N = 2, 10, 100; the iid-mixture stream
# the old solve overestimated by 1.08e-3 nats; the benchmark's e2e-csv stream
IID_STREAMS = {
    **{f"iid-N{n}": (lambda n=n: random_iid_instance(n, 10_000, 0)) for n in (2, 10, 100)},
    "iid-mixture-seed1": lambda: parse_generator("iid-mixture:N=10,T=20000").build(1),
    "e2e-csv": lambda: parse_generator("iid-mixture:N=10,T=20000").build(6),
}


def _certified_against_reference(stream):
    """Solve, recheck the certificate from every row at the returned
    weights, and compare with the reference; returns both losses."""
    sol = best_fixed_mixture(stream)
    cert = _certificate(stream, sol.a)
    assert sol.converged and cert <= 1e-6
    # each side sums T terms of mean g_i ~ 1 in its own order, and a T-term
    # sum is off by at most T eps / 2 times the sum of its terms (Higham,
    # 2002, ch. 4), so T ln max_i g_i differs by at most T^2 eps
    T = len(stream)
    assert sol.gap == pytest.approx(max(0.0, cert), abs=T * T * np.finfo(float).eps)
    ref = _reference_fixed_mixture(stream)
    # the two sum the same logarithms in different orders
    assert sol.loss <= ref + sol.gap + 1e-12 * abs(ref)
    return sol.loss, ref


def _edge_streams():
    """Streams at the edges of the Newton solve: a singular data Hessian, a
    zero or near-zero expert, one round, every row a tie, a long run, and
    the fit of theorem2:T=20000 without one [1, 0] round, which stalls if a
    Newton direction leaves the simplex by its rounding."""
    rng = rng_from_seed(11)
    p = rng.uniform(0.05, 1.0, size=(200, 3))
    twin, zero, tiny = p.copy(), p.copy(), p.copy()
    twin[:, 2] = twin[:, 1]
    zero[:, 0] = 0.0
    tiny[:, 0] = 1e-300
    tied = np.repeat(rng.uniform(0.05, 1.0, size=(100, 1)), 3, axis=1)
    long_run = np.random.default_rng(77).uniform(0.001, 1.0, size=(5000, 6))
    two_dirac = np.array([[0.0, 1.0]] * 15_000 + [[1.0, 0.0]] * 4_999)
    return [ExpertStream(q) for q in (twin, zero, tiny, np.array([[0.2, 0.7, 0.5]]), tied,
                                      long_run, two_dirac)]


class TestCertifiedSolve:
    @pytest.mark.parametrize("name", sorted(IID_STREAMS))
    def test_iid_streams(self, name):
        loss, ref = _certified_against_reference(IID_STREAMS[name]())
        if name == "iid-mixture-seed1":
            # the relative-change stop left the old solve 1.08e-3 nats high
            assert ref - loss > 1e-3

    def test_small_streams(self):
        for stream in (_criterion_7_streams() + _edge_streams()
                       + [parse_generator("theorem2:T=200").build(),
                          ExpertStream(np.array([[0.0, 1.0]] * 5))]):
            _certified_against_reference(stream)

    def test_row_order_does_not_matter(self):
        stream = random_iid_instance(10, 5_000, 3)
        sol = best_fixed_mixture(stream)
        shuffled = ExpertStream(stream.p[rng_from_seed(5).permutation(len(stream))])
        other = best_fixed_mixture(shuffled)
        assert other.loss == sol.loss
        np.testing.assert_array_equal(other.a, sol.a)
        assert other.iterations == sol.iterations

    def test_duplicated_rows_fold_to_the_same_solve(self):
        stream = random_iid_instance(10, 5_000, 3)
        sol = best_fixed_mixture(stream)
        # each row twice, side by side or as a second copy of the stream
        side_by_side = best_fixed_mixture(ExpertStream(np.repeat(stream.p, 2, axis=0)))
        twice = best_fixed_mixture(ExpertStream(np.tile(stream.p, (2, 1))))
        assert side_by_side.loss == twice.loss
        np.testing.assert_array_equal(side_by_side.a, twice.a)
        # doubling every count doubles the objective and the gap exactly, so
        # at twice the tolerance the iterates are the same bits
        doubled = best_fixed_mixture(ExpertStream(np.tile(stream.p, (2, 1))), tol=2e-6)
        np.testing.assert_array_equal(doubled.a, sol.a)
        assert doubled.loss == 2.0 * sol.loss
        assert doubled.gap == 2.0 * sol.gap
        assert doubled.iterations == sol.iterations

    def test_wide_solve_takes_fewer_cycles_than_the_old_iterations(self):
        # the relative-change stop took 4,681 iterations here and stopped
        # 8.0e-3 nats short
        sol = best_fixed_mixture(random_iid_instance(100, 10_000, 0))
        assert sol.converged
        assert sol.iterations < 4_681

    @pytest.mark.parametrize("n, seed", [(10, 0), (100, 2)])
    def test_ill_conditioned_streams_certify_in_few_steps(self, n, seed):
        # interior, ill-conditioned optima, where one multiplicative step
        # length needs thousands of cycles to certify
        sol = best_fixed_mixture(random_iid_instance(n, 10_000, seed))
        assert sol.converged and sol.gap <= 1e-6
        assert sol.iterations <= 100

    def test_exact_zeros_end_the_solve(self):
        # the barrier keeps the zero expert's weight positive; once the
        # certificate holds, the vertex handover puts the exact zero on it
        sol = best_fixed_mixture(ExpertStream(np.array([[0.0, 1.0]] * 5)))
        np.testing.assert_array_equal(sol.a, [0.0, 1.0])
        assert sol.iterations == 8 and sol.gap == 0.0 and sol.converged

    def test_tol_below_rounding_stops_at_the_step_floor(self):
        # the certificate stalls near 4.4e-12 nats, under its own rounding,
        # where no step of at least 1e-12 raises the objective; each step
        # then halved down to that floor until max_iter ran out
        sol = best_fixed_mixture(random_iid_instance(100, 10_000, 2), tol=0.0, max_iter=300)
        assert sol.iterations < 300 and not sol.converged
        assert sol.gap <= 1e-11
        # the loss that a solve certified within 1e-11 nats reaches
        assert sol.loss == pytest.approx(45934.11659796116, rel=0, abs=1e-9)


# solves the N=100 iid stream and one criterion-4 stream (10^4 distinct
# rows, 18 of 20 weights at 0) and prints each solution's bits
_THREAD_PROBE = """
from softbayes.comparators import best_fixed_mixture
from softbayes.core import ExpertStream
from softbayes.generators import random_iid_instance, rng_from_seed

rng = rng_from_seed(40_000)
p = rng.uniform(0.01, 0.4, size=(10_000, 20))
p[:, :2] = rng.uniform(0.5, 1.0, size=(10_000, 2))
for stream in (random_iid_instance(100, 10_000, 2), ExpertStream(p)):
    sol = best_fixed_mixture(stream)
    print(sol.a.tobytes().hex(), repr(sol.loss), repr(sol.gap), sol.iterations)
"""


def test_same_bits_at_any_blas_thread_count():
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", _THREAD_PROBE], capture_output=True,
                                text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout.splitlines())
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


class TestRegretReport:
    def test_subtraction(self):
        r = regret_report(_FakeTrace(3.0), 2.5)
        assert r.regret == pytest.approx(0.5)

    def test_infinite_when_diverged(self):
        r = regret_report(_FakeTrace(math.inf, diverged=True), 2.5)
        assert math.isinf(r.regret)

    def test_bound_flag(self):
        r = regret_report(_FakeTrace(12.0), 2.0, bound=12.0)
        assert r.bound_satisfied is True
        r = regret_report(_FakeTrace(15.0), 2.0, bound=12.0)
        assert r.bound_satisfied is False

    def test_no_verdict_on_an_undefined_regret(self):
        # a diverged learner against a comparator whose loss is infinite too
        r = regret_report(_FakeTrace(math.inf, diverged=True), math.inf, bound=12.0)
        assert math.isnan(r.regret)
        assert r.bound_satisfied is None

    def test_excluding_diverged_rounds(self):
        trace = _FakeTrace(math.inf, diverged=True, finite=4.0)
        r = regret_report(trace, 3.0, exclude_diverged=True)
        assert r.regret == pytest.approx(1.0)


class _FakeTrace:
    def __init__(self, total, diverged=False, finite=None):
        self.total_loss = total
        self.finite_loss = finite if finite is not None else total
        self.diverged = diverged


class TestTheoreticalBound:
    def test_anytime_value(self):
        assert theoretical_bound("thm5", T=10_000, N=2) == pytest.approx(349.3, abs=0.05)

    def test_single_expert_value(self):
        assert theoretical_bound("single-expert", eta=1.0, prior_entry=1 / 8) == pytest.approx(
            math.log(8), abs=1e-12)

    def test_offline_tuned_value(self):
        got = theoretical_bound("thm2_tuned_n", T=10_000, N=10)
        assert got == pytest.approx(962.0, abs=0.05)

    def test_offline_raw_matches_manual(self):
        eta = 0.01
        eb = eta / (1 - eta)
        manual = math.log(4) / eb + eb * 2 * 1000 + 2 * math.log(2) + math.log(4)
        assert theoretical_bound("thm2", T=1000, N=4, m=2, eta=eta) == pytest.approx(manual)

    def test_min_branches(self):
        small_c1 = theoretical_bound("thm4", T=100, N=4, eta=0.3, c1=0.5)
        assert small_c1 == pytest.approx(0.5)
        big_c1 = theoretical_bound("thm4", T=100, N=4, eta=0.3, c1=1e6)
        assert big_c1 == pytest.approx(math.log(4) / 0.3 + 0.3 * 1e6 / 2 + 0.09 * 100)

    def test_all_variants_evaluate(self):
        values = {
            "thm2": theoretical_bound("thm2", T=100, N=5, m=3, eta=0.1),
            "thm2_tuned_m": theoretical_bound("thm2_tuned_m", T=100, N=5, m=3),
            "thm3_cumulative": theoretical_bound("thm3_cumulative", N=5, eta=0.1, vmax=50.0),
            "thm3_max": theoretical_bound("thm3_max", T=100, N=5, eta=0.1, c2=4.0),
            "thm3_tuned": theoretical_bound("thm3_tuned", T=100, N=5, c2=4.0),
            "thm4_tuned": theoretical_bound("thm4_tuned", T=100, N=5, c1=30.0),
            "thm6": theoretical_bound("thm6", T=100, N=5, m=2),
            "thm7": theoretical_bound("thm7", T=100, N=5, K=3),
        }
        assert all(math.isfinite(v) and v > 0 for v in values.values())

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing"):
            theoretical_bound("thm5", T=100)

    def test_unexpected_parameter(self):
        with pytest.raises(ValueError, match="unexpected"):
            theoretical_bound("thm5", T=100, N=2, m=3)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown"):
            theoretical_bound("thm9", T=1, N=2)


class TestDisjointClosedForm:
    def test_laplace_style(self):
        np.testing.assert_allclose(disjoint_closed_form([2, 0, 0], 2, 3.0, 3),
                                   [0.6, 0.2, 0.2], atol=1e-15)

    def test_kt_style(self):
        np.testing.assert_allclose(disjoint_closed_form([2, 0, 0], 2, 1.5, 3),
                                   [2.5 / 3.5, 0.5 / 3.5, 0.5 / 3.5], atol=1e-15)

    def test_zero_counts_uniform(self):
        np.testing.assert_allclose(disjoint_closed_form([0, 0, 0, 0], 0, 2.0, 4),
                                   [0.25] * 4, atol=1e-15)

    def test_exactly_on_simplex(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            counts = rng.integers(0, 20, size=5)
            out = disjoint_closed_form(counts, int(counts.sum()), 2.5, 5)
            assert abs(out.sum() - 1.0) <= 1e-12

    def test_inconsistent_counts(self):
        with pytest.raises(ValueError, match="sum"):
            disjoint_closed_form([1, 1], 3, 1.0, 2)


class TestDisjointEquivalenceSpot:
    def test_estimator_equivalence_spot(self):
        # two same-symbol rounds then one more: the round-3 mixture equals
        # the add-constant estimate (2 + 1) / (2 + 3) = 0.6
        from softbayes.generators import disjoint_dirac
        from softbayes.rates import InverseT

        stream = disjoint_dirac([1, 1, 1], 3)
        trace = run_learner(SoftBayes(3, InverseT(3.0)), stream)
        assert trace.predictions[2] == pytest.approx(0.6, abs=1e-14)
