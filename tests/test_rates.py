import math

import numpy as np
import pytest

from softbayes.rates import (
    RATE_CAP,
    AnytimeRate,
    BestSetTracker,
    FixedRate,
    InverseT,
    ScheduleConfig,
    SelfConfidentRate,
    ShiftingRate,
    SparseRate,
    parse_schedule,
    rate_offline,
)


class TestOfflineRate:
    def test_tuned_value(self):
        eta = rate_offline(10_000, 10, m=10)
        eta_bar = eta / (1 - eta)
        assert eta_bar == pytest.approx(4.7985e-3, rel=1e-4)
        assert eta == pytest.approx(4.7756e-3, rel=1e-4)

    def test_m_defaults_to_n(self):
        assert rate_offline(500, 7, m=7) == rate_offline(500, 7)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            rate_offline(10, 4, m=5)
        with pytest.raises(ValueError):
            rate_offline(10, 4, m=0)

    def test_in_unit_interval(self):
        for T in (1, 10, 10_000):
            for n in (2, 5, 100):
                assert 0.0 < rate_offline(T, n) < 1.0


class TestAnytimeRate:
    def test_values(self):
        sched = AnytimeRate(2)
        assert sched.rate(1) == pytest.approx(0.41628, abs=5e-6)
        assert sched.rate(100) == pytest.approx(0.041628, abs=5e-7)

    def test_ratio_identity(self):
        sched = AnytimeRate(5)
        for t in (1, 7, 999):
            assert sched.rate(t + 1) / sched.rate(t) == pytest.approx(
                math.sqrt(t / (t + 1)), abs=1e-12)

    def test_strictly_decreasing(self):
        sched = AnytimeRate(3)
        rates = [sched.rate(t) for t in range(1, 500)]
        assert all(b < a for a, b in zip(rates, rates[1:]))


class TestSparseRate:
    def test_values(self):
        # two experts best before round 5: sqrt(ln 10 / 20) evaluated directly
        sched = SparseRate(10)
        sched.tracker.best.update({0, 3})
        assert sched.rate(5) == pytest.approx(0.3393070212, abs=1e-9)
        # the raw sqrt(ln 2 / 2) = 0.58871 at t = 1 is capped
        assert SparseRate(2).rate(1) == RATE_CAP

    def test_full_set_reduces_to_anytime(self):
        sched = SparseRate(6)
        sched.tracker.best.update(range(6))
        for t in (2, 10, 100):
            assert sched.rate(t) == AnytimeRate(6).rate(t)

    def test_schedule_caps_inside_unit_interval(self):
        # raw formula exceeds 1 at t=1, m=1 once ln N > 2
        assert math.sqrt(math.log(20) / 2.0) > 1.0
        assert SparseRate(20).rate(1) == RATE_CAP


class TestShiftingRate:
    def test_values(self):
        sched = ShiftingRate(2)
        # sqrt(ln 2 / 4) * ln 4 evaluated directly
        assert sched.rate(1) == pytest.approx(0.5770828814, abs=1e-9)
        # sqrt(ln 2 / 400) * ln 103 evaluated directly
        assert sched.rate(100) == pytest.approx(0.1929332495, abs=1e-9)

    def test_at_most_three_fifths(self):
        for n in (2, 3, 10, 1000):
            sched = ShiftingRate(n)
            for t in (1, 2, 3, 10, 100, 10_000):
                assert sched.rate(t) <= 0.6

    def test_strictly_decreasing_exhaustive(self):
        t = np.arange(1, 1_000_001)
        r = np.sqrt(math.log(2) / (2 * 2 * t)) * np.log(t + 3)
        assert np.all(np.diff(r) < 0)

    def test_emitted_rates_strictly_decrease(self):
        # ShiftingRate has no non-increase guard; the rates it emits must
        # decrease on their own
        for n in (2, 10, 1000):
            sched = ShiftingRate(n)
            r = [sched.rate(t) for t in range(1, 200_002)]
            assert all(b < a for a, b in zip(r, r[1:]))


class TestSelfConfidentRate:
    def test_value(self):
        sched = SelfConfidentRate(2)
        sched.C1 = 10.0
        assert sched.rate(1) == pytest.approx(0.37233, abs=5e-6)

    def test_zero_stat_clamps_to_cap(self):
        assert SelfConfidentRate(2, eta_max=0.5).rate(1) == 0.5

    def test_ratio_clamp(self):
        # raw next/current ratio 0.999 vs sqrt(400/401): the sqrt clamp wins
        eta_prev = 0.3
        sched = SelfConfidentRate(2, eta_max=0.5)
        sched.C1 = 2 * math.log(2) / (0.999 * eta_prev) ** 2
        sched.eta_prev = eta_prev
        got = sched.rate(401)
        assert got == pytest.approx(eta_prev * math.sqrt(400 / 401), rel=1e-12)
        assert got < eta_prev * 0.999
        assert sched.eta_prev == got

    def test_emitted_sequence_strictly_decreasing(self):
        rng = np.random.default_rng(3)
        sched = SelfConfidentRate(4)
        prev = sched.rate(1)
        for t in range(1, 300):
            p = rng.random(4)
            sched.observe(t, p, float(p.mean()))
            nxt = sched.rate(t + 1)
            assert 0.0 < nxt < prev
            prev = nxt

    def test_c1_increments_nonnegative(self):
        rng = np.random.default_rng(9)
        sched = SelfConfidentRate(5)
        last = 0.0
        for t in range(1, 200):
            p = rng.random(5)
            w = rng.dirichlet(np.ones(5))
            sched.observe(t, p, float(w @ p))
            assert sched.C1 >= last - 1e-15
            last = sched.C1


class TestBestSetTracker:
    def test_tie_between_uncounted_picks_lowest_index(self):
        tracker = BestSetTracker()
        tracker.update([0.3, 0.7, 0.7])
        assert tracker.best == {1}
        assert tracker.m == 1

    def test_tie_prefers_already_counted(self):
        tracker = BestSetTracker()
        tracker.best.add(2)
        tracker.update([0.3, 0.7, 0.7])
        assert tracker.best == {2}

    def test_m_starts_at_one(self):
        assert BestSetTracker().m == 1

    def test_m_counts_every_row_seen(self):
        tracker = BestSetTracker()
        sizes = []
        for p in [[0.9, 0.1, 0.0], [0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.1, 0.9]]:
            tracker.update(p)
            sizes.append(tracker.m)
        assert tracker.best == {0, 1, 2}
        assert sizes == [1, 1, 2, 3]

    @staticmethod
    def _reference_update(best, p):
        """The rule as it was first written: the lowest counted tie, else
        the lowest tie, enters if it is not counted yet."""
        q = np.asarray(p, dtype=float)
        ties = np.nonzero(q == q.max())[0]
        counted = [int(i) for i in ties if int(i) in best]
        pick = min(counted) if counted else int(ties[0])
        best.add(pick)

    @pytest.mark.parametrize("seed", range(6))
    def test_tie_heavy_stream_matches_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        tracker = BestSetTracker()
        # odd seeds start from a tracker with experts already counted
        if seed % 2:
            tracker.best.update(int(i) for i in rng.choice(5, 2, replace=False))
        reference = set(tracker.best)
        for p in rng.choice([0.0, 0.5, 1.0], size=(200, 5)):
            tracker.update(p)
            self._reference_update(reference, p)
            assert tracker.best == reference
        assert all(type(i) is int for i in tracker.best)

    def test_monotone_growth(self):
        rng = np.random.default_rng(11)
        tracker = BestSetTracker()
        sizes = []
        for _ in range(99):
            tracker.update(rng.random(6))
            sizes.append(tracker.m)
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= 6


@pytest.mark.parametrize("n", [2, 7, 16, 17])
def test_a_list_row_and_a_numpy_row_leave_the_same_statistics(n):
    # observe(t, p, M) is shown a list of floats, and reads a numpy row alike;
    # on tie-heavy rows with signed zeros both leave every statistic alike
    rng = np.random.default_rng(n)
    P = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0], size=(400, n))
    M = P.mean(axis=1)
    as_list = SparseRate(n), SelfConfidentRate(n)
    as_array = SparseRate(n), SelfConfidentRate(n)
    for t, (p, m) in enumerate(zip(P, M.tolist()), start=1):
        for sched in as_list:
            sched.observe(t, p.tolist(), m)
        for sched in as_array:
            sched.observe(t, p, m)
    (sparse, confident), (sparse_np, confident_np) = as_list, as_array
    assert sparse.tracker.best == sparse_np.tracker.best
    assert all(type(i) is int for i in sparse_np.tracker.best)
    assert len(sparse.tracker.best) > 1
    assert confident.C1 == confident_np.C1 > 0.0


class TestInverseT:
    def test_rate_identity(self):
        for c in (1.0, 1.5, 3.0):
            sched = InverseT(c)
            for t in range(2, 50):
                eta_t = sched.rate(t)
                assert eta_t / (1 - eta_t) == pytest.approx(sched.rate(t - 1), rel=1e-14)

    @pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_offset_outside_positive_finite(self, c):
        # c = inf would emit rate 0 in every round
        with pytest.raises(ValueError, match="inverse-t offset"):
            InverseT(c)

    def test_no_correction(self):
        assert InverseT(2.0).applies_correction is False
        assert FixedRate(0.5).applies_correction is False


class TestEmittedRanges:
    @pytest.mark.parametrize("make", [
        lambda n: AnytimeRate(n),
        lambda n: SparseRate(n),
        lambda n: ShiftingRate(n),
        lambda n: SelfConfidentRate(n),
    ])
    @pytest.mark.parametrize("n", [2, 3, 20, 100])
    def test_online_schedules_emit_in_unit_interval_nonincreasing(self, make, n):
        rng = np.random.default_rng(n)
        sched = make(n)
        prev = sched.rate(1)
        assert 0.0 < prev < 1.0
        for t in range(1, 200):
            p = rng.random(n)
            sched.observe(t, p, float(p.mean()))
            r = sched.rate(t + 1)
            assert 0.0 < r < 1.0
            assert r <= prev + 1e-15
            prev = r


@pytest.mark.parametrize("make", [
    lambda: InverseT(1.0),
    lambda: AnytimeRate(2),
    lambda: SparseRate(2),
    lambda: ShiftingRate(2),
    lambda: SelfConfidentRate(2),
])
def test_round_zero_rejected(make):
    with pytest.raises(ValueError, match="t must be >= 1"):
        make().rate(0)


class TestParseSchedule:
    def test_round_trips(self):
        assert parse_schedule("fixed:0.5") == ScheduleConfig("fixed", 0.5)
        assert parse_schedule("fixed=0.5") == ScheduleConfig("fixed", 0.5)
        assert parse_schedule("inverse-t:3") == ScheduleConfig("inverse-t", 3.0)
        assert parse_schedule("anytime") == ScheduleConfig("anytime")
        assert parse_schedule("sparse") == ScheduleConfig("sparse")
        assert parse_schedule("shifting") == ScheduleConfig("shifting")
        assert parse_schedule("self-confident") == ScheduleConfig("self-confident")
        assert parse_schedule("self-confident:0.4") == ScheduleConfig("self-confident", 0.4)

    def test_builds(self):
        assert isinstance(parse_schedule("anytime").build(3), AnytimeRate)
        assert isinstance(parse_schedule("fixed:1.0").build(3), FixedRate)

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_schedule("fixed")
        with pytest.raises(ValueError):
            parse_schedule("anytime:3")
        with pytest.raises(ValueError):
            parse_schedule("warp")
        with pytest.raises(ValueError):
            parse_schedule("fixed:1.5").build(2)
