"""Tests for orbit statistics: stopping times, ratios, censuses, record scans."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import kernel_reference as ref
from collatz_lab import (
    CensusAnomalyError,
    IterationLimits,
    block_census,
    count_reaching_one,
    gamma,
    gamma_from_trajectory,
    iterate,
    one_ratio,
    parity_vector,
    rho,
    rho_from_trajectory,
    scan_records,
    stats,
    stopping_time,
    total_stopping_time,
)
from collatz_lab.maps import TABLE_BASE, t_map, t_step
from collatz_lab.trajectory import DEFAULT_LIMITS


class TestTotalStoppingTime:
    def test_small_values(self):
        assert total_stopping_time(1) == 0
        assert total_stopping_time(2) == 1
        assert total_stopping_time(3) == 5
        assert total_stopping_time(27) == 70

    def test_powers_of_two(self):
        for m in range(1, 20):
            assert total_stopping_time(2**m) == m

    def test_large_anchors(self):
        assert total_stopping_time(TABLE_BASE) == 529
        assert total_stopping_time(10**35) == 481
        assert total_stopping_time(10**36) == 351

    def test_budget_exhaustion_gives_none(self):
        assert total_stopping_time(27, IterationLimits(max_steps=10, max_bits=4096)) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            total_stopping_time(0)


class TestStoppingTime:
    def test_one_never_drops(self):
        assert stopping_time(1) == math.inf

    def test_evens_drop_immediately(self):
        for n in (2, 4, 100, 2**40):
            assert stopping_time(n) == 1

    def test_known_odd_values(self):
        assert stopping_time(3) == 4  # 3 -> 5 -> 8 -> 4 -> 2
        assert stopping_time(7) == 7
        assert stopping_time(27) == 59

    def test_stopping_no_later_than_total(self):
        for n in range(2, 400):
            assert stopping_time(n) <= total_stopping_time(n)


class TestOneRatio:
    def test_exact_fraction_for_table_base(self):
        assert one_ratio(TABLE_BASE) == Fraction(255, 529)

    def test_small_cases(self):
        # 27 makes 41 odd moves out of 70.
        assert one_ratio(27) == Fraction(41, 70)
        assert one_ratio(2) == Fraction(0, 1)

    def test_start_of_one_has_no_ratio(self):
        assert one_ratio(1) is None


class TestRhoGamma:
    def test_rho_of_27(self):
        assert rho(27) == math.log(4616) / math.log(27)
        assert rho(27) == pytest.approx(2.559982, abs=1e-5)

    def test_rho_ignores_values_below_start(self):
        # 4 -> 2 -> 1 never rises, peak after start is 2... the peak of
        # the tail is max over steps 1..sigma, here 2.
        assert rho(4) == pytest.approx(math.log(2) / math.log(4))

    def test_rho_published_record_near_two(self):
        # Largest-known-class example: an orbit whose peak is about the
        # square of its 61-bit start.
        assert rho(1980976057694848447) == pytest.approx(2.04982, abs=5e-5)

    def test_gamma_of_27(self):
        assert gamma(27) == pytest.approx(70 / math.log(27), abs=1e-9)
        assert gamma(27) == pytest.approx(21.2389, abs=1e-3)

    def test_gamma_large_record(self):
        assert gamma(7219136416377236271195) == pytest.approx(36.716917, abs=1e-4)

    def test_undefined_below_two(self):
        assert rho(1) is None
        assert gamma(1) is None

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_nonpositive(self, n):
        # as total_stopping_time does; only n = 1 is undefined
        with pytest.raises(ValueError):
            rho(n)
        with pytest.raises(ValueError):
            gamma(n)

    def test_from_trajectory_agrees(self):
        traj = iterate(t_map(), 27)
        assert rho_from_trajectory(traj) == rho(27)
        assert gamma_from_trajectory(traj) == gamma(27)


class TestParityVector:
    def test_known_prefix(self):
        # 27 -> 41 -> 62 -> 31 -> 47: odd, odd, even, odd ...
        assert parity_vector(27, 4) == (1, 1, 0, 1)

    def test_length_matches_request(self):
        assert len(parity_vector(12345, 20)) == 20

    def test_depends_only_on_residue(self):
        k = 12
        m = 1 << k
        for n in (5, 77, 1023, 10**30 + 17):
            assert parity_vector(n, k) == parity_vector(n % m, k)

    def test_zero_start_is_all_even(self):
        assert parity_vector(0, 8) == (0,) * 8


class TestBlockCensus:
    def test_table_base_rows(self):
        census = block_census(TABLE_BASE, 100)
        got = [(r.sigma, r.count, str(r.ratio)) for r in census.rows]
        assert got == [
            (529, 38, "255/529"),
            (659, 28, "337/659"),
            (678, 7, "349/678"),
            (846, 27, "455/846"),
        ]
        assert census.anomalies == ()
        assert census.unknown_offsets == ()
        assert len(census.sigmas) == 100

    def test_small_block_has_ratio_anomalies(self):
        # sigma 6 is shared by 21 (one odd move out of six) and 6 (two),
        # so equal totals do not force equal ratios down here.
        census = block_census(1, 100)
        assert census.anomalies != ()
        sigmas = {s for s, _ in census.anomalies}
        assert 6 in sigmas

    def test_strict_ratio_raises_on_anomaly(self):
        with pytest.raises(CensusAnomalyError):
            block_census(1, 100, strict_ratio=True)

    def test_strict_ratio_passes_clean_block(self):
        census = block_census(TABLE_BASE, 100, strict_ratio=True)
        assert census.rows

    def test_counts_add_up(self):
        census = block_census(1000, 250)
        assert sum(r.count for r in census.rows) == 250

    def test_unknown_offsets_under_tiny_budget(self):
        census = block_census(27, 3, IterationLimits(max_steps=5, max_bits=4096))
        assert 0 in census.unknown_offsets
        assert census.sigmas[0] == -1


# A fixed 6000-bit start, whose orbit takes 28,081 steps to 1.
BIG_START = random.Random(6000).getrandbits(6000) | 1 << 5999
DESCEND_STARTS = (
    list(range(1, 2**13 + 1))
    + [n for base in (10**35, 10**36, TABLE_BASE) for n in range(base, base + 1000)]
    + [2**127 - 1, BIG_START]
    # With K = 10: a jump from 90589's orbit would beat the peak if it
    # were let through at b + G = peak.bit_length(), and one from
    # 893 * 2^31 - 1's would cross below the start if x >> (K-1) >= n
    # were enough.
    + [90589, 893 * 2**31 - 1]
)
K = stats.JUMP_K


@pytest.mark.parametrize("limits", [DEFAULT_LIMITS] + [
    IterationLimits(max_steps=s, max_bits=b)
    for s in (0, 1, K - 1, K, K + 1, 59, 60, 300)
    for b in (0, 1, 8, 64, 127, 128, 130, 4096)
], ids=lambda lim: "steps%d-bits%d" % (lim.max_steps, lim.max_bits))
def test_descend_matches_the_one_step_walk(limits):
    # Budgets at a jump's edges: a jump may end on max_steps or within
    # max_bits, never past either, and every field must agree.
    for n in DESCEND_STARTS:
        assert stats._descend(n, limits) == ref.descend(n, limits), n


def test_descend_takes_most_steps_in_jumps(monkeypatch):
    single = 0

    def counted(x):
        nonlocal single
        single += 1
        return t_step(x)

    monkeypatch.setattr(stats, "t_step", counted)
    steps = stats._descend(BIG_START, DEFAULT_LIMITS)[0]
    assert steps == 28081
    assert single < steps / 4


class TestCountReachingOne:
    def test_everything_reaches_one_below_a_million(self):
        reach = count_reaching_one(10**6)
        assert reach.count == 10**6
        assert reach.unknown == ()

    def test_tiny_range(self):
        reach = count_reaching_one(10)
        assert reach.count == 10


class TestScanRecords:
    def test_gamma_champion_in_small_range(self):
        scan = scan_records(2, 100)
        assert scan.gamma_records[-1][0] == 27
        assert scan.gamma_records[-1][1] == pytest.approx(21.2389, abs=1e-3)

    def test_rho_records_start_small(self):
        scan = scan_records(2, 100)
        assert scan.rho_records[0][0] == 2
        assert scan.rho_records[-1][0] == 27
        assert scan.rho_records[-1][1] == pytest.approx(2.559982, abs=1e-5)

    def test_peak_record_is_27(self):
        scan = scan_records(2, 100)
        assert scan.peak_records[-1] == (27, 4616)

    def test_gamma_record_holder_below_a_million(self):
        scan = scan_records(2, 10**6)
        assert scan.gamma_records[-1][0] == 837799
        assert scan.threshold_count == 549260
        assert scan.unknown == ()

    def test_records_strictly_increase(self):
        scan = scan_records(2, 10**4)
        gvals = [v for _, v in scan.gamma_records]
        assert gvals == sorted(gvals)
        assert len(set(gvals)) == len(gvals)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            scan_records(1, 100)
        with pytest.raises(ValueError):
            scan_records(50, 10)


@pytest.mark.parametrize("lo,hi,max_steps", [
    (2, 3, 10**6), (2, 20_000, 10**6), (777, 70_000, 10**6), (2, 5000, 40), (300, 5000, 7),
    (3, 70_000, 10**6), (40_000, 90_000, 10**6), (65_537, 140_000, 10**6), (3, 3000, 50),
    (1000, 3000, 50),
])
def test_record_tables_match_the_loops(lo, hi, max_steps):
    # The oracle walks every start of [1, hi] to 1 with the scalar scan
    # and descend, keeps every full peak, and builds the tables with
    # Python loops; the scan folds walk peaks block by block.  The
    # ranges cross 2 * lo, below which full peaks are kept, and the
    # LANES block boundaries at 2 + LANES and 2 + 2 * LANES.
    limits = IterationLimits(max_steps, 10**5)
    want = ref.scan_records(lo, hi, limits=limits)
    assert scan_records(lo, hi, limits=limits) == want
    assert all(lo <= n <= hi for n in want.unknown)
    sigma = ref.scan_exact(hi, limits)[0][1:]
    reach = count_reaching_one(hi, limits)
    assert reach.count == (sigma >= 0).sum()
    assert reach.unknown == tuple((sigma < 0).nonzero()[0] + 1)


@pytest.mark.parametrize("max_steps", [0, 1, 7, 40, 50, 10**6])
@pytest.mark.parametrize("max_bits", [0, 1, 12, 20, 10**5])
def test_scans_decide_each_start_as_descend_does(max_steps, max_bits):
    # A start is decided exactly when its total is within max_steps and
    # no iterate after it has more than max_bits bits, inherited totals
    # included; 1 takes no step and is always decided.
    hi = 1 << 12
    limits = IterationLimits(max_steps, max_bits)
    want = [-2 if s is None else s
            for s, _, _, _ in (ref.descend(n, limits) for n in range(1, hi + 1))]
    assert ref.scan_exact(hi, limits)[0][1:].tolist() == want
    sigma = [0] * hi  # rebuilt from the fold; 1 takes no step

    def fold(a, sig, _):
        sigma[a - 1:a - 1 + sig.size] = sig.tolist()

    undecided = stats._scan(hi, limits, fold=fold)
    assert sigma == want
    assert undecided.tolist() == [n for n, s in enumerate(want, 1) if s < 0]
    reach = count_reaching_one(hi, limits)
    assert reach.count == sum(s >= 0 for s in want)
    assert reach.unknown == tuple(n for n, s in enumerate(want, 1) if s < 0)
    assert scan_records(2, hi, limits=limits) == ref.scan_records(2, hi, limits=limits)


def test_record_scan_memory_does_not_grow_with_the_range():
    # Only the step counts stay per start (int32 under the default
    # budget, 8 MB here); a full-range int64 peak array would add 16 MB.
    tracemalloc.start()
    try:
        scan_records(2, 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20


def test_record_scan_keeps_a_window_of_int16_counts():
    # The step counts live as int16 in a window of about 5/8 of the
    # range (2.5 MB here), not as a full-range array.
    tracemalloc.start()
    try:
        scan_records(2, 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
