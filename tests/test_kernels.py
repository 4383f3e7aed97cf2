"""The lockstep kernels must match the scalar reference loops bit for bit.

tests/kernel_reference.py keeps the one-start-at-a-time loops the
kernels replaced.  Every case here runs both and compares the full
output: counts, the handed-back starts and their order, and the sigma
and peak arrays with their -2 guards.  Cases are chosen to reach each
per-lane stopping rule (resolution, the int64 handback, the step or
jump budget) and to straddle the LANES and SCAN_LANES block boundaries.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from collatz_lab import _kernels
from collatz_lab._kernels import LANES, SCAN_LANES
from collatz_lab.sieve import build_table, k_step

_TABLES = {}


def _table(k):
    if k not in _TABLES:
        _TABLES[k] = build_table(k)
    return _TABLES[k]


def _with_qmax(k, qmax):
    t = _table(k)
    return t if qmax is None else dataclasses.replace(t, qmax=qmax)


def _span_args(k, b0, b1, max_jumps, qmax=None):
    return (b0, b1, _with_qmax(k, qmax), max_jumps)


def _same_span(*args):
    got = _kernels.verify_span(*args)
    want = ref.verify_span(*args)
    assert got[0] == want[0]
    assert got[1].dtype == np.int64
    assert np.array_equal(got[1], want[1])
    assert next(got[2], None) is None  # every start is below 2^63
    return got[:2]


def _dense_args(k, n0, n1, max_jumps, qmax=None):
    return (n0, n1, _with_qmax(k, qmax), max_jumps)


def _same_dense(*args):
    got = _kernels.verify_dense(*args)
    want = ref.verify_dense(*args)
    assert got[0] == want[0]
    assert got[1].dtype == np.int64
    assert np.array_equal(got[1], want[1])
    assert next(got[2], None) is None  # every start is below 2^63
    return got[:2]


def _scan_arrays(hi, max_steps, cap=ref.INT64_MAX, exact=None, on_fold=None):
    """sigma and peak1 over [0, hi] rebuilt from scan_sigma_peak's fold, in the reference's form.

    peaks_below = hi + 1 keeps every full peak, for a whole-array
    comparison.  The returned undecided starts must be the -2 ones.
    on_fold, if given, is called with each block's sigma.
    """
    sigma = np.full(hi + 1, -1, np.int64)
    peak1 = np.zeros(hi + 1, np.int64)
    sigma[1:2] = 0
    peak1[1:2] = 1

    def fold(a, sig, peak):
        sigma[a:a + sig.size] = sig
        peak1[a:a + sig.size] = peak
        if on_fold is not None:
            on_fold(sig)

    undecided, = _kernels.scan_sigma_peak(hi, max_steps, cap, exact, fold, peaks_below=hi + 1)
    assert undecided.dtype == np.int64
    assert np.array_equal(undecided, np.flatnonzero(sigma == -2))
    return sigma, peak1


def _same_scan(hi, max_steps, cap=ref.INT64_MAX, on_fold=None):
    sigma, peak1 = _scan_arrays(hi, max_steps, cap, on_fold=on_fold)
    want_sigma, want_peak1 = ref.scan_sigma_peak(hi, max_steps, cap)
    assert np.array_equal(sigma, want_sigma)
    assert np.array_equal(peak1, want_peak1)
    return sigma, peak1


def test_scan_sigma_peak_matches_reference():
    _same_scan(2000, 10**6)


def test_scan_sigma_peak_known_values():
    sigma, peak1 = _scan_arrays(30, 10**6)
    assert sigma[1] == 0
    assert sigma[2] == 1
    assert sigma[3] == 5
    assert sigma[27] == 70
    assert peak1[27] == 4616
    assert peak1[4] == 2
    # totals below 10^6 stay in the hundreds, so the fold reads the
    # window's int16 counts from every block, across both slides
    dtypes = set()
    _kernels.scan_sigma_peak(10**6, 10**6, fold=lambda a, sig, peak: dtypes.add(sig.dtype))
    assert dtypes == {np.dtype(np.int16)}


def test_scan_sigma_peak_tiny_ranges():
    for hi in (0, 1, 2, 3):
        _same_scan(hi, 10**6)


def test_scan_sigma_peak_step_budget_guards():
    # Small budgets mark slow starts -2, and every start whose tail
    # lands on a guarded one, including chains inside one block, and
    # every start whose walk fits the budget but whose total does not.
    for max_steps in (0, 1, 2, 7, 40):
        sigma, _ = _same_scan(3000, max_steps)
        assert (sigma[2:] == -2).any()
        assert sigma.max() <= max_steps


def test_scan_sigma_peak_value_caps():
    # A walk above cap is undecided, and so is every start that falls to it.
    for cap in (0, 1, 2, 4095, 4615, 4616, 10**5):
        sigma, peak1 = _same_scan(3000, 10**6, cap)
        assert peak1.max() <= max(cap, 1)
        assert (sigma[27] == -2) == (cap < 4616)


def test_scan_sigma_peak_cap_handback_needs_no_exact_walk():
    # Below the int64 guard's reach every handback steps past cap.
    def exact(n):
        raise AssertionError(n)

    undecided, = _kernels.scan_sigma_peak(3000, 10**6, 2**62, exact=exact)
    assert undecided.size == 0
    undecided, = _kernels.scan_sigma_peak(3000, 10**6, 4615, exact=exact)
    assert 27 in undecided


def test_scan_sigma_peak_across_lane_blocks():
    # Later blocks read tails from earlier ones, and the window slides.
    sigma, _ = _same_scan(2 * LANES + 500, 10**6)
    assert (sigma[1:] >= 0).all()


def test_scan_sigma_peak_folds_walk_peaks():
    # fold sees every block once, in order, with the full peak below
    # peaks_below and the walk's peak, up to its first iterate below
    # the start, above it.
    hi, below = 2 * SCAN_LANES + 500, 1000
    want_sigma, want_peak1 = ref.scan_sigma_peak(hi, 10**6)
    seen = []
    peak1 = np.zeros(below, np.int64)
    peak1[1] = 1

    def fold(a, sigma, peak):
        seen.append(a)
        assert np.array_equal(sigma, want_sigma[a:a + sigma.size])
        peak1[a:below] = peak[:max(below - a, 0)]
        for i in range(0, sigma.size, 97):
            n = a + i
            want = want_peak1[n]
            if n >= below:
                x, want = n, 0
                while x >= n:
                    x = (3 * x + 1) >> 1 if x & 1 else x >> 1
                    want = max(want, x)
            assert peak[i] == want, n

    _kernels.scan_sigma_peak(hi, 10**6, fold=fold, peaks_below=below)
    assert seen == [2, 2 + SCAN_LANES, 2 + 2 * SCAN_LANES]
    assert np.array_equal(peak1, want_peak1[:below])


def test_scan_sigma_peak_int64_guard(monkeypatch):
    # Lowering the guard makes the handback reachable at small starts.
    monkeypatch.setattr(_kernels, "_OVF", 5000)
    sigma, peak1 = _scan_arrays(4000, 10**6)
    want_sigma, want_peak1 = ref.scan_sigma_peak(4000, 10**6, ovf=5000)
    assert np.array_equal(sigma, want_sigma)
    assert np.array_equal(peak1, want_peak1)
    assert (sigma == -2).any() and (sigma > 0).any()
    guarded = set(np.flatnonzero(sigma == -2).tolist())
    # exact decides each start handed back, and the starts that fall to it follow
    handed = []

    def exact(n):
        handed.append(n)
        steps, _, peak, _ = ref.descend(n, ref.DEFAULT_LIMITS)
        return steps, peak

    sigma, peak1 = _scan_arrays(4000, 10**6, exact=exact)
    want_sigma, want_peak1 = ref.scan_sigma_peak(4000, 10**6)
    assert np.array_equal(sigma, want_sigma)
    assert np.array_equal(peak1, want_peak1)
    # only handed-back lanes are walked; the rest of the -2 starts above fell to one
    assert set(handed) < guarded


def _count_slides(monkeypatch):
    """Patch _Window.fit to count the slides it makes; returns the running count."""
    slides = [0]
    real = _kernels._Window.fit

    def fit(win, a, b):
        base = win.base
        real(win, a, b)
        slides[0] += win.base != base

    monkeypatch.setattr(_kernels._Window, "fit", fit)
    return slides


def _small_window(monkeypatch):
    # 64-start blocks in a window of half the range plus one block: a
    # scan of a few thousand starts slides it several times.  int8
    # counts hold totals up to 127, so the first larger total, 150 at
    # 2463, widens the window part way through the scan.
    monkeypatch.setattr(_kernels, "SCAN_LANES", 64)
    monkeypatch.setattr(_kernels, "WINDOW_EIGHTHS", 4)
    monkeypatch.setattr(_kernels, "_COUNTS", np.int8)
    slides = _count_slides(monkeypatch)
    folds = []  # (slides so far, sigma dtype) of each block passed to fold

    def on_fold(sig):
        folds.append((slides[0], sig.dtype))

    return slides, folds, on_fold


def _widened_between_slides(folds):
    """Whether the folds' counts went int8 to int64 once, with slides on both sides."""
    wide = [dtype == np.int64 for _, dtype in folds]
    first = wide.index(True) if True in wide else len(wide)
    return (all(wide[first:]) and 0 < first < len(wide)
            and 0 < folds[first][0] < folds[-1][0])


def test_scan_window_slides_and_widens_match_reference(monkeypatch):
    slides, folds, on_fold = _small_window(monkeypatch)
    sigma, _ = _same_scan(3000, 10**6, on_fold=on_fold)
    assert slides[0] >= 3
    assert _widened_between_slides(folds)
    assert {dtype for _, dtype in folds} == {np.dtype(np.int8), np.dtype(np.int64)}
    for max_steps in (0, 1, 2, 7, 40, 10**6):
        for cap in (0, 1, 2, 4095, 4615, 4616, 10**5, ref.INT64_MAX):
            slides[0] = 0
            folds.clear()
            sigma, _ = _same_scan(3000, max_steps, cap, on_fold=on_fold)
            assert slides[0] >= 3
            assert _widened_between_slides(folds) == (sigma.max() > 127)


def test_scan_window_widens_on_exact_totals(monkeypatch):
    # exact's totals widen the window too, and chains through them stay exact
    slides, folds, on_fold = _small_window(monkeypatch)
    monkeypatch.setattr(_kernels, "_OVF", 5000)
    handed = []

    def exact(n):
        handed.append(n)
        steps, _, peak, _ = ref.descend(n, ref.DEFAULT_LIMITS)
        return steps, peak

    sigma, peak1 = _scan_arrays(4000, 10**6, exact=exact, on_fold=on_fold)
    want_sigma, want_peak1 = ref.scan_sigma_peak(4000, 10**6)
    assert np.array_equal(sigma, want_sigma)
    assert np.array_equal(peak1, want_peak1)
    assert 2463 in handed  # the first total past int8 comes from exact
    assert slides[0] >= 3
    assert _widened_between_slides(folds)


@pytest.mark.parametrize("hi", [100, 3000, 2 * LANES + 500])
def test_scan_window_slides_at_most_twice_at_five_eighths(monkeypatch, hi):
    slides = _count_slides(monkeypatch)
    monkeypatch.setattr(_kernels, "SCAN_LANES", 64)
    _kernels.scan_sigma_peak(hi, 10**6)
    assert slides[0] == (2 if hi > 100 else 0)



def _same_walks(lo, hi, max_steps, cap=ref.INT64_MAX, ovf=_kernels._OVF):
    """_walks' (steps, target, peak) of every start of [lo, hi] against first_dip."""
    blocks = []
    for a, b, *lanes in _kernels._walks(lo, hi, max_steps, cap):
        want = np.array([ref.first_dip(n, max_steps, cap, ovf) for n in range(a, b)],
                        np.int64).reshape(-1, 3)
        assert np.array_equal(np.stack(lanes, axis=1), want), (a, b)
        blocks.append((a, b, want))
    assert [a for a, _, _ in blocks] == list(range(lo, hi + 1, SCAN_LANES))
    assert blocks[-1][1] == hi + 1
    return blocks


def _settled(starts, max_steps, lim):
    """Which starts the stop table settles, read from the table one start at a time."""
    stop, _, _, slope, off = _kernels._stop_table()
    w = _kernels.STOP_BITS
    out = []
    for n in starts:
        a, r = n >> w, n & ((1 << w) - 1)
        out.append(a >= 1 and 0 < stop[r] <= max_steps and slope[r] * a + off[r] <= lim)
    return np.array(out)


def test_stop_table_matches_the_plain_walk_of_every_start_to_2_18():
    w = _kernels.STOP_BITS
    blocks = _same_walks(1 << w, 1 << 18, 10**6)
    # the table settles almost every start; each one it settles dips
    starts = np.arange(1 << w, (1 << 18) + 1)
    settled = _settled(starts.tolist(), 10**6, _kernels._OVF)
    assert settled.mean() > 0.9
    steps = np.concatenate([want[:, 0] for _, _, want in blocks])
    assert (steps[settled] > 0).all()



def test_stop_table_entries_are_the_classes_with_a_coefficient_stop():
    # Every residue whose coefficient 3^c_j / 2^j falls below 1 within W
    # steps gets an entry: the drop and steepest-form checks exclude none
    # at this width.  Its stop is that first j.
    w = _kernels.STOP_BITS
    stop = _kernels._stop_table()[0]
    first = np.zeros(1 << w, np.int64)
    for r in range(1 << w):
        x, c = r, 0
        for j in range(1, w + 1):
            c += x & 1
            x = (3 * x + 1) >> 1 if x & 1 else x >> 1
            if 3**c < 2**j:
                first[r] = j
                break
    assert np.array_equal(stop, first)
    assert np.count_nonzero(stop) == 3870  # of 4096 at W = 12

@pytest.mark.parametrize("lo", [2**40, 10**12, 2**62 + 5, 2**63 - (1 << 16)])
def test_stop_table_matches_the_plain_walk_far_out(lo):
    # near 2^63 the int64 guard sends most table lanes to dip
    _same_walks(lo, lo + (1 << 16) - 1, 10**6)


def test_stop_table_under_budgets_caps_and_a_lowered_guard(monkeypatch):
    # Lowering _OVF puts the peaks of table lanes past the guard, so
    # those lanes must walk, and dip hands them back.
    lo, hi = (1 << _kernels.STOP_BITS) - 300, (3 << _kernels.STOP_BITS) + 77
    for ovf in (_kernels._OVF, 20_000):
        monkeypatch.setattr(_kernels, "_OVF", ovf)
        for max_steps in (0, 1, 2, 7, 40, 10**6):
            for cap in (0, 1, 2, 4095, 4615, 4616, 10**5, ref.INT64_MAX):
                _same_walks(lo, hi, max_steps, cap, ovf)
    # some lanes the default guard settles are handed back under 20,000
    starts = list(range(1 << _kernels.STOP_BITS, hi + 1))
    steps = np.array([ref.first_dip(n, 10**6, ovf=20_000)[0] for n in starts])
    assert ((steps == 0) & _settled(starts, 10**6, ref.INT64_MAX)).any()


@pytest.mark.parametrize("lanes", [1000, 1 << 12, LANES])
def test_walks_batch_blocks_into_dip_calls_of_at_most_lanes(monkeypatch, lanes):
    # blocks of SCAN_LANES starts; a dip call takes up to two blocks' worth of lanes
    monkeypatch.setattr(_kernels, "SCAN_LANES", lanes)
    sizes = []
    real = _kernels.dip
    monkeypatch.setattr(_kernels, "dip", lambda n, *args: sizes.append(n.size) or real(n, *args))
    hi = 2 * LANES + 500
    _same_scan(hi, 10**6)
    assert max(sizes) <= 2 * lanes
    assert len(sizes) < -(-(hi - 1) // lanes)  # fewer dip calls than blocks


def test_stop_table_is_built_at_first_use_not_at_import():
    code = ("import collatz_lab.cli\n"
            "from collatz_lab import _kernels\n"
            "assert _kernels._stop_table.cache_info().currsize == 0\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)

def test_verify_dense_matches_reference():
    checked, unresolved = _same_dense(*_dense_args(12, 1, 4096, 10_000))
    assert checked == 4096
    assert unresolved.size == 0


def test_verify_dense_budgets_and_windows():
    for n0, n1 in ((1, 3000), (500, 2500), (900, 1000), (7, 7)):
        for k in (1, 8, 12):
            for max_jumps in (0, 1, 2, 5, 30):
                _same_dense(*_dense_args(k, n0, n1, max_jumps))


def test_verify_dense_across_lane_blocks():
    lo = 10**6
    _same_dense(*_dense_args(8, lo, lo + LANES + 77, 10_000))
    _same_dense(*_dense_args(8, lo, lo + LANES + 77, 3))


def test_verify_dense_int64_guard():
    # A lowered qmax makes the handback reachable at small starts, and
    # the top of int64 reaches the real one.
    qmax = _table(8).qmax // (1 << 48)
    checked, unresolved = _same_dense(*_dense_args(8, 1, 3000, 10_000, qmax))
    assert 0 < unresolved.size < checked
    top = 2**63 - 1
    checked, unresolved = _same_dense(*_dense_args(12, top - 300, top, 10_000))
    assert 0 < unresolved.size < checked == 301


def test_verify_span_matches_reference():
    checked, unresolved = _same_span(*_span_args(8, 1, 64, 10_000))
    assert checked == 63 * _table(8).survivors.size
    assert unresolved.size == 0


def test_verify_span_overflow_starts_are_handed_back_identically():
    # qmax forces the bail-out path; the kernel must bail on the same
    # starts as the scalar loop rather than wrap.
    big = int(_table(4).qmax[4])
    checked, unresolved = _same_span(*_span_args(4, big, big + 1, 5))
    assert unresolved.size > 0


def test_verify_span_starved_budget():
    # max_jumps=1 allows only one jump, whose result is never tested.
    for max_jumps in (0, 1, 2):
        _same_span(*_span_args(8, 1, 64, max_jumps))


def test_verify_span_windows_above_one():
    # the whole spans sieve._plan_chunks plans for [1000, 9000],
    # [300, 5000] and [5 * 2^10, 9 * 2^10]
    _same_span(*_span_args(8, 4, 35, 10_000))
    _same_span(*_span_args(8, 2, 19, 10_000))
    _same_span(*_span_args(10, 5, 9, 10_000))


def test_verify_span_lowered_qmax_hands_back_mid_orbit():
    t = _table(8)
    qmax = t.qmax // (1 << 40)
    checked, unresolved = _same_span(*_span_args(8, 1, 64, 10_000, qmax))
    assert 0 < unresolved.size < checked


def test_verify_span_across_lane_blocks():
    width = int(_table(8).survivors.size)
    spans = LANES // width + 3
    b0 = 1 << 20
    _same_span(*_span_args(8, b0, b0 + spans, 10_000))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 12),
    b0=st.integers(0, 1 << 30),
    nspans=st.integers(0, 6),
    max_jumps=st.integers(0, 40),
    qshift=st.integers(0, 50),
)
def test_verify_span_property(k, b0, nspans, max_jumps, qshift):
    qmax = _table(k).qmax >> qshift
    _same_span(*_span_args(k, b0, b0 + nspans, max_jumps, qmax))


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 12),
    n0=st.integers(1, 1 << 40) | st.integers(1, 2**63 - 1),
    length=st.integers(0, 400),
    max_jumps=st.integers(0, 40),
    qshift=st.integers(0, 50),
)
def test_verify_dense_property(k, n0, length, max_jumps, qshift):
    n1 = min(n0 + length - 1, 2**63 - 1)
    qmax = _table(k).qmax >> qshift
    _same_dense(*_dense_args(k, n0, n1, max_jumps, qmax))


_I64 = (-(2**63), 2**63 - 1)


@settings(max_examples=300, deadline=None)
@example(a=3, b=-(2**62), top=2**63 - 1)
@example(a=-3, b=2**62, top=2**63 - 1)
@example(a=5, b=1, top=(2 << 20) - 1)
@given(
    a=st.integers(-40, 40) | st.integers(-(2**64), 2**64),
    b=st.integers(-(2**64), 2**64) | st.integers(-40, 40),
    top=st.integers(1, 2**63 - 1) | st.integers(1, 10**6),
)
def test_map_table_guard_keeps_the_step_inside_int64(a, b, top):
    # Every x in [1, guard] has a*x and a*x + b inside int64 and
    # a*x + b <= top; for a > 0 with int64 coefficients the guard is the
    # largest such x.
    def fits(x):
        return (_I64[0] <= a * x <= _I64[1] and _I64[0] <= a * x + b <= _I64[1]
                and a * x + b <= top)

    table = _kernels.map_table(2, [(a, b), (1, 0)], (), top)
    g = int(table.guard[0])
    assert g >= -1
    if g >= 1:
        assert fits(1) and fits(g)
        assert (int(table.a[0]), int(table.b[0])) == (a, b)
    if 0 < a <= _I64[1] and _I64[0] <= b <= top and g < _I64[1]:
        assert not fits(g + 1)
    assert int(_kernels.map_table(2, [(a, b), (1, 0)], {0}, top).guard[0]) == -1


def test_dip_reports_the_first_iterate_in_the_window():
    # 3x+1 on [20, 40) with floor 10: 20 -> 10 dips at step 1; 27 walks
    # far above and is handed back at the cap; 32 -> 16 dips.
    table = _kernels.map_table(2, [(1, 0), (3, 1)], (), _kernels._INT64_MAX)
    n = np.arange(20, 40, dtype=np.int64)
    steps, target, peak = _kernels.dip(n, table, 10, 50)
    for j, start in enumerate(range(20, 40)):
        x, t, pk = start, 0, 0
        while t < 50:
            x = (3 * x + 1) // 2 if x & 1 else x // 2
            t += 1
            pk = max(pk, x)
            if 10 <= x < start:
                break
        else:
            t = 0
        assert steps[j] == t, start
        if t:
            assert (target[j], peak[j]) == (x, pk), start
    assert steps[27 - 20] == 0
    assert not _kernels.dip(n, table, 10, 50, min_live=21)[0].any()


def test_limb_bits_is_the_widest_safe_limb(limb_tables):
    for k, table in limb_tables.items():
        b = _kernels.limb_bits(table)
        s_max = int(table.s.max())

        def safe(b):
            return ((1 << b) - 1) * 3**k + s_max + (1 << (63 - b)) <= 2**63 - 1

        assert k <= b <= 62 and safe(b) and not safe(b + 1)
    assert _kernels.limb_bits(limb_tables[24]) == 24


def _open_positions(starts, table, max_jumps):
    """The open positions of jump_limbs over the starts' int_blocks, as positions in starts."""
    out, at = [], 0
    for base, off in _kernels.int_blocks(starts):
        got = _kernels.jump_limbs(base, off, table, max_jumps)
        assert got.dtype == np.int64
        out += (got + at).tolist()
        at += off.size
    assert at == len(starts)
    return np.array(out, np.int64)


@pytest.mark.parametrize("lanes", [16, 1 << 14])
@pytest.mark.parametrize("k, b0", [(12, 1), (12, (1 << 51) - 3), (16, 1 << 80)])
def test_span_blocks_list_every_survivor_in_order(k, b0, lanes, monkeypatch):
    # Windows at q = 1, just below the k=12 cut of 2^63 (q = 2^51) and
    # at 2^80, where no start fits an int64 lane.
    monkeypatch.setattr(_kernels, "VERIFY_LANES", lanes)
    table = _table(k)
    survivors = table.survivors.tolist()
    b1 = b0 + 3
    got = []
    for base, off in _kernels.span_blocks(b0, b1, table):
        assert off.dtype == np.int64 and 0 < off.size <= lanes
        assert base % (1 << k) == 0 and 0 <= off.min() and off.max() < 1 << (k + 15)
        got += [base + i for i in off.tolist()]
    assert got == [(q << k) + r for q in range(b0, b1) for r in survivors]


@pytest.mark.parametrize("lanes", [16, 1 << 14])
@pytest.mark.parametrize("kind, k, lo, hi", [
    ("dense", 16, 2**63 - 20000, 2**63 + 100),
    ("dense", 12, 2**63 - 5, 2**63 + 40),
    ("dense", 12, 2**63, 2**63 + 40),
    ("spans", 12, (2**63 >> 12) - 2, (2**63 >> 12) + 2),
    ("spans", 16, (2**63 >> 16) - 1, (2**63 >> 16) + 3),
])
def test_verify_kernels_hand_on_every_start_above_int64(kind, k, lo, hi, lanes, monkeypatch):
    # Windows across 2^63 (and one above it): the int64 part matches the
    # scalar loop, and the rest lists every start >= 2^63 in order.
    monkeypatch.setattr(_kernels, "VERIFY_LANES", lanes)
    table = _table(k)
    if kind == "dense":
        out = _kernels.verify_dense(lo, hi, table, 50)
        starts = list(range(lo, hi + 1))
        want = ref.verify_dense(lo, 2**63 - 1, table, 50)
    else:
        out = _kernels.verify_span(lo, hi, table, 50)
        starts = [(q << k) + r for q in range(lo, hi) for r in table.survivors.tolist()]
        want = ref.verify_span(lo, 2**63 >> k, table, 50)
    rest = list(out[2])
    assert all(off.dtype == np.int64 and 0 < off.size <= lanes for _, off in rest)
    big = [base + i for base, off in rest for i in off.tolist()]
    assert big == [n for n in starts if n >= 2**63]
    assert out[0] + len(big) == len(starts)
    assert out[0] == want[0] and np.array_equal(out[1], want[1])


@pytest.mark.parametrize("k", [1, 12, 20, 24])
@pytest.mark.parametrize("case", ["carry", "hand-backs"])
def test_jump_limbs_adds_the_limbs_of_base_and_off(limb_tables, k, case):
    table = limb_tables[k]
    if case == "carry":
        # base = 2^(2B) - 5 has limbs (2^B - 5, 2^B - 1, 0): adding off >= 5
        # to limb 0 carries through limb 1 into limb 2.
        base = (1 << (2 * _kernels.limb_bits(table))) - 5
        off = np.arange(12, dtype=np.int64)
    else:
        # A verify chunk passes its int64 hand-backs as (0, off), with off
        # up to 2^63 - 1 and 1 and 2 in the same block.
        base = 0
        off = np.array([2**63 - 1, 1, 2**63 - 25, 2, 27, 2**62 + 3], np.int64)
    starts = [base + i for i in off.tolist()]
    for max_jumps in range(8):
        got = _kernels.jump_limbs(base, off, table, max_jumps)
        assert np.array_equal(got, ref.jump_limbs(starts, k, max_jumps))


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([1, 12, 16, 20, 24]),
    base=st.sampled_from([2**62, 2**63, 2**64, 2**68, 2**90]),
    offset=st.integers(-300, 300),
    edge=st.booleans(),
    length=st.integers(0, 150),
    cut=st.integers(0, 150),
    max_jumps=st.integers(0, 12),
)
# 1 and 2 share a base-0 block with starts just below 2^62
@example(k=20, base=2**62, offset=-300, edge=False, length=150, cut=60, max_jumps=12)
@example(k=20, base=2**62, offset=-300, edge=False, length=150, cut=60, max_jumps=0)
def test_jump_limbs_property(limb_tables, k, base, offset, edge, length, cut, max_jumps):
    # A lane's fate depends on its own walk alone: the reference walks
    # every start one step at a time.  An edge window ends at
    # 2^(m * B) - 1, the top of m full limbs, so a block starts with one
    # spare limb above its largest start.  Starts 1 and 2 sit after the
    # first cut starts of the window.
    table = limb_tables[k]
    b = _kernels.limb_bits(table)
    if edge:
        base, offset = (1 << (b * -(-base.bit_length() // b))) - length, -(abs(offset) % 8)
    starts = list(range(base + offset, base + offset + length))
    starts = starts[:cut] + [2, 1] + starts[cut:]
    got = _open_positions(starts, table, max_jumps)
    assert np.array_equal(got, ref.jump_limbs(starts, k, max_jumps))


@pytest.mark.parametrize("k", [1, 20, 24])
def test_jump_limbs_widens_on_top_limb_carry(limb_tables, k):
    # 2^m - 1 takes m odd steps in a row to 3^m - 1, so its orbit rises
    # by about 0.585 m bits.  At m around 2B, 3B and 4B that outgrows
    # the spare limb a block starts with, and the block must widen, one
    # or more times, rather than lose the lane.  Each start is tried
    # with budgets that end just before and just after the jump at which
    # it falls below itself, in one block and in a block of its own.
    table = limb_tables[k]
    b = _kernels.limb_bits(table)
    ms = [j * b + d for j in (1, 2, 3, 4) for d in (-1, 0, 1)]
    starts = [(1 << m) - 1 for m in ms]
    stops, outgrown = set(), 0
    for m, n in zip(ms, starts):
        x, top, t = n, (-(-m // b) + 1) * b, 0
        while x >= n:
            x, t = k_step(table, x), t + 1
            outgrown += x.bit_length() > top
        stops |= {t, t + 1}
    assert outgrown
    for max_jumps in sorted(stops):
        want = ref.jump_limbs(starts, k, max_jumps)
        assert np.array_equal(_open_positions(starts, table, max_jumps), want)
        alone = [i for i, n in enumerate(starts)
                 if _open_positions([n], table, max_jumps).size]
        assert alone == want.tolist()
