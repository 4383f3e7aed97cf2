"""The lockstep kernels must match the scalar reference loops bit for bit.

tests/kernel_reference.py keeps the one-start-at-a-time loops the
kernels replaced.  Every case here runs both and compares the full
output: counts, the handed-back starts and their order, and the sigma
and peak arrays with their -2 guards.  Cases are chosen to reach each
per-lane stopping rule (resolution, the int64 handback, the step or
jump budget) and to straddle the LANES block boundary.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from collatz_lab import _kernels
from collatz_lab._kernels import LANES
from collatz_lab.sieve import build_table

_TABLES = {}


def _table(k):
    if k not in _TABLES:
        _TABLES[k] = build_table(k)
    return _TABLES[k]


def _span_args(k, b0, b1, lo, hi, max_jumps, qmax=None):
    t = _table(k)
    return (b0, b1, k, lo, hi, t.survivors, t.c, t.s, t.pow3,
            t.qmax if qmax is None else qmax, max_jumps)


def _same_span(*args):
    got = _kernels.verify_span(*args)
    want = ref.verify_span(*args)
    assert got[0] == want[0]
    assert got[1].dtype == np.int64
    assert np.array_equal(got[1], want[1])
    return got


def _same_dense(n0, n1, lo, max_steps):
    got = _kernels.verify_dense(n0, n1, lo, max_steps)
    want = ref.verify_dense(n0, n1, lo, max_steps)
    assert got[0] == want[0]
    assert got[1].dtype == np.int64
    assert np.array_equal(got[1], want[1])
    return got


def _same_scan(hi, max_steps):
    sigma, peak1 = _kernels.scan_sigma_peak(hi, max_steps)
    want_sigma, want_peak1 = ref.scan_sigma_peak(hi, max_steps)
    assert np.array_equal(sigma, want_sigma)
    assert np.array_equal(peak1, want_peak1)
    return sigma, peak1


def test_scan_sigma_peak_matches_reference():
    _same_scan(2000, 10**6)


def test_scan_sigma_peak_known_values():
    sigma, peak1 = _kernels.scan_sigma_peak(30, 10**6)
    assert sigma[1] == 0
    assert sigma[2] == 1
    assert sigma[3] == 5
    assert sigma[27] == 70
    assert peak1[27] == 4616
    assert peak1[4] == 2


def test_scan_sigma_peak_tiny_ranges():
    for hi in (0, 1, 2, 3):
        _same_scan(hi, 10**6)


def test_scan_sigma_peak_step_budget_guards():
    # Small budgets mark slow starts -2, and every start whose tail
    # lands on a guarded one, including chains inside one block.
    for max_steps in (0, 1, 2, 7, 40):
        sigma, _ = _same_scan(3000, max_steps)
        assert (sigma[2:] == -2).any()


def test_scan_sigma_peak_across_lane_blocks():
    # Second and third blocks read tails from the first.
    sigma, _ = _same_scan(2 * LANES + 500, 10**6)
    assert (sigma[1:] >= 0).all()


def test_scan_sigma_peak_int64_guard(monkeypatch):
    # Lowering the guard makes the handback reachable at small starts.
    monkeypatch.setattr(_kernels, "_OVF", 5000)
    sigma, peak1 = _kernels.scan_sigma_peak(4000, 10**6)
    want_sigma, want_peak1 = ref.scan_sigma_peak(4000, 10**6, ovf=5000)
    assert np.array_equal(sigma, want_sigma)
    assert np.array_equal(peak1, want_peak1)
    assert (sigma == -2).any() and (sigma > 0).any()


def test_verify_dense_matches_reference():
    checked, unresolved = _same_dense(1, 4096, 1, 10**6)
    assert checked == 4096
    assert unresolved.size == 0


def test_verify_dense_budgets_and_windows():
    for n0, n1, lo in ((1, 3000, 1), (500, 2500, 500), (900, 1000, 1), (7, 7, 3)):
        for max_steps in (0, 1, 2, 5, 30):
            _same_dense(n0, n1, lo, max_steps)


def test_verify_dense_across_lane_blocks():
    lo = 10**6
    _same_dense(lo, lo + LANES + 77, lo, 10**6)
    _same_dense(lo, lo + LANES + 77, lo, 3)


def test_verify_dense_int64_guard(monkeypatch):
    monkeypatch.setattr(_kernels, "_OVF", 5000)
    got = _kernels.verify_dense(1, 3000, 1, 10**6)
    want = ref.verify_dense(1, 3000, 1, 10**6, ovf=5000)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])
    assert 0 < want[1].size < 3000


def test_verify_span_matches_reference():
    checked, unresolved = _same_span(*_span_args(8, 1, 64, 1, 64 << 8, 10_000))
    assert checked == 63 * _table(8).survivors.size
    assert unresolved.size == 0


def test_verify_span_overflow_starts_are_handed_back_identically():
    # qmax forces the bail-out path; the kernel must bail on the same
    # starts as the scalar loop rather than wrap.
    big = int(_table(4).qmax[4])
    checked, unresolved = _same_span(*_span_args(4, big, big + 1, 1, (big + 1) << 4, 5))
    assert unresolved.size > 0


def test_verify_span_starved_budget():
    # max_jumps=1 allows only one jump, whose result is never tested.
    for max_jumps in (0, 1, 2):
        _same_span(*_span_args(8, 1, 64, 1, 64 << 8, max_jumps))


def test_verify_span_windows_above_one():
    _same_span(*_span_args(8, 3, 70, 1000, 9000, 10_000))
    _same_span(*_span_args(8, 3, 70, 300, 5000, 10_000))
    _same_span(*_span_args(10, 5, 9, 5 << 10, 9 << 10, 10_000))


def test_verify_span_lowered_qmax_hands_back_mid_orbit():
    t = _table(8)
    qmax = t.qmax // (1 << 40)
    checked, unresolved = _same_span(*_span_args(8, 1, 64, 1, 64 << 8, 10_000, qmax))
    assert 0 < unresolved.size < checked


def test_verify_span_across_lane_blocks():
    width = int(_table(8).survivors.size)
    spans = LANES // width + 3
    b0 = 1 << 20
    lo = b0 << 8
    _same_span(*_span_args(8, b0, b0 + spans, lo, ((b0 + spans) << 8) - 1, 10_000))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 12),
    b0=st.integers(0, 1 << 30),
    nspans=st.integers(0, 6),
    lo_off=st.integers(-(1 << 14), 1 << 14),
    hi_off=st.integers(-(1 << 14), 1 << 14),
    max_jumps=st.integers(0, 40),
    qshift=st.integers(0, 50),
)
def test_verify_span_property(k, b0, nspans, lo_off, hi_off, max_jumps, qshift):
    b1 = b0 + nspans
    lo = max(1, (b0 << k) + lo_off)
    hi = max(lo, (b1 << k) + hi_off)
    qmax = _table(k).qmax >> qshift
    _same_span(*_span_args(k, b0, b1, lo, hi, max_jumps, qmax))


@settings(max_examples=40, deadline=None)
@given(
    n0=st.integers(1, 1 << 40),
    length=st.integers(0, 400),
    lo_back=st.integers(0, 1 << 12),
    max_steps=st.integers(0, 200),
)
def test_verify_dense_property(n0, length, lo_back, max_steps):
    _same_dense(n0, n0 + length - 1, max(1, n0 - lo_back), max_steps)


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
