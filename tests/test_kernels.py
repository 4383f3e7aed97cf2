"""The lockstep kernels must match the scalar reference loops bit for bit.

tests/kernel_reference.py keeps the one-start-at-a-time loops the
kernels replaced.  Every case here runs both and compares the full
output: counts, the handed-back starts and their order, and the sigma
and peak arrays with their -2 guards.  Cases are chosen to reach each
per-lane stopping rule (resolution, the int64 handback, the step or
jump budget) and to straddle the LANES block boundary.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from collatz_lab import _kernels
from collatz_lab._kernels import LANES
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
    return got


def _dense_args(k, n0, n1, max_jumps, qmax=None):
    return (n0, n1, _with_qmax(k, qmax), max_jumps)


def _same_dense(*args):
    got = _kernels.verify_dense(*args)
    want = ref.verify_dense(*args)
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
