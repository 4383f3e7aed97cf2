"""Reference versions of the hot paths, kept as test oracles.

The scalar loops walk one start at a time, exactly as the lockstep
kernels in collatz_lab._kernels did before they were vectorised;
tests/test_kernels.py compares the kernels against them bit for bit.
build_table is the sieve table built by stepping every residue at
once, and exact_recheck the one-step recheck walk; tests/test_sieve.py
compares sieve.build_table and sieve._exact_recheck against them.
jump_limbs walks each start of the limb kernel one step at a time.
descend is stats._descend as it was before it took K-step jumps: one
plain step per loop; tests/test_stats.py compares the two field by field.
cycle_census follows every start with trajectory._follow, one at a
time; tests/test_trajectory.py compares trajectory.cycle_census, which
walks the starts through the dip kernel, against it.  scan_exact is the
scalar scan with every start it leaves undecided re-walked by descend,
and scan_records builds the record tables from its full-range arrays
with Python loops; tests/test_stats.py compares stats.scan_records,
which folds walk peaks block by block, and count_reaching_one against
them, and scan_exact against descend start by start.
verify_span and verify_dense follow each start with one scalar jump
walk, as both kernels run one block loop.  first_dip is the walk of
one records-scan start to its first iterate below itself, as the dip
kernel and the stop table must report it.  It and scan_sigma_peak take
the int64 guard as a keyword so a test can lower it together with the
kernels' own ``_OVF`` and make the overflow handback reachable at
small values.
"""

import math

import numpy as np

from collatz_lab._kernels import _OVF
from collatz_lab.maps import t_step
from collatz_lab.sieve import INT64_MAX, SieveTable
from collatz_lab.stats import RecordScan
from collatz_lab.trajectory import DEFAULT_LIMITS, CycleCensus, Outcome, _follow


def first_dip(n, max_steps, cap=INT64_MAX, ovf=_OVF):
    """(steps, target, peak) of n's walk to its first iterate below n, one plain T step at a time.

    (0, 0, 0) when the walk is handed back: it meets an odd iterate
    above ovf or an iterate above cap, or takes max_steps steps without
    falling below n.
    """
    x = n
    pk = 0
    for d in range(1, max_steps + 1):
        if x & 1:
            if x > ovf:
                break
            x = (3 * x + 1) >> 1
        else:
            x >>= 1
        if x > cap:
            break
        pk = max(pk, x)
        if x < n:
            return d, x, pk
    return 0, 0, 0


def scan_sigma_peak(hi, max_steps, cap=INT64_MAX, ovf=_OVF):
    """sigma and the full peak1 of every n in [1, hi], walking each start to below itself.

    A start is -2 in both when first_dip hands its walk back, or when
    its total passes max_steps, or when the start it falls to is -2.
    """
    sigma = np.full(hi + 1, -1, np.int64)
    peak1 = np.zeros(hi + 1, np.int64)
    if hi >= 1:
        sigma[1] = 0
        peak1[1] = 1
    for n in range(2, hi + 1):
        d, x, pk = first_dip(n, max_steps, cap, ovf)
        if not d or sigma[x] < 0 or d + sigma[x] > max_steps:
            sigma[n] = -2
            peak1[n] = -2
        else:
            sigma[n] = d + sigma[x]
            peak1[n] = max(pk, peak1[x])
    return sigma, peak1


def scan_exact(hi, limits, cap=None):
    """sigma and peak1 over [1, hi] with every -2 of the scalar scan re-walked by descend.

    A start is decided when descend reaches 1 within the budgets with
    every iterate after the start at most cap (by default the largest
    value of max_bits bits); its peak above int64 reads as INT64_MAX.
    """
    if cap is None:
        cap = (1 << limits.max_bits) - 1
    sigma, peak1 = scan_sigma_peak(hi, limits.max_steps, cap)
    for n in np.flatnonzero(sigma == -2).tolist():
        steps, _, peak, _ = descend(n, limits)
        if steps is not None and peak <= cap:
            sigma[n] = steps
            peak1[n] = min(peak, INT64_MAX)
    return sigma, peak1


def _jumps_down(n, table, max_jumps):
    """Whether start n jumps below max(n, 3), inside int64 and the budget."""
    k = table.k
    mask = (1 << k) - 1
    x = n
    for _ in range(max_jumps):
        if x < max(n, 3):
            return True
        q = x >> k
        r = x & mask
        cc = int(table.c[r])
        if q > table.qmax[cc]:
            return False
        x = int(table.pow3[cc]) * q + int(table.s[r])
    return False


def verify_span(b0, b1, table, max_jumps):
    unresolved = []
    checked = 0
    for b in range(b0, b1):
        base = b << table.k
        for i in range(table.survivors.size):
            n = base + int(table.survivors[i])
            checked += 1
            if not _jumps_down(n, table, max_jumps):
                unresolved.append(n)
    return checked, np.array(unresolved, np.int64)


def verify_dense(n0, n1, table, max_jumps):
    starts = range(n0, n1 + 1)
    unresolved = [n for n in starts if not _jumps_down(n, table, max_jumps)]
    return len(starts), np.array(unresolved, np.int64)


def build_table(k):
    """The width-k table built by stepping all 2^k residues together."""
    size = 1 << k
    r = np.arange(size, dtype=np.int64)
    x = r.copy()
    c = np.zeros(size, dtype=np.int64)
    alive = np.ones(size, dtype=bool)
    saw_decay = np.zeros(size, dtype=bool)
    pow3 = np.array([3**i for i in range(k + 1)], dtype=np.int64)
    for j in range(1, k + 1):
        odd = (x & 1) == 1
        x = np.where(odd, (3 * x + 1) >> 1, x >> 1)
        c += odd
        decayed = pow3[c] < (1 << j)
        saw_decay |= alive & decayed
        # Value check: with a = q * 2^(k-j) + r div 2^j and q >= 1,
        # T^j(a * 2^j + r_j) < a * 2^j + r_j at the smallest a means
        # the whole class has already fallen below itself by step j.
        rj = r & ((1 << j) - 1)
        a_min = (1 << (k - j)) + (r >> j)
        sound = ((1 << j) - pow3[c]) * a_min > x[rj] - rj
        alive &= ~(decayed & sound)
    survivors = np.nonzero(alive)[0].astype(np.int64)
    rescued = int(np.count_nonzero(saw_decay & alive))
    s_max = int(x.max())
    qmax = np.array(
        [(INT64_MAX - s_max) // 3**i for i in range(k + 1)], dtype=np.int64
    )
    c_small = c.astype(np.int8)
    return SieveTable(k, c_small, x, survivors, pow3, qmax, rescued)


def jump_limbs(starts, k, max_jumps):
    """Positions of the starts the limb kernel leaves open.

    Each start is walked one halved step at a time and tested at every
    k-th step: resolved at the first of its max_jumps boundaries below
    max(n, 3), open when the boundaries run out.
    """
    open_ = []
    for i, n in enumerate(starts):
        x = n
        for _ in range(max_jumps):
            if x < max(n, 3):
                break
            for _ in range(k):
                x = (3 * x + 1) >> 1 if x & 1 else x >> 1
        else:
            open_.append(i)
    return np.array(open_, np.int64)


def exact_recheck(n, max_steps, every=1):
    """Follow one start a single halved step at a time; None once it is below max(n, 3).

    The test runs after every `every`-th step only, from step 0 on.
    """
    x = n
    for t in range(max_steps):
        if t % every == 0 and x < max(n, 3):
            return None
        x = (3 * x + 1) >> 1 if x & 1 else x >> 1
    return "no-descent-within-%d-steps" % max_steps


def descend(n, limits):
    max_steps = limits.max_steps
    max_bits = limits.max_bits
    x = n
    steps = 0
    odd = 0
    peak = 0
    stop = None
    while x != 1:
        if x & 1:
            odd += 1
        x = t_step(x)
        steps += 1
        if x > peak:
            peak = x
        if stop is None and x < n:
            stop = steps
        if steps > max_steps or x.bit_length() > max_bits:
            return None, odd, peak, stop
    return steps, odd, peak, stop


def cycle_census(map_, lo, hi, limits=DEFAULT_LIMITS, hash_budget=1 << 26):
    """Every start in [lo, hi] followed to a cycle, a budget, or a dip into [lo, n)."""
    if lo < 1 or hi < lo:
        raise ValueError("census range must satisfy 1 <= lo <= hi")
    cycles = {}
    verdicts = []
    limit_starts = []
    undefined_starts = []
    for n in range(lo, hi + 1):
        outcome, _, x, _, _, cycle = _follow(map_, n, limits, hash_budget, False, None, lo)
        if outcome is None:
            verdict = verdicts[x - lo]
        elif cycle is not None:
            verdict = cycles.setdefault(cycle.members, cycle)
        elif outcome is Outcome.HIT_UNDEFINED:
            verdict = "undefined"
        else:
            verdict = "limit"
        verdicts.append(verdict)
        if verdict == "limit":
            limit_starts.append(n)
        elif verdict == "undefined":
            undefined_starts.append(n)
    ordered = sorted(cycles.values(), key=lambda c: (c.members[0], c.length, c.members))
    return CycleCensus(lo, hi, tuple(ordered), tuple(limit_starts), tuple(undefined_starts))


def scan_records(lo, hi, gamma_threshold=6.143, limits=DEFAULT_LIMITS):
    """The record tables built by Python loops over scan_exact's full arrays."""
    sigma, peak1 = scan_exact(hi, limits)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    sg = sigma[lo:hi + 1].astype(np.float64)
    pk = peak1[lo:hi + 1].astype(np.float64)
    ok = sigma[lo:hi + 1] >= 0
    ln = np.log(ns.astype(np.float64))
    gam = np.where(ok, sg / ln, -np.inf)
    rh = np.where(ok & (pk >= 1), np.log(np.maximum(pk, 1.0)) / ln, -np.inf)
    count = int((gam >= gamma_threshold).sum())

    def running(vals):
        out = []
        best = -math.inf
        for n, v in zip(ns, vals):
            if v > best:
                best = v
                out.append((int(n), float(v)))
        return tuple(out)

    p_rec = []
    best = -1
    for n, ok_n, p in zip(ns, ok, peak1[lo:hi + 1]):
        if ok_n and p > best:
            best = int(p)
            p_rec.append((int(n), int(p)))
    unknown = tuple(int(n) for n, ok_n in zip(ns, ok) if not ok_n)
    return RecordScan(lo, hi, running(gam), running(rh), tuple(p_rec), gamma_threshold,
                      count, unknown)
