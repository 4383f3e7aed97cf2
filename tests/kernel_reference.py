"""Reference versions of the hot paths, kept as test oracles.

The scalar loops walk one start at a time, exactly as the lockstep
kernels in collatz_lab._kernels did before they were vectorised;
tests/test_kernels.py compares the kernels against them bit for bit.
build_table is the sieve table built by stepping every residue at
once, and exact_recheck the one-step recheck walk; tests/test_sieve.py
compares sieve.build_table and sieve._exact_recheck against them.
jump_limbs walks each start of the limb kernel one step at a time.
cycle_census follows every start with trajectory._follow, one at a
time; tests/test_trajectory.py compares trajectory.cycle_census, which
walks the starts through the dip kernel, against it.  scan_records
builds the record tables with Python loops; tests/test_stats.py
compares stats.scan_records, which uses running maxima, against it.
verify_span and verify_dense follow each start with one scalar jump
walk, as both kernels run one block loop.  scan_sigma_peak takes the
int64 guard as a keyword so a test can lower it together with the
kernels' own ``_OVF`` and make the overflow handback reachable at
small values.
"""

import math

import numpy as np

from collatz_lab._kernels import _OVF
from collatz_lab.sieve import INT64_MAX, SieveTable
from collatz_lab.stats import RecordScan, _scan_arrays
from collatz_lab.trajectory import DEFAULT_LIMITS, CycleCensus, Outcome, _follow


def scan_sigma_peak(hi, max_steps, ovf=_OVF):
    sigma = np.full(hi + 1, -1, np.int64)
    peak1 = np.zeros(hi + 1, np.int64)
    if hi >= 1:
        sigma[1] = 0
        peak1[1] = 1
    for n in range(2, hi + 1):
        x = n
        d = 0
        pk = 0
        bad = False
        while x >= n:
            if x & 1:
                if x > ovf:
                    bad = True
                    break
                x = (3 * x + 1) >> 1
            else:
                x >>= 1
            d += 1
            if x > pk:
                pk = x
            if d > max_steps:
                bad = True
                break
        if bad or sigma[x] < 0:
            sigma[n] = -2
            peak1[n] = -2
        else:
            sigma[n] = d + sigma[x]
            p = peak1[x]
            if pk > p:
                p = pk
            peak1[n] = p
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
    """The record tables built by Python loops over the scan arrays."""
    sigma, peak1, unknown = _scan_arrays(hi, limits)
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
    return RecordScan(lo, hi, running(gam), running(rh), tuple(p_rec), gamma_threshold,
                      count, unknown)
