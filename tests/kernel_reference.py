"""Reference versions of the hot paths, kept as test oracles.

The scalar loops walk one start at a time, exactly as the lockstep
kernels in collatz_lab._kernels did before they were vectorised;
tests/test_kernels.py compares the kernels against them bit for bit.
build_table is the sieve table built by stepping every residue at
once, and exact_recheck the one-step recheck walk; tests/test_sieve.py
compares sieve.build_table and sieve._exact_recheck against them.
The int64 guard is a keyword so a test can lower it together with the
kernels' own ``_OVF`` and make the overflow handback reachable at
small values.
"""

import numpy as np

from collatz_lab._kernels import _OVF
from collatz_lab.sieve import INT64_MAX, SieveTable


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


def verify_span(b0, b1, k, lo, hi, survivors, c_tab, s_tab, pow3, qmax, max_jumps):
    mask = (1 << k) - 1
    unresolved = []
    checked = 0
    for b in range(b0, b1):
        base = b << k
        for i in range(survivors.size):
            n = base + int(survivors[i])
            if n < lo or n > hi:
                continue
            checked += 1
            x = n
            ok = False
            for _ in range(max_jumps):
                if x <= 2 or x < lo:
                    ok = True
                    break
                q = x >> k
                r = x & mask
                cc = int(c_tab[r])
                if q > qmax[cc]:
                    break
                x = int(pow3[cc]) * q + int(s_tab[r])
            if not ok:
                unresolved.append(n)
    return checked, np.array(unresolved, np.int64)


def verify_dense(n0, n1, lo, max_steps, ovf=_OVF):
    unresolved = []
    checked = 0
    for n in range(n0, n1 + 1):
        checked += 1
        x = n
        ok = False
        for _ in range(max_steps):
            if x <= 2 or x < lo:
                ok = True
                break
            if x & 1:
                if x > ovf:
                    break
                x = (3 * x + 1) >> 1
            else:
                x >>= 1
        if not ok:
            unresolved.append(n)
    return checked, np.array(unresolved, np.int64)


def build_table(k):
    """The width-k table built by stepping all 2^k residues together."""
    size = 1 << k
    r = np.arange(size, dtype=np.int64)
    x = r.copy()
    c = np.zeros(size, dtype=np.int64)
    dropped_at = np.full(size, -1, dtype=np.int8)
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
        drop = alive & decayed & sound
        dropped_at[drop] = j
        alive &= ~drop
    survivors = np.nonzero(alive)[0].astype(np.int64)
    rescued = int(np.count_nonzero(saw_decay & alive))
    s_max = int(x.max())
    qmax = np.array(
        [(INT64_MAX - s_max) // 3**i for i in range(k + 1)], dtype=np.int64
    )
    c_small = c.astype(np.int8)
    return SieveTable(k, c_small, x, dropped_at, survivors, pow3, qmax, rescued)


def exact_recheck(n, lo, max_steps):
    """Follow one start a single halved step at a time; None once it resolves."""
    x = n
    for _ in range(max_steps):
        if x <= 2 or x < lo:
            return None
        x = (3 * x + 1) >> 1 if x & 1 else x >> 1
    return "no-descent-within-%d-steps" % max_steps
