"""Scalar reference loops for the lockstep kernels in collatz_lab._kernels.

These walk one start at a time, exactly as the kernels did before they
were vectorised, and serve only as the oracle that tests/test_kernels.py
compares the lockstep kernels against bit for bit.  The int64 guard is
a keyword so a test can lower it together with the kernels' own
``_OVF`` and make the overflow handback reachable at small values.
"""

import numpy as np

from collatz_lab._kernels import _OVF


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
