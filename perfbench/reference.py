"""Plain-Python reference figures for the records-scan workload.

Usage: python3 perfbench/reference.py LO HI

Prints one JSON object with the gamma, rho and peak record holders over
[LO, HI] and the count of starts whose step count reaches THRESHOLD * log n.
Nothing here imports collatz_lab: the scan is written from the
definitions alone, so its figures can always be remade and are never a
copy of the program's own output.

Definitions (halved rule T: odd x -> (3x+1)/2, even x -> x/2):
  sigma(n)  steps for the orbit of n to reach 1;
  peak(n)   the largest iterate after the start, up to the first 1;
  gamma(n)  sigma(n) / log n;  rho(n)  log peak(n) / log n.
A record holder is a start whose value exceeds that of every smaller
start in the range.
"""

from __future__ import annotations

import argparse
import json
import math

# The `records` command's default --threshold, which the workload uses.
THRESHOLD = 6.143


def record_figures(lo: int, hi: int) -> dict:
    """Record holders of gamma, rho and peak over [lo, hi], plus the threshold count.

    A start's orbit is followed only until it falls below the start; the
    rest of the orbit is that smaller start's orbit, whose sigma and
    peak are already known.
    """
    if not 2 <= lo <= hi:
        raise ValueError("need 2 <= lo <= hi")
    sigma = [0] * (hi + 1)
    peak = [0] * (hi + 1)
    peak[1] = 1
    gamma_rec, rho_rec, peak_rec = [], [], []
    g_best = r_best = -math.inf
    p_best = -1
    count = 0
    for n in range(2, hi + 1):
        x = n
        d = 0
        pk = 0
        while x >= n:
            x = (3 * x + 1) >> 1 if x & 1 else x >> 1
            d += 1
            if x > pk:
                pk = x
        s = d + sigma[x]
        p = peak[x] if peak[x] > pk else pk
        sigma[n] = s
        peak[n] = p
        if n < lo:
            continue
        ln = math.log(n)
        g = s / ln
        if g >= THRESHOLD:
            count += 1
        if g > g_best:
            g_best = g
            gamma_rec.append([n, g])
        r = math.log(p) / ln
        if r > r_best:
            r_best = r
            rho_rec.append([n, r])
        if p > p_best:
            p_best = p
            peak_rec.append([n, p])
    return {
        "lo": lo,
        "hi": hi,
        "threshold": THRESHOLD,
        "gamma_records": gamma_rec,
        "rho_records": rho_rec,
        "peak_records": peak_rec,
        "threshold_count": count,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("lo", type=int)
    parser.add_argument("hi", type=int)
    args = parser.parse_args(argv)
    print(json.dumps(record_figures(args.lo, args.hi)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
