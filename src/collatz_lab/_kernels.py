"""Hot inner loops over machine-sized integers, as numpy lockstep kernels.

Each kernel takes its starts in blocks of at most LANES lanes and
advances the whole block together: one masked array step moves every
live lane by one step (or one k-step jump), and a lane leaves the block
as soon as its own stopping rule fires.  The rules are those of the
plain one-start-at-a-time loop, applied per lane:

- resolved: the iterate is <= 2 or below the floor ``lo``;
- handed back: the next step could leave int64 (``q > qmax[c]`` for a
  jump, an odd iterate above ``_OVF`` for a single step);
- out of budget: the lane used up its ``max_jumps`` / ``max_steps``.

So every result is bit-identical to the scalar loop; tests/kernel_reference.py
keeps that loop as the oracle.  Lanes never interact, so the block
size bounds only the temporaries (a few arrays of LANES int64 values),
not the answer.  Arbitrary precision work never lands here: callers
re-run every handed-back start with Python integers.
"""

from __future__ import annotations

import numpy as np

# The kernels are plain numpy; kept as public API for callers that
# report which backend produced a result.
USING_NUMBA = False

# largest x with 3x+1 guaranteed inside int64
_OVF = (2**63 - 2) // 3

# lanes advanced together; bounds each kernel's temporaries
LANES = 1 << 16


def _step(x: np.ndarray) -> np.ndarray:
    """One halved 3x+1 step on every lane: (3x+1)/2 if odd, x/2 if even."""
    odd = x & 1
    up = x + 1
    up *= odd
    up += x >> 1
    return up


def _handback(x: np.ndarray) -> np.ndarray | None:
    """Lanes whose odd iterate exceeds the int64 guard, or None if none do."""
    if x.max() <= _OVF:
        return None
    return (x > _OVF) & ((x & 1) == 1)


def _ascending(parts: list) -> np.ndarray:
    """The handed-back starts of every block as one ascending int64 array."""
    out = np.concatenate(parts) if parts else np.empty(0, np.int64)
    out.sort()
    return out


def scan_sigma_peak(hi, max_steps):
    """Per-start step counts and excursion peaks for every n in [1, hi].

    sigma[n] = steps of the halved 3x+1 rule to reach 1 (-2 if a budget
    or the int64 guard interfered).  peak1[n] = largest iterate strictly
    after the start, up to and including the first 1.  Each start is
    walked only until it falls below itself, to some x < n; its totals
    are then the walk's plus those of x, which is exact because the
    orbit tail is literally the orbit of x.  A start whose walk breaks
    the int64 guard or takes more than max_steps steps, or whose x is
    itself guarded, gets -2 in both arrays.
    """
    sigma = np.full(hi + 1, -1, np.int64)
    peak1 = np.zeros(hi + 1, np.int64)
    if hi >= 1:
        sigma[1] = 0
        peak1[1] = 1
    for a in range(2, hi + 1, LANES):
        _scan_block(sigma, peak1, a, min(a + LANES, hi + 1), max_steps)
    return sigma, peak1


def _scan_block(sigma, peak1, a, b, max_steps):
    """Fill sigma and peak1 over [a, b), given every entry below a."""
    size = b - a
    steps = np.zeros(size, np.int64)
    target = np.zeros(size, np.int64)
    peak = np.zeros(size, np.int64)
    bad = np.zeros(size, bool)
    lane = np.arange(size)
    n = np.arange(a, b, dtype=np.int64)
    x = n
    pk = np.zeros(size, np.int64)
    t = 0
    while lane.size:
        over = _handback(x)
        if over is not None:
            bad[lane[over]] = True
            keep = np.flatnonzero(~over)
            lane, n, x, pk = lane.take(keep), n.take(keep), x.take(keep), pk.take(keep)
            if not lane.size:
                break
        x = _step(x)
        np.maximum(pk, x, out=pk)
        t += 1
        if t > max_steps:
            bad[lane] = True
            break
        fell = x < n
        out = np.flatnonzero(fell)
        if out.size:
            done = lane.take(out)
            steps[done] = t
            target[done] = x.take(out)
            peak[done] = pk.take(out)
            keep = np.flatnonzero(~fell)
            lane, n, x, pk = lane.take(keep), n.take(keep), x.take(keep), pk.take(keep)

    sigma[a:b][bad] = -2
    peak1[a:b][bad] = -2
    # Targets below a are final.  A target inside the block is final
    # once its own lane is (sigma -1 means not yet); it is always a
    # smaller start, so each pass settles at least the smallest pending
    # lane, and chains inside the block take a few passes.
    pending = np.flatnonzero(~bad)
    while pending.size:
        tgt = target.take(pending)
        tail = sigma.take(tgt)
        wait = tail == -1
        if wait.any():
            ready = np.flatnonzero(~wait)
            lanes, tgt, tail = pending.take(ready), tgt.take(ready), tail.take(ready)
            pending = pending[wait]
        else:
            lanes, pending = pending, pending[:0]
        good = tail >= 0
        sigma[a + lanes] = np.where(good, steps.take(lanes) + tail, -2)
        peak1[a + lanes] = np.where(good, np.maximum(peak.take(lanes), peak1.take(tgt)), -2)


def verify_span(b0, b1, k, lo, hi, survivors, c_tab, s_tab, pow3, qmax, max_jumps):
    """Drive every surviving residue in blocks [b0, b1) down below lo or to 1.

    Block b covers [b * 2^k, (b+1) * 2^k); only starts inside [lo, hi]
    count.  Iteration advances k steps at a time through the table
    identity T^k(q * 2^k + r) = 3^c(r) * q + s(r).  Starts that exhaust
    max_jumps or would overflow int64 are returned, in ascending order,
    for exact re-checking.
    """
    mask = (1 << k) - 1
    floor = max(lo, 3)  # x <= 2 or x < lo
    q_safe = int(qmax.min())  # no lane with q <= q_safe can overflow
    width = survivors.size
    total = (b1 - b0) * width
    checked = 0
    unresolved = []
    for f0 in range(0, total, LANES):
        flat = np.arange(f0, min(f0 + LANES, total), dtype=np.int64)
        n = ((flat // width + b0) << k) + survivors[flat % width]
        if n[0] < lo or n[-1] > hi:
            n = n[(n >= lo) & (n <= hi)]
        checked += n.size
        x = n
        for _ in range(max_jumps):
            live = x >= floor
            if not live.all():
                live = np.flatnonzero(live)
                x, n = x.take(live), n.take(live)
            if not x.size:
                break
            q = x >> k
            r = x & mask
            c = c_tab.take(r)
            if q.max() > q_safe:
                over = q > qmax.take(c)
                if over.any():
                    unresolved.append(n[over])
                    keep = np.flatnonzero(~over)
                    n, q, r, c = n.take(keep), q.take(keep), r.take(keep), c.take(keep)
            x = pow3.take(c)
            x *= q
            x += s_tab.take(r)
        unresolved.append(n)
    return checked, _ascending(unresolved)


def verify_dense(n0, n1, lo, max_steps):
    """Plain stepping over [n0, n1], where no class is skipped.

    Success means falling below lo (the whole run's floor, usually
    <= n0) or reaching the 1-2 loop.  Starts that exhaust max_steps or
    meet an odd iterate above the int64 guard are returned, ascending.
    """
    floor = max(lo, 3)  # x <= 2 or x < lo
    checked = 0
    unresolved = []
    for a in range(n0, n1 + 1, LANES):
        n = np.arange(a, min(a + LANES, n1 + 1), dtype=np.int64)
        checked += n.size
        x = n
        for _ in range(max_steps):
            live = x >= floor
            if not live.all():
                live = np.flatnonzero(live)
                x, n = x.take(live), n.take(live)
            if not x.size:
                break
            over = _handback(x)
            if over is not None:
                unresolved.append(n[over])
                keep = np.flatnonzero(~over)
                x, n = x.take(keep), n.take(keep)
            x = _step(x)
        unresolved.append(n)
    return checked, _ascending(unresolved)
