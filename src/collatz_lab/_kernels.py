"""Hot inner loops over machine-sized integers, as numpy lockstep kernels.

Each kernel takes its starts in blocks of lanes (VERIFY_LANES = 2^14
for verify_span, verify_dense and jump_limbs, LANES = 2^16 for the dip
kernel) and advances the whole block together: one masked array step
moves every live lane by one step (or one k-step jump), and a lane
leaves the block as soon as its own stopping rule fires.  The rules
are those of the plain one-start-at-a-time loop, applied per lane:

- resolved: the iterate is below the start n, or <= 2 for starts 1
  and 2 (verify), or the first iterate in [floor, n) (dip);
- handed back: the next step could leave int64 (``q > qmax[c]`` for a
  jump, an iterate above its class's guard for a map table);
- out of budget: the lane used up its ``max_jumps`` / ``max_steps``.

verify_span and verify_dense jump with one sieve.SieveTable (k, c, s,
pow3, qmax, survivors) and take no floor: no range bound moves a stop.
jump_limbs, the whole of sieve._exact_recheck, applies the same jumps
to starts of any size as int64 limbs of limb_bits(table) bits.  It
hands nothing back: a block gains a limb when a jump carries out of
its top one, and every lane jumps until it resolves or spends its
budget.  Its starts come as blocks (base, off), lanes base + off[i],
from span_blocks (which verify_span jumps too) or int_blocks.

dip is the one kernel behind two callers.  scan_sigma_peak runs it for
T with floor 1 and step cap max_steps, and adds each start's walk to
the totals of the smaller start it dipped to.  trajectory.cycle_census
runs it for any residue-class map, with floor lo, cap DIP_CAP and the
map's own table (map_table); the census re-follows every lane the
kernel hands back with Python integers, and a census block hands its
lanes back once fewer than DIP_MIN_LIVE still walk, rather than step a
nearly empty block.

So every result is bit-identical to the scalar loop; tests/kernel_reference.py
keeps those loops as oracles.  Lanes never interact, so the block
size bounds only the temporaries (a few int64 arrays of one block),
not the answer.  It does set their speed: a 2^16-lane int64 array is
512 KiB, above glibc's initial 128 KiB mmap threshold, so each step's
temporaries are mapped and faulted in afresh until some larger free
happens to raise that threshold.  verify_span over the 76 spans of
[1, 5e6] at k=16 took 24-36 ms in a fresh process at 2^16 lanes and
17-30 ms at 2^14 lanes (16-28 and 15-25 ms after one 16 MiB array
was freed); verify_dense on [1, 65535] took 6-12 and 5-8 ms.  The
dip kernel keeps 2^16: its lanes stay live much longer, and at 2^14
a scan to 10^6 took about 1.4x as long.  Arbitrary precision work
lands here only in jump_limbs, whose every limb product stays inside
int64 however wide a block grows.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

import numpy as np

# The kernels are plain numpy; kept as public API for callers that
# report which backend produced a result.
USING_NUMBA = False

# the dip kernel's tables keep every a*x + b at most this
_INT64_MAX = 2**63 - 1
# largest x with 3x+1 guaranteed inside int64
_OVF = (2**63 - 2) // 3

# lanes advanced together by the dip kernel, in scan_sigma_peak and cycle_census
LANES = 1 << 16
# most steps a cycle_census lane walks before it is handed back
DIP_CAP = 1000
# a cycle_census block hands back its lanes once fewer than this many walk
DIP_MIN_LIVE = 32
# lanes advanced together by verify_span, verify_dense and jump_limbs
VERIFY_LANES = 1 << 14


def _step(x: np.ndarray) -> np.ndarray:
    """One halved 3x+1 step on every lane: (3x+1)/2 if odd, x/2 if even."""
    odd = x & 1
    up = x + 1
    up *= odd
    up += x >> 1
    return up


def _ascending(parts: list) -> np.ndarray:
    """The handed-back starts of every block as one ascending int64 array."""
    out = np.concatenate(parts) if parts else np.empty(0, np.int64)
    out.sort()
    return out


class MapTable(NamedTuple):
    """A residue-class map x -> (a[i] * x + b[i]) / d, i = x mod d, for int64 lanes.

    A lane at x is handed back before its step when x > guard[i]: the
    guard keeps a[i] * x and a[i] * x + b[i] inside int64 and at most a
    caller's bound, and is -1 for a class with no exact rule there.
    """

    d: int
    a: np.ndarray
    b: np.ndarray
    guard: np.ndarray


def map_table(d, pairs, undefined, top) -> MapTable:
    """The table of a modulus-d map whose steps must keep a*x + b <= top.

    undefined holds the classes without an exact rule.  A class whose
    coefficients do not fit int64 is treated as one of them.  top is at
    most _INT64_MAX, and a step that lands below 1 is the kernel's to
    hand back.
    """
    lo = -_INT64_MAX - 1
    a = np.zeros(d, np.int64)
    b = np.zeros(d, np.int64)
    guard = np.full(d, -1, np.int64)
    for i, (ai, bi) in enumerate(pairs):
        if i in undefined or not (lo <= ai <= _INT64_MAX and lo <= bi <= top):
            continue
        a[i], b[i] = ai, bi
        if ai > 0:  # a*x + b grows with x: bound it above
            g = min(_INT64_MAX // ai, (top - bi) // ai)
        elif ai < 0:  # a*x + b falls with x: bound it below, and check x = 1
            g = min(-lo // -ai, (bi - lo) // -ai) if ai + bi <= top else -1
        else:
            g = _INT64_MAX
        guard[i] = min(max(g, -1), _INT64_MAX)
    return MapTable(d, a, b, guard)


def dip(n, table, floor, cap, min_live=0):
    """Walk every lane until its first iterate in [floor, n): the dip kernel.

    n holds the int64 starts (n >= 1) and table the map.  Returns
    (steps, target, peak): steps[j] is the step at which start n[j]
    first reached an iterate in [floor, n[j]), target[j] that iterate
    and peak[j] the largest iterate after the start up to it.
    steps[j] = 0 marks a lane handed back, because
    - its iterate x was above its class's guard, or in a class without
      a rule, before a step;
    - a step gave a value below 1;
    - it took cap steps without dipping;
    - fewer than min_live lanes were still walking.
    An iterate below floor does not stop a lane.
    """
    size = n.size
    steps = np.zeros(size, np.int64)
    target = np.zeros(size, np.int64)
    peak = np.zeros(size, np.int64)
    d = table.d
    shift = d.bit_length() - 1 if d & (d - 1) == 0 else None
    safe = int(table.guard.min())  # no lane with x <= safe is handed back
    lane = np.arange(size)
    x = n
    pk = np.zeros(size, np.int64)
    t = 0
    while lane.size >= max(min_live, 1) and t < cap:
        i = x & (d - 1) if shift is not None else x % d
        if x.max() > safe:
            over = x > table.guard.take(i)
            if over.any():
                keep = np.flatnonzero(~over)
                lane, n, x, pk, i = (lane.take(keep), n.take(keep), x.take(keep),
                                     pk.take(keep), i.take(keep))
                if not lane.size:
                    break
        y = table.a.take(i)
        y *= x
        y += table.b.take(i)
        if shift is not None:
            y >>= shift
        else:
            y //= d
        x = y
        np.maximum(pk, x, out=pk)
        t += 1
        fell = x < n
        out = np.flatnonzero(fell)
        if out.size:
            xo = x.take(out)
            if floor > 1 or xo.min() < 1:
                # an iterate in [1, floor) walks on; one below 1 leaves
                # the block without a dip, so it is handed back
                fell[out[(xo >= 1) & (xo < floor)]] = False
                dipped = xo >= floor
                out, xo = out[dipped], xo[dipped]
            done = lane.take(out)
            steps[done] = t
            target[done] = xo
            peak[done] = pk.take(out)
            keep = np.flatnonzero(~fell)
            lane, n, x, pk = lane.take(keep), n.take(keep), x.take(keep), pk.take(keep)
    return steps, target, peak


def scan_sigma_peak(hi, max_steps):
    """Per-start step counts and excursion peaks for every n in [1, hi].

    sigma[n] = steps of the halved 3x+1 rule to reach 1 (-2 if a budget
    or the int64 guard interfered).  peak1[n] = largest iterate strictly
    after the start, up to and including the first 1.  Each start is
    walked by the dip kernel only until it falls below itself, to some
    x < n; its totals are then the walk's plus those of x, which is
    exact because the orbit tail is literally the orbit of x.  A start
    whose walk breaks the int64 guard (an odd iterate above _OVF) or
    takes more than max_steps steps, or whose x is itself guarded, gets
    -2 in both arrays.
    """
    sigma = np.full(hi + 1, -1, np.int64)
    peak1 = np.zeros(hi + 1, np.int64)
    if hi >= 1:
        sigma[1] = 0
        peak1[1] = 1
    table = MapTable(2, np.array([1, 3], np.int64), np.array([0, 1], np.int64),
                     np.array([_INT64_MAX, _OVF], np.int64))
    for a in range(2, hi + 1, LANES):
        _scan_block(sigma, peak1, a, min(a + LANES, hi + 1), table, max_steps)
    return sigma, peak1


def _scan_block(sigma, peak1, a, b, table, max_steps):
    """Fill sigma and peak1 over [a, b), given every entry below a."""
    steps, target, peak = dip(np.arange(a, b, dtype=np.int64), table, 1, max_steps)
    bad = steps == 0
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


def _jump_block(n, table, max_jumps, unresolved):
    """Jump every int64 start in n until it is below max(n, 3); append the rest to unresolved.

    Each jump applies the table's T^k(q * 2^k + r) = 3^c(r) * q + s(r),
    which is exact for every q >= 0.  A start is handed back when its
    next jump could leave int64 (q > qmax[c]) or its max_jumps jumps run
    out; the last jump's result is never tested.
    """
    k = table.k
    mask = (1 << k) - 1
    q_safe = int(table.qmax.min())  # no lane with q <= q_safe can overflow
    if max_jumps and n.size and n.min() < 3:
        n = n[n >= 3]  # 1 and 2 are <= 2 before any jump
    x = n
    for j in range(max_jumps):
        if j:  # no start is below itself before its first jump
            live = x >= n
            if not live.all():
                live = np.flatnonzero(live)
                x, n = x.take(live), n.take(live)
        if not x.size:
            break
        q = x >> k
        r = x & mask
        c = table.c.take(r)
        if q.max() > q_safe:
            over = q > table.qmax.take(c)
            if over.any():
                unresolved.append(n[over])
                keep = np.flatnonzero(~over)
                n, q, r, c = n.take(keep), q.take(keep), r.take(keep), c.take(keep)
        x = table.pow3.take(c)
        x *= q
        x += table.s.take(r)
    unresolved.append(n)


def verify_span(b0, b1, table, max_jumps):
    """Jump every surviving residue in blocks [b0, b1) until it falls below itself.

    Block b covers [b * 2^k, (b+1) * 2^k) of the table's width k, with
    b1 <= 2^(63-k).  A start n resolves at the first jump boundary whose
    iterate is below max(n, 3).  Returns the number of starts jumped and
    those that exhaust max_jumps or would overflow int64, in ascending
    order, for exact re-checking.
    """
    unresolved = []
    for base, off in span_blocks(b0, b1, table):
        _jump_block(off + base, table, max_jumps, unresolved)
    return max(b1 - b0, 0) * table.survivors.size, _ascending(unresolved)


def span_blocks(b0, b1, table):
    """The survivors of spans [b0, b1), ascending, as blocks (base, off) of VERIFY_LANES.

    base = q0 * 2^k for the block's first span q0; off = (q - q0) * 2^k + r < 2^(k+15).
    """
    k = table.k
    width = table.survivors.size
    total = (b1 - b0) * width
    for f0 in range(0, total, VERIFY_LANES):
        flat = np.arange(f0 % width, f0 % width + min(VERIFY_LANES, total - f0), dtype=np.int64)
        yield (b0 + f0 // width) << k, ((flat // width) << k) + table.survivors[flat % width]


def int_blocks(nums):
    """Ints >= 0 as (base, off) blocks, in order: runs of one n >> 62, at most VERIFY_LANES."""
    for top, run in groupby(nums, lambda n: n >> 62):
        run = [n - (top << 62) for n in run]
        for i in range(0, len(run), VERIFY_LANES):
            yield top << 62, np.array(run[i:i + VERIFY_LANES], np.int64)


def verify_dense(n0, n1, table, max_jumps):
    """Every start of [n0, n1], n1 < 2^63, jumped like verify_span's survivors.

    Success means falling below the start (or <= 2, for starts 1 and 2).
    Starts that exhaust max_jumps or would overflow int64 are returned,
    ascending.
    """
    unresolved = []
    for a in range(n0, n1 + 1, VERIFY_LANES):
        n = np.arange(a, min(a + VERIFY_LANES, n1 + 1), dtype=np.int64)
        _jump_block(n, table, max_jumps, unresolved)
    return max(n1 + 1 - n0, 0), _ascending(unresolved)


def limb_bits(table) -> int:
    """The widest limb B <= 62 in which every step of a limb jump stays below 2^63.

    A limb of q is below 2^B, the multiplier 3^c at most 3^k, s(r) at
    most s_max = INT64_MAX - qmax[0], and a carry in below 2^(63 - B),
    so (2^B - 1) * 3^k + s_max + 2^(63 - B) <= INT64_MAX bounds every
    sum before it is split.  B >= k for every k <= 24 (k = 20 gives 31,
    k = 24 gives 24), so the shift by k crosses one limb boundary.
    """
    room = int(table.qmax[0])
    p = 3**table.k
    b = 62
    while ((1 << b) - 1) * p + (1 << (63 - b)) > room:
        b -= 1
    return b


def jump_limbs(base, off, table, max_jumps) -> np.ndarray:
    """Positions, ascending, of the block's lanes that max_jumps limb jumps leave open.

    The lanes' starts are base + off[i] >= 1: base a Python int >= 0 of
    any size, off a non-empty int64 array >= 0.  A lane holds its start
    n and its iterate x as L limbs of B = limb_bits(table) bits, one
    more than the block's largest start needs; n is base's limbs plus
    off's, carried once.  It jumps x -> 3^c(r) * (x >> k) + s(r), r = x
    mod 2^k, limb by limb: the limbs of x >> k are shifted across one
    limb boundary, each is multiplied by 3^c, s(r) is added to limb 0
    and the carries run up.  A lane resolves at the first jump boundary
    whose x is below max(n, 3), read from the borrow out of the top limb
    of x - n; the last jump's result is never tested.

    A jump that carries out of some lane's top limb widens the block:
    x gains the bits above B of its top limb as a new limb, n a zero.
    s(r) < 3^k, so every carry is below 3^k, and the top limb of x >> k
    is below 2^(B-k), so the new limb is below (3/2)^k + 3^k / 2^B <=
    2 (3/2)^k < 2^16 <= 2^B: limb_bits' bound holds at any width.  A
    start left open under a large budget (10^6 steps are 50,000 jumps
    at k = 20) widens and jumps until the budget is spent, at a cost
    not yet measured.
    """
    k = table.k
    b = limb_bits(table)
    mask = (1 << b) - 1
    kmask = (1 << k) - 1
    shift = b * np.arange(-(-(base + int(off.max())).bit_length() // b) + 1)
    n = (off >> shift[:, None]) & mask
    n += [[(base >> i) & mask] for i in shift.tolist()]
    for i in range(1, shift.size):  # each limb sum is below 2^(B+1)
        n[i] += n[i - 1] >> b
    n[:-1] &= mask
    # 1 and 2 are <= 2 before any jump: open only when there is none
    lane = np.flatnonzero((n[0] >= 3) | n[1:].any(axis=0) | (max_jumps == 0))
    x = n = n.take(lane, axis=1) if lane.size < n.shape[1] else n
    for j in range(max_jumps):
        if j:  # x >= n exactly when no borrow leaves the top limb of x - n
            borrow = 0
            for d in x - n:
                borrow = (d + borrow) >> 63
            keep = np.flatnonzero(borrow == 0)
            if keep.size < lane.size:
                lane, n, x = lane.take(keep), n.take(keep, axis=1), x.take(keep, axis=1)
        if not lane.size:
            break
        r = x[0] & kmask
        y = x >> k
        y[:-1] |= (x[1:] & kmask) << (b - k)
        y *= table.pow3.take(table.c.take(r))
        y[0] += table.s.take(r)
        for i in range(1, y.shape[0]):
            y[i] += y[i - 1] >> b
        y[:-1] &= mask
        carry = y[-1] >> b
        if carry.any():
            y[-1] &= mask
            y = np.vstack((y, carry))
            n = np.vstack((n, np.zeros_like(carry)))
        x = y
    return lane
