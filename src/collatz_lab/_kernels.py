"""Hot inner loops over machine-sized integers, as numpy lockstep kernels.

Each kernel takes its starts in blocks of lanes (VERIFY_LANES = 2^14
for verify_span, verify_dense and jump_limbs; for the dip kernel,
LANES = 2^16 in the cycle census, and in the records scan blocks of
SCAN_LANES = 2^14 starts and calls of up to twice that) and advances
the whole block together: one masked array step moves every live lane
by one step (or one k-step jump), and a lane leaves the block as soon
as its own stopping rule fires.  The rules are those of the plain
one-start-at-a-time loop, applied per lane:

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
T with floor 1 and step cap max_steps, with a table whose guard also
hands back a step past the scan's value cap, but only on the starts
its stop table (_stop_table) cannot settle by a few gathers: the
leftover lanes of consecutive blocks walk together in one call.  It
adds each start's walk to the step count of the smaller start it
dipped to, keeps those counts as int16 only while a later block can
still read them (a sliding _Window of about 5/8 of the range), and
hands each settled block, with every walk's peak, to a caller's fold.
trajectory.cycle_census runs it for any residue-class map, with floor
lo, cap DIP_CAP and the map's own table (map_table); the census
re-follows every lane the kernel hands back with Python integers, and
a census block hands its lanes back once fewer than DIP_MIN_LIVE still
walk, rather than step a nearly empty block.

So every result is bit-identical to the scalar loop; tests/kernel_reference.py
keeps those loops as oracles.  Lanes never interact, so the block
size bounds only the temporaries (a few int64 arrays of one block),
not the answer.  It does set their speed: a 2^16-lane int64 array is
512 KiB, above glibc's initial 128 KiB mmap threshold, so each step's
temporaries are mapped and faulted in afresh until some larger free
happens to raise that threshold.  verify_span over the 76 spans of
[1, 5e6] at k=16 took 24-36 ms in a fresh process at 2^16 lanes and
17-30 ms at 2^14 lanes (16-28 and 15-25 ms after one 16 MiB array
was freed); verify_dense on [1, 65535] took 6-12 and 5-8 ms.  A dip
call costs one Python-level step per step of its longest lane, so
the records scan fills each call with up to 2 * SCAN_LANES leftover
lanes: the stop table settles about 94% of a block, so one call serves
about 34 blocks, and a scan to 10^6 makes two.  On a shared 2-core VM,
calls of at most SCAN_LANES lanes made `records 2 1e8` about 7%
slower (each call steps as long as its longest walk), and calls of up
to LANES = 2^16 lanes, though faster, raised the peak memory of a scan
to 10^6 by about 4 MiB.  Arbitrary precision work
lands here only in jump_limbs, whose every limb product stays inside
int64 however wide a block grows.
"""

from __future__ import annotations

import functools
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

# starts per block of cycle_census, and most lanes in one of its dip calls
LANES = 1 << 16
# starts per block of scan_sigma_peak; its dip calls take up to twice as many lanes
SCAN_LANES = 1 << 14
# eighths of [0, hi] that scan_sigma_peak's step-count window holds, with one block more
WINDOW_EIGHTHS = 5
# step counts from this one up sit in the window's exact side table
_ESCAPE = np.iinfo(np.int16).max
# residue bits of the records scan's stop table
STOP_BITS = 12
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
    """The starts listed in parts, one array per block, as one ascending int64 array."""
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


@functools.cache
def _stop_table():
    """Each residue's stop, target form and peak form: (stop, m, t, slope, off).

    For r < 2^W (W = STOP_BITS) with an entry, stop[r] = j > 0, every
    start n = a * 2^W + r with a >= 1 first falls below itself at step
    j, onto T^j(n) = m[r] * a + t[r], and the largest of T^1(n) ..
    T^j(n) is slope[r] * a + off[r].  Other residues hold stop 0.  Built
    by one vectorized walk of the 2^W residues (about 2 ms) at first
    use, never at import; scan_sigma_peak gives the argument.
    """
    w = STOP_BITS
    r = np.arange(1 << w, dtype=np.int64)
    x = r
    c = np.zeros(1 << w, np.int64)
    stop = np.zeros(1 << w, np.int64)
    m = np.zeros(1 << w, np.int64)
    t = np.zeros(1 << w, np.int64)
    drops = np.zeros(1 << w, bool)
    slope = np.zeros(1 << w, np.int64)
    off = np.zeros(1 << w, np.int64)
    top = np.zeros(1 << w, np.int64)  # the largest iterate at a = 1
    pow3 = np.array([3**i for i in range(w + 1)], np.int64)
    for i in range(1, w + 1):
        c += x & 1
        x = _step(x)
        live = stop == 0  # steps 1 .. j count toward the peak
        gap = (1 << i) - pow3.take(c)  # 2^i - 3^c_i
        p = ((1 << i) - gap) << (w - i)  # T^i(n) = p * a + x
        steeper = live & (p > slope)
        slope[steeper] = p[steeper]
        off[steeper] = x[steeper]
        np.maximum(top, np.where(live, p + x, 0), out=top)
        first = live & (gap > 0)
        stop[first] = i
        m[first] = p[first]
        t[first] = x[first]
        drops[first] = (gap << (w - i) > x - r)[first]
    stop[~drops | (slope + off < top)] = 0
    return stop, m, t, slope, off


def scan_sigma_peak(hi, max_steps, cap=_INT64_MAX, exact=None, fold=None, peaks_below=0):
    """Step counts to 1 for every n in [1, hi], one block of SCAN_LANES starts at a time.

    sigma(n) is the number of halved 3x+1 steps from n to 1 when there
    are at most max_steps of them and no iterate after n exceeds cap;
    otherwise n is undecided.  Each start n is walked until its first
    iterate t below n, which lies in [n/2, n): odd steps go up, so the
    step onto t halves an iterate that is at least n.  The walk's table
    hands a lane back before a step past cap or past int64 (an odd
    iterate above _OVF).  n is decided exactly when its walk dips within
    cap, t is decided, and the walk's steps plus sigma(t) are at most
    max_steps, since t's orbit is the tail of n's.  n = 1 takes no step
    and is decided.

    Most walks are read from _stop_table rather than stepped (_walks
    runs the rest through dip).  Write n = a * 2^W + r, W = STOP_BITS,
    r < 2^W and a >= 1, and let c_i count the odd ones among iterates
    0 .. i-1.  The first W parities of n are those of r, so
    T^i(n) = 3^c_i * 2^(W-i) * a + T^i(r) for i <= W.

    - Stop.  T^i(n) = (3^c_i * n + d_i) / 2^i with d_i >= 0 (Terras),
      so T^i(n) > n while 3^c_i > 2^i.  Let j be the first i with
      3^c_j < 2^j.  Then n - T^j(n) = (2^j - 3^c_j) * 2^(W-j) * a
      - (T^j(r) - r), which grows with a; when it is positive at a = 1
      (sieve.build_table's drop condition at that j), n first falls
      below itself at step j, onto the target m * a + t.
    - Peak.  The walk's peak is the largest of the forms
      3^c_i * 2^(W-i) * a + T^i(r), i = 1 .. j.  No two have the same
      slope (3^c is never a power of 2), so when the steepest also wins
      at a = 1 it wins at every a >= 1, and the peak is that form.

    A residue that fails either check has no entry; at W = 12 none
    fails, and the 3870 of 4096 residues with such a j all have one.
    A start is settled from the table when a >= 1, its residue has an
    entry, j <= max_steps, and the peak is at most min(cap, _OVF).
    Then no iterate passes cap, and every odd iterate the walk steps
    from is at most _OVF: n itself, if odd, is below T(n) <= peak.  So
    dip would take that walk, not hand it back, and report the same
    steps, target and peak.

    When cap lies beyond the int64 guard's reach, a lane handed back is
    decided by exact(n), which returns n's steps to 1 (None when n is
    undecided) and the largest iterate after n.  Without exact such a
    lane is undecided.

    A block [a, b) reads sigma only at its targets, which lie in
    [a/2, b), so the counts live in a _Window over [a // 2, b) that
    slides forward in place, and nothing range-sized is kept.  The
    window holds WINDOW_EIGHTHS eighths of [0, hi] plus one block.
    From four eighths on that is at least (hi + 2 + SCAN_LANES) / 2,
    which bounds b - a // 2 for every block; at five it slides at most
    twice per scan, at a near 5/8 and 15/16 of hi.  It stores each
    count as int16, so 1.25 bytes per start of the range.  A total of
    _ESCAPE = 2^15 - 1 or more is stored as _ESCAPE and kept exactly in
    a side table, which drops the starts the window slides past.  The
    totals of real ranges stay in the hundreds, so there the table
    stays empty.

    Returns (undecided,): the undecided starts, ascending, as int64.
    After each block [a, b), fold(a, sigma, peak) is called, with
    sigma[i] = sigma(a + i) (-2 when undecided) and peak[i] the largest
    iterate after a + i, at most INT64_MAX: up to the first 1 (-2 when
    undecided) for a start below peaks_below or decided by exact, and
    otherwise its walk's, up to and including t.  Both arrays are the
    scan's own and valid only during the call.
    """
    max_steps = min(max_steps, _INT64_MAX)
    win = _Window(min(hi + 1, WINDOW_EIGHTHS * (hi + 1) // 8 + SCAN_LANES), peaks_below)
    win.sigma[1:2] = 0
    win.peak[1:2] = 1
    if (2 * cap - 1) // 3 <= _OVF:  # every lane handed back would step past cap
        exact = None
    undecided = []
    for a, b, steps, target, peak in _walks(2, hi, max_steps, cap):
        win.fit(a, b)
        sigma, peak = _scan_block(win, a, b, steps, target, peak, max_steps, exact)
        if sigma.min() == -2:
            undecided.append(np.flatnonzero(sigma == -2) + a)
        if fold is not None:
            fold(a, sigma, peak)
    return (_ascending(undecided),)


def _slide(buf, shift, keep):
    """Move buf[shift:shift + keep] to buf[:keep] in pieces of at most shift entries.

    No piece overlaps its source, so numpy copies each one directly
    rather than through a temporary as large as the part kept.
    """
    for i in range(0, keep, shift):
        j = min(i + shift, keep)
        buf[i:j] = buf[i + shift:j + shift]


class _Window:
    """scan_sigma_peak's step counts, and full peaks below peaks_below, for n in [base, base + size).

    sigma[n - base] is n's total as int16: -1 while unknown, -2 when n
    is undecided, and _ESCAPE for a total of _ESCAPE or more, which side
    keeps exactly.  peak[n - base] is peak1(n), for n < peaks_below.
    """

    def __init__(self, size, peaks_below):
        self.base = 0
        self.sigma = np.empty(size, np.int16)
        self.peak = np.empty(min(size, peaks_below), np.int64)
        self.peaks_below = peaks_below
        self.side = {}

    def fit(self, a, b):
        """Slide the window to start at a // 2 when the block [a, b) lies past its end."""
        if b - self.base <= self.sigma.size:
            return
        lo = a // 2
        shift = lo - self.base
        _slide(self.sigma, shift, a - lo)
        _slide(self.peak, shift, min(a, self.peaks_below) - lo)
        self.side = {n: s for n, s in self.side.items() if n >= lo}
        self.base = lo

    def totals(self, i):
        """The totals at window positions i: int16, or int64 when some escape."""
        s = self.sigma.take(i)
        if s.max() == _ESCAPE:
            esc = np.flatnonzero(s == _ESCAPE)
            s = s.astype(np.int64)
            s[esc] = [self.side[n] for n in (i.take(esc) + self.base).tolist()]
        return s

    def put(self, off, lanes, totals):
        """Store the int64 totals (or -2) at window positions off + lanes."""
        if totals.max() >= _ESCAPE:
            big = np.flatnonzero(totals >= _ESCAPE)
            n = lanes.take(big) + (self.base + off)
            self.side.update(zip(n.tolist(), totals.take(big).tolist()))
            totals = np.minimum(totals, _ESCAPE)
        self.sigma[off:][lanes] = totals


def _walks(lo, hi, max_steps, cap):
    """dip's (steps, target, peak) for the starts of [lo, hi], one block of SCAN_LANES at a time.

    Yields (a, b, steps, target, peak) for each block [a, b), in order,
    for scan_sigma_peak's walk: floor 1, step cap max_steps, and a
    hand-back before a step past cap or past int64.  _stop_table
    settles the lanes it can; the other lanes of consecutive blocks
    walk together, in one dip call of at most 2 * SCAN_LANES lanes, and a
    block's table lanes are worked out again when it is yielded rather
    than kept.
    """
    odd_guard = (2 * cap - 1) // 3  # the largest odd x with (3x + 1) / 2 <= cap
    guard = np.array([min(2 * cap + 1, _INT64_MAX), min(odd_guard, _OVF)], np.int64)
    table = MapTable(2, np.array([1, 3], np.int64), np.array([0, 1], np.int64), guard)
    stop, m, t, slope, off = _stop_table()
    residues = (1 << STOP_BITS) - 1
    # the largest a >> W the table settles, per residue (0: none)
    reach = np.where((stop > 0) & (stop <= max_steps), (min(cap, _OVF) - off) // slope, 0)

    def rows(a, b):
        """a >> W .. (b - 1) >> W as a column, and where [a, b) lies in those rows."""
        q = np.arange(a >> STOP_BITS, ((b - 1) >> STOP_BITS) + 1, dtype=np.int64)
        return q[:, None], slice(a & residues, (a & residues) + b - a)

    def walkers(a, b):
        """Lanes of [a, b) the table does not settle."""
        q, cut = rows(a, b)
        settled = (q <= reach) & (q > 0)
        return np.flatnonzero(~settled.ravel()[cut])

    def run(window):
        walks = dip(np.concatenate([a + w for a, _, w in window]), table, 1, max_steps)
        i = 0
        for a, b, w in window:
            q, cut = rows(a, b)
            target = q * m
            target += t
            peak = q * slope  # wraps for some walkers, whose entries the walks replace
            peak += off
            lanes = np.tile(stop, q.size)[cut], target.ravel()[cut], peak.ravel()[cut]
            for whole, part in zip(lanes, walks):
                whole[w] = part[i:i + w.size]
            i += w.size
            yield (a, b) + lanes

    window, held = [], 0  # the blocks waiting for one dip call, and their walkers
    for a in range(lo, hi + 1, SCAN_LANES):
        b = min(a + SCAN_LANES, hi + 1)
        w = walkers(a, b)
        if held + w.size > 2 * SCAN_LANES:
            yield from run(window)
            window, held = [], 0
        window.append((a, b, w))
        held += w.size
    if window:
        yield from run(window)


def _scan_block(win, a, b, steps, target, peak, max_steps, exact):
    """Fill the window over [a, b) from its lanes' walks, given every entry below a.

    steps, target and peak are dip's for the starts of [a, b).  Returns
    the sigma and the peaks that scan_sigma_peak passes to fold.
    """
    off = a - win.base
    target -= win.base  # window positions from here on
    sig = win.sigma[off:off + b - a]
    sig.fill(-1)
    back = np.flatnonzero(steps == 0)
    sig[back] = -2
    peak[back] = -2
    if exact is not None:
        for i in back.tolist():
            s, p = exact(a + i)
            if s is not None:
                win.put(off, np.array([i]), np.array([s]))
                peak[i] = min(p, _INT64_MAX)
    kept = max(0, min(win.peaks_below, b) - a)  # lanes with full peaks
    full = win.peak[off:off + kept]
    full[:] = peak[:kept]
    # Targets below a are final.  A target inside the block is final
    # once its own lane is (sigma -1 means not yet); it is always a
    # smaller start, so each pass settles at least the smallest pending
    # lane, and chains inside the block take a few passes.
    pending = np.flatnonzero(steps)
    while pending.size:
        tgt = target.take(pending)
        tail = win.totals(tgt)
        wait = tail == -1
        if wait.any():
            ready = np.flatnonzero(~wait)
            lanes, tgt, tail = pending.take(ready), tgt.take(ready), tail.take(ready)
            pending = pending[wait]
        else:
            lanes, pending = pending, pending[:0]
        total = steps.take(lanes) + tail
        good = (tail >= 0) & (total <= max_steps)
        win.put(off, lanes, np.where(good, total, -2))
        if kept:
            low = lanes < kept
            lanes, tgt, good = lanes[low], tgt[low], good[low]
            full[lanes] = np.where(good, np.maximum(peak.take(lanes), win.peak.take(tgt)), -2)
    peak[:kept] = full
    if sig.max() == _ESCAPE:
        sig = win.totals(np.arange(off, off + b - a))
    return sig, peak


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
    at k = 20) widens and jumps until the budget is spent.  Each jump
    runs two Python loops over the limbs, so a lone wide lane is slow:
    the one start 2^6000 - 1 falls below itself after 22,746 steps
    (1,422 jumps at k = 16), which took 1.1-1.3 s, about 0.8 ms a jump,
    against 0.03 s for stats.orbit_summary's whole orbit (numpy 2.4, one
    core of a shared 2-core VM).
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
