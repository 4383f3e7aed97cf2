"""Orbit statistics for the halved 3x+1 rule: step counts, ratios, records.

Everything here iterates x -> (3x+1)/2 on odds and x -> x/2 on evens,
with the start counted as iterate zero.  Single-value functions use
Python integers and accept arbitrarily large starts; the range scans
run the numpy records scan (_kernels.scan_sigma_peak), and _descend
decides every start it hands back.

Every exact walk to 1 here is _descend, which takes JUMP_K steps in one
table jump wherever nothing it tracks can change inside the jump (its
docstring gives the rule and the argument), and single steps near its
peak, near the start and near the end of the step budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .maps import t_step
from .sieve import _width_table
from .trajectory import DEFAULT_LIMITS, IterationLimits, Outcome, Trajectory
from .util import log_nat


JUMP_K = 10
"""Steps in one jump of _descend; on the census, 8 to 12 time within noise of each other."""

# ceil(K * log2(3/2)): 3^K is no power of 2, so this is the least G with
# (3/2)^K <= 2^G.
_JUMP_GROWTH = (3**JUMP_K).bit_length() - JUMP_K


@functools.cache
def _jump_table() -> tuple[list[int], list[int], list[int]]:
    """c(r) and s(r) = T^K(r) for every r mod 2^K, and 3^i for i <= K."""
    c, s = _width_table(JUMP_K)
    return c.tolist(), s.tolist(), [3**i for i in range(JUMP_K + 1)]


def _descend(n: int, limits: IterationLimits):
    """Walk the orbit of n >= 1 to 1: the one descent behind every statistic here.

    Returns (steps, odd, peak, stop).  steps is the total stopping time,
    or None when a budget ran out first; odd counts the odd iterates a
    step was taken from; peak is the largest iterate after the start
    (0 for n = 1); stop is the least k with the k-th iterate below n,
    or None if the walk ended before one.  stop is taken before the
    budget check of its step, so it may be known at step max_steps + 1
    while steps is None.

    The walk takes K = JUMP_K steps at once where nothing it tracks can
    change inside them.  With b = x.bit_length() and
    G = ceil(K * log2(3/2)), it jumps from x when x > 2^K,
    steps + K <= max_steps, b + G < peak.bit_length(), and stop is known
    or x >> K >= n.  The jump is T^K(q * 2^K + r) = 3^c(r) * q + T^K(r)
    (Terras), where c(r) counts the odd ones among the iterates 0 .. K-1,
    which are exactly those a step is taken from.  Otherwise it takes one
    plain step.  Inside a jump:

    - T(x) >= x/2, so every iterate is at least x/2^K > 1: none is 1;
    - T(x) + 1 <= (3/2)(x + 1), so every iterate is below
      (3/2)^K * 2^b <= 2^(b+G): none beats the peak, and none breaks the
      bit budget, which the peak is within (so b + G <= max_bits holds);
    - every iterate is at least x/2^K >= x >> K, so when that is >= n
      none is the first one below n.
    """
    max_steps = limits.max_steps
    max_bits = limits.max_bits
    c_of, s_of, pow3 = _jump_table()
    mask = (1 << JUMP_K) - 1
    last_jump = max_steps - JUMP_K
    # Until stop is known, x >= low is x >> K >= n, which implies x > 2^K
    # for n >= 2 (the walk of 1 takes no step); after, it is x > 2^K.
    # top is peak.bit_length() - G.
    low = n << JUMP_K
    top = 0
    x = n
    steps = 0
    odd = 0
    peak = 0
    stop = None
    while x != 1:
        if x >= low and steps <= last_jump and x.bit_length() < top:
            r = x & mask
            c = c_of[r]
            x = pow3[c] * (x >> JUMP_K) + s_of[r]
            odd += c
            steps += JUMP_K
            continue
        if x & 1:
            odd += 1
        x = t_step(x)
        steps += 1
        if x > peak:
            peak = x
            top = x.bit_length() - _JUMP_GROWTH
        if stop is None and x < n:
            stop = steps
            low = mask + 2
        if steps > max_steps or x.bit_length() > max_bits:
            return None, odd, peak, stop
    return steps, odd, peak, stop


@dataclass(frozen=True)
class OrbitSummary:
    """Every single-start statistic of one orbit, from one descent."""

    n: int
    total_steps: int | None
    stopping_time: int | float | None
    odd_ratio: Fraction | None
    rho: float | None
    gamma: float | None


def orbit_summary(n: int, limits: IterationLimits = DEFAULT_LIMITS) -> OrbitSummary:
    """Total stopping time, stopping time, odd-step ratio, rho and gamma of n.

    A statistic is None when the budgets end the walk before it is
    known.  For n = 1 the stopping time is math.inf and the ratio, rho
    and gamma are None.
    """
    if n < 1:
        raise ValueError("positive start required, got %r" % (n,))
    if n == 1:
        return OrbitSummary(1, 0, math.inf, None, None, None)
    steps, odd, peak, stop = _descend(n, limits)
    if steps is None:
        return OrbitSummary(n, None, stop, None, None, None)
    log_n = log_nat(n)
    return OrbitSummary(
        n, steps, stop, Fraction(odd, steps), log_nat(peak) / log_n, steps / log_n
    )


def total_stopping_time(n: int, limits: IterationLimits = DEFAULT_LIMITS) -> int | None:
    """Steps to reach 1, or None when a budget ran out first."""
    return orbit_summary(n, limits).total_steps


def stopping_time(n: int, limits: IterationLimits = DEFAULT_LIMITS):
    """Least k with the k-th iterate below n; math.inf for n = 1, None if unknown."""
    return orbit_summary(n, limits).stopping_time


def one_ratio(n: int, limits: IterationLimits = DEFAULT_LIMITS) -> Fraction | None:
    """Exact fraction of odd iterates among the first sigma-infinity of them.

    Counts odd values at iterates 0 .. sigma-1, the positions a step was
    taken from, over the total step count.  Undefined (None) for n = 1
    and for starts whose descent exceeds the budgets.
    """
    return orbit_summary(n, limits).odd_ratio


def rho(n: int, limits: IterationLimits = DEFAULT_LIMITS) -> float | None:
    """log(peak iterate after the start) / log(start), peak taken up to the first 1."""
    return orbit_summary(n, limits).rho


def gamma(n: int, limits: IterationLimits = DEFAULT_LIMITS) -> float | None:
    """Total step count scaled by 1 / log(start)."""
    return orbit_summary(n, limits).gamma


def rho_from_trajectory(traj: Trajectory) -> float | None:
    """rho recomputed from a stored orbit; must equal the streaming value."""
    if traj.outcome is not Outcome.REACHED_ONE or traj.start < 2:
        return None
    if traj.values is None:
        raise ValueError("trajectory was recorded without values")
    peak = max(traj.values[1:])
    return log_nat(peak) / log_nat(traj.start)


def gamma_from_trajectory(traj: Trajectory) -> float | None:
    if traj.outcome is not Outcome.REACHED_ONE or traj.start < 2:
        return None
    return traj.steps / log_nat(traj.start)


def parity_vector(n: int, k: int) -> tuple[int, ...]:
    """Parities of iterates 0 .. k-1; determines and is determined by n mod 2^k."""
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    bits = []
    x = n
    for _ in range(k):
        bits.append(x % 2)
        x = t_step(x)
    return tuple(bits)


@dataclass(frozen=True)
class CensusRow:
    """One aggregated line: a step count, how many starts share it, their ratio."""

    sigma: int
    count: int
    ratio: Fraction | None


@dataclass(frozen=True)
class BlockCensus:
    base: int
    length: int
    rows: tuple[CensusRow, ...]
    sigmas: tuple[int, ...]
    anomalies: tuple[tuple[int, tuple[Fraction, ...]], ...]
    unknown_offsets: tuple[int, ...]


class CensusAnomalyError(AssertionError):
    """Two starts with equal step counts disagreed on their odd-step ratio."""


def block_census(
    base: int,
    length: int,
    limits: IterationLimits = DEFAULT_LIMITS,
    strict_ratio: bool = False,
) -> BlockCensus:
    """Aggregate step counts over the block [base, base + length).

    Starts sharing a step count are expected to share their exact
    odd-step ratio as well; disagreements are collected into anomalies
    (or raised when strict_ratio is set) rather than silently merged.
    """
    if base < 1 or length < 1:
        raise ValueError("census needs base >= 1 and length >= 1")
    per_sigma: dict[int, dict] = {}
    sigmas = []
    unknown = []
    for off in range(length):
        steps, odd, _, _ = _descend(base + off, limits)
        if steps is None:
            unknown.append(off)
            sigmas.append(-1)
            continue
        sigmas.append(steps)
        ratio = Fraction(odd, steps) if steps else None
        slot = per_sigma.setdefault(steps, {"count": 0, "ratios": set()})
        slot["count"] += 1
        slot["ratios"].add(ratio)
    rows = []
    anomalies = []
    for sigma in sorted(per_sigma):
        slot = per_sigma[sigma]
        ratios = sorted(slot["ratios"], key=lambda r: (r is None, r))
        if len(ratios) > 1:
            anomalies.append((sigma, tuple(ratios)))
        rows.append(CensusRow(sigma, slot["count"], ratios[0]))
    if anomalies and strict_ratio:
        raise CensusAnomalyError(
            "starts with equal step counts returned distinct ratios: %r" % anomalies
        )
    return BlockCensus(
        base, length, tuple(rows), tuple(sigmas), tuple(anomalies), tuple(unknown)
    )


@dataclass(frozen=True)
class ReachCount:
    """How many starts in [1, x_max] were driven to 1, plus the undecided."""

    x_max: int
    count: int
    unknown: tuple[int, ...]


def _scan(hi: int, limits: IterationLimits, ceiling: int | None = None, fold=None,
          peaks_below: int = 0):
    """The kernel scan of [1, hi], each start it hands back decided by _descend.

    A start is decided when its orbit reaches 1 within the budgets with
    no iterate after it above ceiling, if one is given.  Returns the
    undecided starts, ascending, as int64; fold and peaks_below are
    scan_sigma_peak's.
    """
    # Every cap from 2^64 on hands back the same lanes, at the int64 guard.
    cap = (1 << min(limits.max_bits, 64)) - 1
    if ceiling is not None:
        cap = min(cap, ceiling)

    def exact(n):
        steps, _, peak, _ = _descend(n, limits)
        return (None if ceiling is not None and peak > ceiling else steps), peak

    return _kernels.scan_sigma_peak(hi, limits.max_steps, cap, exact, fold, peaks_below)[0]


def count_reaching_one(x_max: int, limits: IterationLimits = DEFAULT_LIMITS) -> ReachCount:
    """Count starts in [1, x_max] whose orbit reaches 1 within the budgets."""
    if x_max < 1:
        raise ValueError("x_max must be positive")
    unknown = _scan(x_max, limits)
    return ReachCount(x_max, x_max - unknown.size, tuple(unknown.tolist()))


@dataclass(frozen=True)
class RecordScan:
    """Running-maximum tables over a start range."""

    lo: int
    hi: int
    gamma_records: tuple[tuple[int, float], ...]
    rho_records: tuple[tuple[int, float], ...]
    peak_records: tuple[tuple[int, int], ...]
    gamma_threshold: float
    threshold_count: int
    unknown: tuple[int, ...]


def _records(a: int, vals: np.ndarray, floor, out: list):
    """Append (a + i, vals[i]) to out for each i where vals[i] beats floor and every earlier value.

    Returns the new floor, the larger of floor and every value.
    """
    if not vals.max() > floor:  # most blocks hold no record
        return floor
    best = np.maximum.accumulate(vals)
    new = np.empty(vals.size, bool)
    new[0] = vals[0] > floor
    np.greater(vals[1:], np.maximum(best[:-1], floor), out=new[1:])
    at = np.flatnonzero(new)
    out.extend(zip((at + a).tolist(), vals.take(at).tolist()))
    return max(floor, best[-1].item())


def scan_records(
    lo: int,
    hi: int,
    gamma_threshold: float = 6.143,
    limits: IterationLimits = DEFAULT_LIMITS,
) -> RecordScan:
    """Record holders of gamma, rho, and the after-start peak over [lo, hi].

    Also counts how many starts meet sigma >= gamma_threshold * log n,
    the exceptional-growth census used as a sanity check on the scan,
    and lists the undecided starts of [lo, hi], those whose orbit does
    not reach 1 within the budgets.  A start is a record holder when
    its value beats that of every smaller start of [lo, hi]; undecided
    starts hold no records.

    The scan folds each block of starts into the running maxima as soon
    as the kernel has settled it, so the only state kept per start is
    its step count.  The peak (and rho) of a start n is read from its
    own walk to its first iterate t below n, not from its whole orbit;
    two facts make the tables exact all the same:

    - t lies in [n/2, n).  The step onto the first iterate below n is
      not an odd step, which goes up, so it halves an iterate >= n.
    - If n's peak comes from t's orbit rather than from its walk, and
      t >= lo, then n holds no peak or rho record.  The smaller start t
      of [lo, hi] has that same peak P, so n does not beat it; and
      log P / log t >= log P / log n, since t < n and P >= 1.  The walk
      value is at most the true one, so it is no record either, and by
      induction on n the running maxima of walk values and of true
      values agree at every n.

    So only starts with t < lo, which lie below 2 * lo, need their whole
    peak, and the scan keeps exact peaks for [1, 2 * lo) alone.
    """
    if lo < 2 or hi < lo:
        raise ValueError("record scan needs 2 <= lo <= hi")
    tables = ([], [], [])  # gamma, rho, peak
    best = [-np.inf, -np.inf, -1]
    count = 0

    def fold(a, sigma, peak):
        nonlocal count
        skip = max(lo - a, 0)
        if skip >= sigma.size:
            return
        a, sigma, peak = a + skip, sigma[skip:], peak[skip:]
        ok = sigma >= 0
        ln = np.log(np.arange(a, a + sigma.size, dtype=np.float64))
        vals = sigma.astype(np.float64)
        vals /= ln
        vals[~ok] = -np.inf
        count += int(np.count_nonzero(vals >= gamma_threshold))
        best[0] = _records(a, vals, best[0], tables[0])
        vals[:] = peak
        np.maximum(vals, 1.0, out=vals)
        np.log(vals, out=vals)
        vals /= ln
        vals[~ok] = -np.inf
        best[1] = _records(a, vals, best[1], tables[1])
        best[2] = _records(a, np.where(ok, peak, -1), best[2], tables[2])

    undecided = _scan(hi, limits, fold=fold, peaks_below=2 * lo)
    return RecordScan(lo, hi, *map(tuple, tables), gamma_threshold, count,
                      tuple(undecided[undecided >= lo].tolist()))
