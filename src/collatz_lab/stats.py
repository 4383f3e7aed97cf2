"""Orbit statistics for the halved 3x+1 rule: step counts, ratios, records.

Everything here iterates x -> (3x+1)/2 on odds and x -> x/2 on evens,
with the start counted as iterate zero.  Single-value functions use
Python integers and accept arbitrarily large starts; the range scans
route through the compiled kernels and re-check any start the int64
guard rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .maps import t_step
from .trajectory import DEFAULT_LIMITS, IterationLimits, Outcome, Trajectory
from .util import log_nat


def _descend(n: int, limits: IterationLimits):
    """Walk the orbit of n >= 1 to 1: the one descent behind every statistic here.

    Returns (steps, odd, peak, stop).  steps is the total stopping time,
    or None when a budget ran out first; odd counts the odd iterates a
    step was taken from; peak is the largest iterate after the start
    (0 for n = 1); stop is the least k with the k-th iterate below n,
    or None if the walk ended before one.  stop is taken before the
    budget check of its step, so it may be known at step max_steps + 1
    while steps is None.
    """
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
    if n < 2:
        return None
    return orbit_summary(n, limits).rho


def gamma(n: int, limits: IterationLimits = DEFAULT_LIMITS) -> float | None:
    """Total step count scaled by 1 / log(start)."""
    if n < 2:
        return None
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
        b = x % 2
        bits.append(b)
        x = (3 * x + 1) // 2 if b else x // 2
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


def _scan_arrays(hi: int, limits: IterationLimits):
    """Kernel scan over [1, hi] with exact patch-up of guarded starts."""
    sigma, peak1 = _kernels.scan_sigma_peak(hi, limits.max_steps)
    unknown = []
    pending = np.nonzero(sigma == -2)[0]
    for n in pending:
        n = int(n)
        s, _, p, _ = _descend(n, limits)
        if s is None:
            unknown.append(n)
        else:
            sigma[n] = s
            peak1[n] = min(p, np.iinfo(np.int64).max)
    return sigma, peak1, tuple(unknown)


def count_reaching_one(x_max: int, limits: IterationLimits = DEFAULT_LIMITS) -> ReachCount:
    """Count starts in [1, x_max] whose orbit reaches 1 within the budgets."""
    if x_max < 1:
        raise ValueError("x_max must be positive")
    sigma, _, unknown = _scan_arrays(x_max, limits)
    count = int((sigma[1:] >= 0).sum())
    return ReachCount(x_max, count, unknown)


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


def _running_records(ns: np.ndarray, vals: np.ndarray):
    out = []
    best = -math.inf
    for n, v in zip(ns, vals):
        if v > best:
            best = v
            out.append((int(n), float(v)))
    return tuple(out)


def scan_records(
    lo: int,
    hi: int,
    gamma_threshold: float = 6.143,
    limits: IterationLimits = DEFAULT_LIMITS,
) -> RecordScan:
    """Record holders of gamma, rho, and the after-start peak over [lo, hi].

    Also counts how many starts meet sigma >= gamma_threshold * log n,
    the exceptional-growth census used as a sanity check on the scan.
    """
    if lo < 2 or hi < lo:
        raise ValueError("record scan needs 2 <= lo <= hi")
    sigma, peak1, unknown = _scan_arrays(hi, limits)
    ns = np.arange(lo, hi + 1, dtype=np.int64)
    sg = sigma[lo:hi + 1].astype(np.float64)
    pk = peak1[lo:hi + 1].astype(np.float64)
    ok = sigma[lo:hi + 1] >= 0
    ln = np.log(ns.astype(np.float64))
    gam = np.where(ok, sg / ln, -np.inf)
    rh = np.where(ok & (pk >= 1), np.log(np.maximum(pk, 1.0)) / ln, -np.inf)
    count = int((gam >= gamma_threshold).sum())
    g_rec = _running_records(ns, gam)
    r_rec = _running_records(ns, rh)
    p_rec = []
    best = -1
    for n, ok_n, p in zip(ns, ok, peak1[lo:hi + 1]):
        if ok_n and p > best:
            best = int(p)
            p_rec.append((int(n), int(p)))
    return RecordScan(
        lo, hi, g_rec, r_rec, tuple(p_rec), gamma_threshold, count, unknown
    )
