"""Exact orbit computation: iteration, cycle detection, range censuses."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .maps import GeneralizedCollatzMap, u_map


class UndefinedStepError(ValueError):
    """Orbit reached a value where the map has no exact rule."""

    def __init__(self, value: int):
        super().__init__("map is undefined at %d" % value)
        self.value = value


@dataclass(frozen=True)
class IterationLimits:
    """Budgets that bound any orbit computation.

    max_steps caps map applications; max_bits caps the bit length of any
    produced value (an orbit passing it is reported, not truncated
    silently).
    """

    max_steps: int = 10**6
    max_bits: int = 10**5


DEFAULT_LIMITS = IterationLimits()


class Outcome(enum.Enum):
    REACHED_ONE = "reached-one"
    ENTERED_CYCLE = "entered-cycle"
    HIT_STEP_LIMIT = "step-limit"
    HIT_BIT_LIMIT = "bit-limit"
    HIT_UNDEFINED = "undefined"


@dataclass(frozen=True)
class Cycle:
    """A periodic orbit, stored rotated so the smallest member leads."""

    members: tuple[int, ...]

    @staticmethod
    def canonical(members) -> "Cycle":
        seq = list(members)
        i = seq.index(min(seq))
        return Cycle(tuple(seq[i:] + seq[:i]))

    @property
    def length(self) -> int:
        return len(self.members)

    @property
    def odd_count(self) -> int:
        return sum(1 for m in self.members if m % 2 == 1)


@dataclass(frozen=True)
class Trajectory:
    """One finite orbit segment together with how it ended.

    steps counts map applications, so the start is iterate zero.  peak is
    the largest value seen including the start; odd_count counts odd
    values among the iterates that were actually stepped from (the first
    `steps` of them).  values is None when aggregate-only mode was
    requested.
    """

    start: int
    outcome: Outcome
    steps: int
    final: int
    peak: int
    odd_count: int
    values: tuple[int, ...] | None = None
    cycle: Cycle | None = None


def _resolve_stop_at_one(map_: GeneralizedCollatzMap, stop_at_one: bool | None) -> bool:
    if stop_at_one is not None:
        return stop_at_one
    return map_.name in ("3x+1", "collatz")


def _walk_cycle(map_: GeneralizedCollatzMap, entry: int, length: int) -> Cycle:
    members = [entry]
    x = entry
    for _ in range(length - 1):
        x = map_.apply(x)
        members.append(x)
    return Cycle.canonical(members)


def _follow(map_, n, limits, hash_budget, stop_at_one, values=None, floor=None):
    """Step the orbit of n until it ends: the one loop behind every orbit here.

    It holds the one cycle detector.  Visited values are hashed until
    hash_budget total stored bits; past that a single sentinel is
    parked in the same table, moved at steps spaced 1, 2, 4, ... apart
    (Brent's power-of-two scheme), which finds any cycle in constant
    memory, possibly some steps after its first completion.  A repeat
    gives one member and the cycle length, which is all Cycle.canonical
    needs.  With floor set, the walk also stops at the first iterate in
    [floor, n).  Every iterate after the start is appended to values
    when a list is given.  Returns (outcome, steps, final, peak, odd,
    cycle), outcome None for a stop at the floor.
    """
    if floor is None:
        floor = n
    seen: dict[int, int] = {}
    room = hash_budget
    sentinel = 0  # no sentinel yet: orbit values are positive
    park = 0
    interval = 1
    x = n
    steps = 0
    peak = n
    odd = 0
    while True:
        if stop_at_one and x == 1:
            return Outcome.REACHED_ONE, steps, x, peak, odd, None
        prior = seen.get(x)
        if prior is not None:
            cycle = _walk_cycle(map_, x, steps - prior)
            return Outcome.ENTERED_CYCLE, steps, x, peak, odd, cycle
        if steps >= limits.max_steps:
            return Outcome.HIT_STEP_LIMIT, steps, x, peak, odd, None
        if room >= 0:
            seen[x] = steps
            room -= x.bit_length()
        elif steps >= park:
            seen.pop(sentinel, None)
            seen[x] = steps
            sentinel = x
            park = steps + interval
            interval *= 2
        odd += x & 1
        nxt = map_.apply(x)
        if nxt is None or nxt < 1:
            return Outcome.HIT_UNDEFINED, steps, x, peak, odd, None
        x = nxt
        steps += 1
        if values is not None:
            values.append(x)
        if x > peak:
            peak = x
        if x.bit_length() > limits.max_bits:
            return Outcome.HIT_BIT_LIMIT, steps, x, peak, odd, None
        if floor <= x < n:
            return None, steps, x, peak, odd, None


def iterate(
    map_: GeneralizedCollatzMap,
    n: int,
    limits: IterationLimits = DEFAULT_LIMITS,
    stop_at_one: bool | None = None,
    store_values: bool = True,
    hash_budget: int = 1 << 26,
) -> Trajectory:
    """Run an orbit until 1, a cycle, a budget, or an undefined value.

    stop_at_one defaults to on for the maps named 3x+1 and collatz and
    off otherwise; pass an explicit flag to override.  Cycle detection
    hashes visited values until hash_budget total stored bits, so a
    divergent orbit costs stepping time but bounded memory; past the
    budget a doubling sentinel takes over in the same loop, which still
    finds any cycle but may confirm it some steps after its first
    completion.  Every step, hashed or not, draws on max_steps.
    """
    if n < 1:
        raise ValueError("iteration starts at positive integers, got %r" % (n,))
    stop = _resolve_stop_at_one(map_, stop_at_one)
    values = [n] if store_values else None
    outcome, steps, final, peak, odd, cycle = _follow(
        map_, n, limits, hash_budget, stop, values)
    return Trajectory(n, outcome, steps, final, peak, odd,
                      tuple(values) if store_values else None, cycle)


def find_cycle(
    map_: GeneralizedCollatzMap,
    n: int,
    limits: IterationLimits = DEFAULT_LIMITS,
    hash_budget: int = 1 << 26,
) -> Cycle | None:
    """Locate the cycle the orbit of n eventually enters, if budgets allow.

    The orbit is followed by iterate with stop_at_one off, so this
    answers exactly when iterate reports ENTERED_CYCLE, under the same
    hash budget and the same step and bit budgets.  Returns None when a
    limit ends the search first; raises UndefinedStepError if the orbit
    leaves the map's domain.
    """
    traj = iterate(map_, n, limits, stop_at_one=False, store_values=False,
                   hash_budget=hash_budget)
    if traj.outcome is Outcome.HIT_UNDEFINED:
        raise UndefinedStepError(traj.final)
    return traj.cycle


@dataclass(frozen=True)
class CycleCensus:
    """Every cycle discovered from a start range, plus unresolved starts."""

    lo: int
    hi: int
    cycles: tuple[Cycle, ...]
    limit_starts: tuple[int, ...]
    undefined_starts: tuple[int, ...]


# cycle_census verdicts other than a Cycle
_LIMIT = "limit"
_UNDEFINED = "undefined"


def cycle_census(
    map_: GeneralizedCollatzMap,
    lo: int,
    hi: int,
    limits: IterationLimits = DEFAULT_LIMITS,
    hash_budget: int = 1 << 26,
) -> CycleCensus:
    """Classify every start in [lo, hi]: which cycle it reaches, or why not.

    Starts are processed in increasing order and an orbit that dips below
    the current start inherits that smaller start's classification.  An
    inherited cycle is genuine: the tail of the orbit is literally the
    smaller start's orbit, and a budget the smaller start exhausted would
    be exhausted by the longer path as well.  The walk to the dip and the
    smaller start's walk draw on separate budgets, though, so a start may
    be credited with a cycle that its own walk would not reach within the
    limits: under IterationLimits(60, 4096), 27 dips at step 59 and
    inherits the cycle [1, 2], while iterate stops it at the step limit.
    Orbits that do not dip are followed by the same loop and detector as
    iterate.  The verdict of start n is kept at index n - lo: a Cycle
    shared by every start that reaches it, or one of two module constants.
    """
    if lo < 1 or hi < lo:
        raise ValueError("census range must satisfy 1 <= lo <= hi")
    cycles: dict[tuple[int, ...], Cycle] = {}
    verdicts: list = []
    limit_starts = []
    undefined_starts = []
    for n in range(lo, hi + 1):
        outcome, _, x, _, _, cycle = _follow(map_, n, limits, hash_budget, False, None, lo)
        if outcome is None:
            verdict = verdicts[x - lo]
        elif cycle is not None:
            verdict = cycles.setdefault(cycle.members, cycle)
        elif outcome is Outcome.HIT_UNDEFINED:
            verdict = _UNDEFINED
        else:
            verdict = _LIMIT
        verdicts.append(verdict)
        if verdict is _LIMIT:
            limit_starts.append(n)
        elif verdict is _UNDEFINED:
            undefined_starts.append(n)
    ordered = sorted(cycles.values(), key=lambda c: (c.members[0], c.length, c.members))
    return CycleCensus(lo, hi, tuple(ordered), tuple(limit_starts), tuple(undefined_starts))


def permutation_orbit(
    n: int,
    limits: IterationLimits = DEFAULT_LIMITS,
    store_values: bool = True,
) -> Trajectory:
    """Orbit of n under the permutation 2n -> 3n, 4n+1 -> 3n+1, 4n+3 -> 3n+2."""
    return iterate(u_map(), n, limits=limits, stop_at_one=False, store_values=store_values)
