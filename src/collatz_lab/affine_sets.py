"""Integer sets generated from seeds by affine maps, kept under a ceiling.

A generator is x -> a*x + b, optionally guarded: a guarded generator
applies only to x in one residue class and divides out the modulus,
x -> (a*x + b) / modulus.  Closures are explored breadth-first below
a ceiling.  When every generator is nondecreasing the ceiling prune
loses nothing; a shrinking generator can re-enter from above, so such
closures are exact only via a structure argument, as with the
doubling/backtracking preset below.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import stats
from .trajectory import DEFAULT_LIMITS

@dataclass(frozen=True)
class AffineGenerator:
    """x -> a*x + b, or (a*x + b) / modulus on one residue class.

    guard is (residue, modulus); with a guard the image must be an
    integer on the whole class, which forces a*residue + b to be
    divisible by the modulus.
    """

    a: int
    b: int
    guard: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.a < 1:
            raise ValueError("coefficient a must be >= 1, got %r" % (self.a,))
        if self.guard is not None:
            residue, modulus = self.guard
            if modulus < 2 or not 0 <= residue < modulus:
                raise ValueError("guard needs 0 <= residue < modulus, modulus >= 2")
            if (self.a * residue + self.b) % modulus != 0:
                raise ValueError(
                    "(%d*x + %d) is not divisible by %d on the class x = %d mod %d"
                    % (self.a, self.b, modulus, residue, modulus)
                )

    @property
    def nondecreasing(self) -> bool:
        """True when the image never falls below x for any x >= 1."""
        if self.guard is None:
            return self.b >= 0
        _, modulus = self.guard
        return self.a >= modulus and self.b >= 0

    def image(self, x: int) -> int | None:
        """Value at x, or None when the guard excludes x."""
        if self.guard is not None:
            residue, modulus = self.guard
            if x % modulus != residue:
                return None
            return (self.a * x + self.b) // modulus
        return self.a * x + self.b


@dataclass(frozen=True)
class ClosureResult:
    ceiling: int
    members: tuple[int, ...]
    pruned: bool
    exact: bool


def closure_up_to(
    generators,
    seeds,
    ceiling: int,
) -> ClosureResult:
    """Members of the generated set that lie in [1, ceiling].

    pruned reports whether any image exceeded the ceiling; exact is
    False only when pruning happened and some generator can shrink,
    since only then could an unexplored value lead back down.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if ceiling < 1:
        raise ValueError("ceiling must be >= 1")
    seen: set[int] = set()
    queue: deque[int] = deque()
    for s in seeds:
        if s < 1:
            raise ValueError("seeds must be positive, got %r" % (s,))
        if s <= ceiling and s not in seen:
            seen.add(s)
            queue.append(s)
    pruned = False
    while queue:
        x = queue.popleft()
        for g in gens:
            y = g.image(x)
            if y is None:
                continue
            if y > ceiling:
                pruned = True
                continue
            if y >= 1 and y not in seen:
                seen.add(y)
                queue.append(y)
    monotone = all(g.nondecreasing for g in gens)
    return ClosureResult(
        ceiling=ceiling,
        members=tuple(sorted(seen)),
        pruned=pruned,
        exact=monotone or not pruned,
    )


DEFAULT_HEADROOM_BITS = 20


def backward_collatz_set(bound: int, ceiling: int | None = None) -> ClosureResult:
    """Closure of {1} under x -> 2x and x = 2 mod 3 -> (2x - 1) / 3, up to bound.

    Both maps invert one halved 3x+1 step, and every m > 1 is the
    image of exactly one value, namely T(m): m even comes only from
    doubling m/2, m odd only from backtracking (3m + 1) / 2.  A chain
    of generator applications from 1 to m is therefore the reversed
    orbit of m, so m belongs to the ceiling-bounded closure exactly
    when its orbit reaches 1 without any iterate exceeding the
    ceiling.  That test runs forward, in the records scan under
    DEFAULT_LIMITS with the ceiling as the cap on every iterate after
    the start: m is a member when its walk to its first iterate t below
    m stays under the ceiling and t is a member (within the step
    budget), which avoids exploring the whole closure up to the much
    larger ceiling.  A start the scan hands back at the int64 guard is
    decided from its exact orbit.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if ceiling is None:
        ceiling = bound << DEFAULT_HEADROOM_BITS
    if ceiling < bound:
        raise ValueError("ceiling below bound would cut off the requested range")
    member = np.ones(bound + 1, bool)
    member[0] = False
    member[stats._scan(bound, DEFAULT_LIMITS, ceiling)] = False
    members = tuple(np.flatnonzero(member).tolist())
    return ClosureResult(
        ceiling=ceiling, members=members, pruned=len(members) < bound, exact=True
    )


def backward_collatz_generators() -> tuple[AffineGenerator, AffineGenerator]:
    return (AffineGenerator(2, 0), AffineGenerator(2, -1, guard=(2, 3)))


PRESET_GENERATORS = {
    "s0": backward_collatz_generators(),
    "s1": (AffineGenerator(2, 1), AffineGenerator(3, 1), AffineGenerator(6, 1)),
    "s2": (AffineGenerator(2, 0), AffineGenerator(3, 2), AffineGenerator(6, 3)),
}

PRESET_SEEDS = {"s0": (1,), "s1": (1,), "s2": (1,)}


def preset_closure(name: str, bound: int, ceiling: int | None = None) -> ClosureResult:
    """Members of a named preset set up to bound.

    s1 and s2 grow monotonically, so the bound is its own ceiling and
    the breadth-first pass is exact.  s0 can step downward, so its
    members are decided by the forward test instead, under a ceiling
    defaulting to bound shifted up by DEFAULT_HEADROOM_BITS.
    """
    if name not in PRESET_GENERATORS:
        raise ValueError(
            "unknown preset %r, choose from %s" % (name, sorted(PRESET_GENERATORS))
        )
    if name == "s0":
        result = backward_collatz_set(bound, ceiling=ceiling)
    else:
        result = closure_up_to(PRESET_GENERATORS[name], PRESET_SEEDS[name], bound)
    return result


def density_profile(members, checkpoints) -> tuple[tuple[int, int, float], ...]:
    """(checkpoint, members <= checkpoint, that count / checkpoint) rows."""
    arr = np.asarray(sorted(members), dtype=np.int64)
    rows = []
    for x in checkpoints:
        if x < 1:
            raise ValueError("checkpoints must be positive")
        count = int(np.searchsorted(arr, x, side="right"))
        rows.append((int(x), count, count / x))
    return tuple(rows)
