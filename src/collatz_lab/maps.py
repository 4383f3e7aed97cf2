"""Periodic piecewise-affine maps on the positive integers.

A map of modulus d sends x with x = i (mod d) to (a_i * x + b_i) / d.
The division is exact for every x in residue class i precisely when
i * a_i + b_i = 0 (mod d); classes violating that are either rejected
(total maps) or marked undefined (partial maps).
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field

Natural = int

# fixed 38-digit base used by the reference tables: 100 * floor(pi * 10^35)
TABLE_BASE = 31415926535897932384626433832795028800


class MapSpecError(ValueError):
    """Raised for maps whose rule table cannot produce exact integers."""


@dataclass(frozen=True)
class GeneralizedCollatzMap:
    """Immutable rule table for a modulus-d piecewise-affine map.

    pairs[i] holds (a_i, b_i) for residue class i.  partial maps keep
    inadmissible classes and report applications there as undefined
    (apply returns None).  _step is apply built once for this table:
    for a power-of-two d it takes the class with a mask and divides
    with a shift.
    """

    d: int
    pairs: tuple[tuple[int, int], ...]
    partial: bool = False
    name: str | None = None
    undefined_residues: frozenset[int] = field(init=False)
    _step: Callable[[int], int | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d < 2:
            raise MapSpecError("modulus must be at least 2, got %r" % (self.d,))
        if len(self.pairs) != self.d:
            raise MapSpecError(
                "expected %d coefficient pairs, got %d" % (self.d, len(self.pairs))
            )
        object.__setattr__(self, "pairs", tuple((int(a), int(b)) for a, b in self.pairs))
        bad = [i for i, (a, b) in enumerate(self.pairs) if (i * a + b) % self.d != 0]
        if bad and not self.partial:
            raise MapSpecError(
                "residue class %d is inadmissible: %d*%d+%d is not divisible by %d"
                % (bad[0], bad[0], self.pairs[bad[0]][0], self.pairs[bad[0]][1], self.d)
            )
        object.__setattr__(self, "undefined_residues", frozenset(bad))
        object.__setattr__(self, "_step", _make_step(self.d, self.pairs, self.undefined_residues))

    def __reduce__(self):
        # _step is a closure: pickle the table and rebuild it
        return (type(self), (self.d, self.pairs, self.partial, self.name))

    @property
    def relatively_prime_type(self) -> bool:
        """True when gcd(a_0 * ... * a_{d-1}, d) = 1."""
        prod = 1
        for a, _ in self.pairs:
            prod *= a
        return math.gcd(prod, self.d) == 1

    def apply(self, x: int) -> int | None:
        """One exact step; None when x falls in an undefined residue class."""
        i = x % self.d
        if i in self.undefined_residues:
            return None
        a, b = self.pairs[i]
        return (a * x + b) // self.d

    def __str__(self) -> str:
        body = ",".join("(%d,%d)" % p for p in self.pairs)
        return "d=%d;pairs=%s;partial=%s" % (self.d, body, str(self.partial).lower())


def _make_step(d: int, pairs, undefined) -> Callable[[int], int | None]:
    """One exact step of the map (d, pairs), the same function as apply."""
    rules = tuple(None if i in undefined else p for i, p in enumerate(pairs))
    if d & (d - 1):
        def step(x: int) -> int | None:
            rule = rules[x % d]
            if rule is None:
                return None
            return (rule[0] * x + rule[1]) // d
        return step
    mask = d - 1
    shift = d.bit_length() - 1

    def step_pow2(x: int) -> int | None:
        rule = rules[x & mask]
        if rule is None:
            return None
        return (rule[0] * x + rule[1]) >> shift
    return step_pow2


def collatz_step(x: int) -> int:
    """One step of the classic rule: halve evens, send odd x to 3x+1."""
    return x // 2 if x % 2 == 0 else 3 * x + 1


def t_step(x: int) -> int:
    """One step of the compressed rule: halve evens, send odd x to (3x+1)/2."""
    return x // 2 if x % 2 == 0 else (3 * x + 1) // 2


def collatz_permutation_U(x: int) -> int:
    """The everywhere-defined permutation: 2n -> 3n, 4n+1 -> 3n+1, 4n+3 -> 3n+2."""
    if x % 2 == 0:
        return 3 * (x // 2)
    if x % 4 == 1:
        return 3 * (x // 4) + 1
    return 3 * (x // 4) + 2


def make_general_map(
    d: int,
    pairs,
    allow_partial: bool = False,
    name: str | None = None,
) -> GeneralizedCollatzMap:
    """Build a map from its modulus and coefficient table, checking exactness."""
    return GeneralizedCollatzMap(d=d, pairs=tuple(pairs), partial=allow_partial, name=name)


def make_3k_map(k: int) -> GeneralizedCollatzMap:
    """The 3x+k family member: halve evens, send odd x to (3x+k)/2.

    k must be odd or the odd class is inadmissible.  The interesting
    members have k = 1 or 5 (mod 6); k divisible by 3 collapses onto a
    rescaled copy of the k=1 map.
    """
    if k < 1 or k % 2 == 0:
        raise MapSpecError("3x+k family needs odd k >= 1, got %r" % (k,))
    return make_general_map(2, [(1, 0), (3, k)], name="3x+%d" % k)


def t_map() -> GeneralizedCollatzMap:
    """Compressed 3x+1 map as a modulus-2 rule table."""
    return make_general_map(2, [(1, 0), (3, 1)], name="3x+1")


def collatz_map() -> GeneralizedCollatzMap:
    """Classic rule as a modulus-2 table: (x)/2 on evens, (6x+2)/2 = 3x+1 on odds."""
    return make_general_map(2, [(1, 0), (6, 2)], name="collatz")


def t5_map() -> GeneralizedCollatzMap:
    """5x+1 analogue: halve evens, send odd x to (5x+1)/2."""
    return make_general_map(2, [(1, 0), (5, 1)], name="5x+1")


def u_map() -> GeneralizedCollatzMap:
    """The permutation as a modulus-4 table; agrees with collatz_permutation_U."""
    return make_general_map(4, [(6, 0), (3, 1), (6, 0), (3, -1)], name="U")


_PAIR_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")


def parse_map_spec(text: str) -> GeneralizedCollatzMap:
    """Parse a map selector.

    Shorthands: 3x+1, collatz, 5x+1, U, and 3x+<k> for odd k.  The full
    form is d=<int>;pairs=(a0,b0),(a1,b1),...;partial=<bool>.
    """
    s = text.strip()
    low = s.lower()
    if low in ("3x+1", "t"):
        return t_map()
    if low == "collatz":
        return collatz_map()
    if low == "5x+1":
        return t5_map()
    if low == "u":
        return u_map()
    m = re.fullmatch(r"3x\+(\d+)", low)
    if m:
        return make_3k_map(int(m.group(1)))
    parts = dict(
        kv.split("=", 1) for kv in s.split(";") if "=" in kv
    )
    if "d" not in parts or "pairs" not in parts:
        raise MapSpecError("unrecognized map selector: %r" % text)
    d = int(parts["d"])
    pairs = [(int(a), int(b)) for a, b in _PAIR_RE.findall(parts["pairs"])]
    if len(pairs) != d:
        raise MapSpecError(
            "map selector lists %d pairs but d=%d: %r" % (len(pairs), d, text)
        )
    partial = parts.get("partial", "false").strip().lower() in ("1", "true", "yes")
    return make_general_map(d, pairs, allow_partial=partial, name=None)
