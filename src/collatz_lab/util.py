"""Shared numeric helpers: big-integer logarithms and fixed-point rendering."""

from __future__ import annotations

import math
from fractions import Fraction

from .maps import TABLE_BASE


def log_nat(n: int) -> float:
    """Natural log of a positive integer of any size.

    Uses the top 64 bits as a mantissa plus bit-length scaling, so the
    result is accurate to double precision (well past 12 significant
    digits) even when n itself far exceeds float range.
    """
    if n <= 0:
        raise ValueError("log_nat requires a positive integer")
    bits = n.bit_length()
    if bits <= 64:
        return math.log(n)
    shift = bits - 64
    return math.log(n >> shift) + shift * math.log(2.0)


def format_fixed5(value: Fraction) -> str:
    """Render an exact non-negative rational with five decimal places.

    Digits beyond the fifth decimal are dropped (truncation toward zero),
    which is the convention the reference tabulations use; 255/529 gives
    "0.48204" and 288/573 gives "0.50261".
    """
    if value < 0:
        raise ValueError("format_fixed5 expects a non-negative value")
    scaled = (value.numerator * 100000) // value.denominator
    whole, frac = divmod(scaled, 100000)
    return "%d.%05d" % (whole, frac)


def parse_natural(text: str) -> int:
    """Parse a positive integer written as a CLI argument.

    Accepts plain decimal (grouping by "_" or "," tolerated), exact
    scientific shorthand like 1e9, and the literal token
    100*floor(pi*1e35) which names the fixed 38-digit base used by the
    reference tables.
    """
    s = text.strip().replace(",", "").replace("_", "")
    if s == "100*floor(pi*1e35)":
        return TABLE_BASE
    low = s.lower()
    if "e" in low:
        head, _, exp = low.partition("e")
        if head.isdigit() and exp.isdigit():
            return int(head) * 10 ** int(exp)
        raise ValueError("scientific form must be <digits>e<digits>: %r" % text)
    if not s.isdigit():
        raise ValueError("not a natural number: %r" % text)
    return int(s)
