"""Correctness checks for the benchmark's workloads, written apart from the package.

Nothing here imports collatz_lab.  Each check takes the documents the
program produced (the `collatz-lab/1` JSON the command writes, or the
figures a library call returned) and returns a list of problems; an
empty list means the output passed.  The checks recompute what they can
with the walker below, and otherwise test a property the method must
have.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

# Drift of log x per halved step in the random-walk model: (log 3/2 + log 1/2) / 2.
MODEL_SLOPE = 0.5 * math.log(3.0 / 4.0)
REL_TOL = 1e-9

STEP_RULES = {
    "3x+1": lambda x: (3 * x + 1) >> 1 if x & 1 else x >> 1,
    "5x+1": lambda x: (5 * x + 1) >> 1 if x & 1 else x >> 1,
    "U": lambda x: 3 * (x >> 1) if x % 2 == 0 else 3 * (x >> 2) + (1 if x % 4 == 1 else 2),
}
t_step = STEP_RULES["3x+1"]


def orbit(n: int) -> list[int]:
    """The halved 3x+1 orbit of n down to 1, start included."""
    out = [n]
    x = n
    while x != 1:
        x = t_step(x)
        out.append(x)
    return out


def walk(n: int) -> dict:
    """Every single-start figure of n, from one walk of its orbit."""
    x = n
    steps = odd = peak = 0
    stop = None
    while x != 1:
        odd += x & 1
        x = t_step(x)
        steps += 1
        if x > peak:
            peak = x
        if stop is None and x < n:
            stop = steps
    return {"steps": steps, "odd": odd, "peak": peak, "stop": stop}


def _close(a, b) -> bool:
    return a is not None and b is not None and math.isclose(a, b, rel_tol=REL_TOL)


def _ratio(odd: int, steps: int) -> list[int]:
    f = Fraction(odd, steps)
    return [f.numerator, f.denominator]


# -- verify ---------------------------------------------------------------

VERIFY_DETERMINISTIC = (
    "lo", "hi", "k", "checked_dense", "checked_survivors", "skipped",
    "counterexamples", "chunks_total",
)


def survivor_count(k: int) -> int:
    """Residue classes mod 2^k that the sieve cannot settle, counted from parity words.

    Residues mod 2^k and the parity words of their first k halved steps
    are in bijection.  A class is settled once some prefix of j steps
    has 3^(odd steps) < 2^j; the survivors are the words with no such
    prefix (1, 1, 2, 3, 4, 8, 13, 19, 38, 64, ... for k = 1, 2, ...).
    """
    ways = {0: 1}  # odd steps so far -> words of this length that survive
    for j in range(1, k + 1):
        grown: dict = {}
        for c, w in ways.items():
            for odd in (0, 1):
                if 3 ** (c + odd) > 1 << j:
                    grown[c + odd] = grown.get(c + odd, 0) + w
        ways = grown
    return sum(ways.values())


def planned_counts(lo: int, hi: int, k: int) -> tuple[int, int]:
    """(dense starts, whole spans) of [lo, hi] at width k.

    A span is a block [q * 2^k, (q + 1) * 2^k) with q >= 1 that lies
    wholly inside the range; only its survivor classes are followed.
    Every start outside the spans is stepped one by one.
    """
    width = 1 << k
    q0 = max(1, -(-lo // width))
    q1 = (hi + 1) // width
    spans = max(0, q1 - q0)
    return hi - lo + 1 - spans * width, spans


def check_verify(doc: dict, lo: int, hi: int, k: int) -> list[str]:
    """Any counterexample below 2^68 contradicts the published verification.

    The counts are recomputed from the range and k alone, so a kernel
    that checks fewer starts than it should is caught.
    """
    bad = []
    if (doc.get("lo"), doc.get("hi"), doc.get("k")) != (lo, hi, k):
        bad.append("report covers k=%r [%r, %r], asked k=%d [%d, %d]"
                   % (doc.get("k"), doc.get("lo"), doc.get("hi"), k, lo, hi))
    if doc.get("counterexamples"):
        bad.append("report lists counterexamples %r" % (doc["counterexamples"][:5],))
    parts = [doc.get(f) for f in ("checked_dense", "checked_survivors", "skipped")]
    if any(not isinstance(p, int) or p < 0 for p in parts) or sum(parts) != hi - lo + 1:
        bad.append("dense %r + survivors %r + skipped %r != %d starts"
                   % (*parts, hi - lo + 1))
    dense, spans = planned_counts(lo, hi, k)
    want = {"checked_dense": dense, "checked_survivors": spans * survivor_count(k)}
    for field, value in want.items():
        if doc.get(field) != value:
            bad.append("%s %r, the range and k give %d" % (field, doc.get(field), value))
    return bad


def check_resumed(straight: dict, resumed: dict, interrupted_at: int) -> list[str]:
    """An interrupted and resumed run reports what a straight run reports."""
    bad = []
    for field in VERIFY_DETERMINISTIC:
        if straight.get(field) != resumed.get(field):
            bad.append("resumed %s %r differs from straight-through %r"
                       % (field, resumed.get(field), straight.get(field)))
    if resumed.get("chunks_done_before") != interrupted_at:
        bad.append("resume credited %r chunks, the interrupted run committed %d"
                   % (resumed.get("chunks_done_before"), interrupted_at))
    return bad


# -- records --------------------------------------------------------------

RECORD_TABLES = ("gamma_records", "rho_records", "peak_records")
_RECORD_KEYS = {
    "gamma_records": "steps_per_log_records",
    "rho_records": "peak_log_ratio_records",
    "peak_records": "peak_records",
}


def check_records(doc: dict, reference: dict) -> list[str]:
    """Records doc against the plain-Python reference and a fresh walk of each holder."""
    bad = []
    if doc.get("unknown"):
        bad.append("scan left undecided starts %r" % (doc["unknown"][:5],))
    walked = {}
    for table in RECORD_TABLES:
        rows = doc.get(_RECORD_KEYS[table]) or []
        values = [v for _, v in rows]
        if any(b <= a for a, b in zip(values, values[1:])):
            bad.append("%s values do not strictly increase" % table)
        holders = [n for n, _ in rows]
        ref_holders = [n for n, _ in reference[table]]
        if holders != ref_holders:
            bad.append("%s holders %r differ from the reference %r"
                       % (table, holders, ref_holders))
        for n, v in rows:
            w = walked.setdefault(n, walk(n))
            ln = math.log(n)
            want = {
                "gamma_records": w["steps"] / ln,
                "rho_records": math.log(w["peak"]) / ln,
                "peak_records": w["peak"],
            }[table]
            ok = v == want if table == "peak_records" else _close(v, want)
            if not ok:
                bad.append("%s holder %d has %r, its orbit gives %r" % (table, n, v, want))
    if doc.get("threshold_count") != reference["threshold_count"]:
        bad.append("threshold count %r, reference %r"
                   % (doc.get("threshold_count"), reference["threshold_count"]))
    return bad


# -- exact orbits ---------------------------------------------------------

def check_census(doc: dict, base: int, length: int, offsets) -> list[str]:
    bad = []
    counts = doc.get("step_counts") or []
    rows = doc.get("rows") or []
    if doc.get("base") != base or doc.get("length") != length:
        bad.append("census covers %r+%r, asked %d+%d"
                   % (doc.get("base"), doc.get("length"), base, length))
    if doc.get("unknown_offsets") or doc.get("anomalies"):
        bad.append("census reports unknown offsets or ratio anomalies")
    if sum(r["count"] for r in rows) != length:
        bad.append("census rows sum to %d, block has %d starts"
                   % (sum(r["count"] for r in rows), length))
    if len(counts) != length or Counter(counts) != {r["steps"]: r["count"] for r in rows}:
        bad.append("census rows disagree with its per-start step counts")
    ratio_of = {r["steps"]: r["odd_ratio"] for r in rows}
    for off in offsets:
        w = walk(base + off)
        if off >= len(counts) or counts[off] != w["steps"]:
            bad.append("offset %d: census says %r steps, walk gives %d"
                       % (off, counts[off] if off < len(counts) else None, w["steps"]))
        elif ratio_of.get(w["steps"]) != _ratio(w["odd"], w["steps"]):
            bad.append("offset %d: odd ratio %r, walk gives %r"
                       % (off, ratio_of.get(w["steps"]), _ratio(w["odd"], w["steps"])))
    return bad


def check_stats(doc: dict, n: int) -> list[str]:
    w = walk(n)
    ln = math.log(n)
    want = {
        "n": n,
        "total_steps": w["steps"],
        "stopping_time": w["stop"],
        "odd_ratio": _ratio(w["odd"], w["steps"]),
    }
    bad = ["stats %s %r, walk gives %r" % (key, doc.get(key), value)
           for key, value in want.items() if doc.get(key) != value]
    if not _close(doc.get("peak_log_ratio"), math.log(w["peak"]) / ln):
        bad.append("stats peak_log_ratio %r, walk gives %r"
                   % (doc.get("peak_log_ratio"), math.log(w["peak"]) / ln))
    if not _close(doc.get("steps_per_log"), w["steps"] / ln):
        bad.append("stats steps_per_log %r, walk gives %r"
                   % (doc.get("steps_per_log"), w["steps"] / ln))
    return bad


def check_compare(doc: dict, n: int, ks) -> list[str]:
    """Residual k is log x_k minus the drift line log n + slope * k."""
    values = orbit(n)
    residuals = doc.get("residuals") or []
    bad = []
    if doc.get("n") != n or doc.get("steps") != len(values) - 1:
        bad.append("comparison of %r with %r steps, walk gives %d steps"
                   % (doc.get("n"), doc.get("steps"), len(values) - 1))
    if len(residuals) != len(values):
        return bad + ["%d residuals for an orbit of %d values" % (len(residuals), len(values))]
    ln = math.log(n)
    for k in ks:
        want = math.log(values[k]) - (ln + MODEL_SLOPE * k)
        if not math.isclose(residuals[k], want, rel_tol=REL_TOL, abs_tol=1e-9):
            bad.append("residual %d is %r, walk gives %r" % (k, residuals[k], want))
    if doc.get("max_abs_residual") != max(abs(r) for r in residuals):
        bad.append("max_abs_residual is not the largest residual")
    return bad


def cycle_through(rule: str, n: int, limit: int = 10_000) -> list[int]:
    """The cycle of rule that n lies on, smallest member first."""
    step = STEP_RULES[rule]
    members = [n]
    x = step(n)
    while x != n:
        members.append(x)
        if len(members) > limit:
            raise ValueError("%d is not on a cycle of %s" % (n, rule))
        x = step(x)
    i = members.index(min(members))
    return members[i:] + members[:i]


def check_cycles(doc: dict, rule: str, must_contain=(), only=None) -> list[str]:
    """Every cycle closes under the rule; known cycles are found."""
    step = STEP_RULES[rule]
    cycles = doc.get("cycles") or []
    bad = []
    for members in cycles:
        closes = all(step(m) == members[(i + 1) % len(members)]
                     for i, m in enumerate(members))
        if not closes or members[0] != min(members) or len(set(members)) != len(members):
            bad.append("%s cycle %r does not close under the rule" % (rule, members[:8]))
    for n in must_contain:
        want = cycle_through(rule, n)
        if want not in cycles:
            bad.append("%s census misses the cycle %r" % (rule, want))
    if only is not None:
        if cycles != only:
            bad.append("%s census found %r, expected only %r" % (rule, cycles[:4], only))
        if doc.get("limit_starts") or doc.get("undefined_starts"):
            bad.append("%s census left starts unresolved" % rule)
    return bad


def check_tag_run(doc: dict, n: int) -> list[str]:
    lengths = [length for _, length in doc.get("zero_lengths") or []]
    bad = []
    if doc.get("outcome") != "halted":
        bad.append("tag run from 0^%d ended %r" % (n, doc.get("outcome")))
    if lengths != orbit(n):
        bad.append("all-zero lengths from 0^%d (%d of them) are not the orbit of %d"
                   % (n, len(lengths), n))
    return bad


def check_tag_check(doc: dict, n: int) -> list[str]:
    text = doc.get("stdout", "")
    if doc.get("exit") != 0 or "DO NOT" in text or "match" not in text:
        return ["tag check %d answered %r with exit %r" % (n, text.strip(), doc.get("exit"))]
    return []


def check_s0(doc: dict, bound: int) -> list[str]:
    """Below its bound, s0 holds every start whose orbit reaches 1."""
    members = doc.get("members") or []
    if members != list(range(1, bound + 1)):
        missing = sorted(set(range(1, bound + 1)) - set(members))[:5]
        return ["s0 up to %d has %d members, missing %r" % (bound, len(members), missing)]
    return []


S1_GENERATORS = ((2, 1), (3, 1), (6, 1))


def check_s1(doc: dict, bound: int) -> list[str]:
    """s1 is the closure of {1} under 2x+1, 3x+1 and 6x+1."""
    members = doc.get("members") or []
    have = set(members)
    bad = []
    if 1 not in have or any(m < 1 or m > bound for m in members):
        bad.append("s1 members must include 1 and lie in [1, %d]" % bound)
    for m in members:
        missing = [a * m + b for a, b in S1_GENERATORS
                   if a * m + b <= bound and a * m + b not in have]
        if missing:
            bad.append("s1 is not closed: %d is a member but %r are not" % (m, missing))
            break
    for m in members:
        if m > 1 and not any((m - b) % a == 0 and (m - b) // a in have
                             for a, b in S1_GENERATORS):
            bad.append("s1 member %d has no member predecessor" % m)
            break
    return bad
