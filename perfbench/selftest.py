"""Self-tests for the benchmark's checkers: each must reject a corrupted result.

Usage: python3 perfbench/selftest.py

Every valid document below is built by the benchmark's own walker or
reference scan, never by collatz_lab, in the shape the program's JSON
output has.  Each test shows the check passing it, then failing one or
more deliberately corrupted copies.
"""

from __future__ import annotations

import copy
import math
import os
import sys
import unittest
from collections import Counter, deque
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
from reference import record_figures  # noqa: E402


def census_doc(base: int, length: int) -> dict:
    walks = [checks.walk(base + off) for off in range(length)]
    counts = [w["steps"] for w in walks]
    ratio = {w["steps"]: Fraction(w["odd"], w["steps"]) for w in walks}
    rows = [{"steps": s, "count": c, "odd_ratio": [ratio[s].numerator, ratio[s].denominator]}
            for s, c in sorted(Counter(counts).items())]
    return {"base": base, "length": length, "rows": rows, "step_counts": counts,
            "unknown_offsets": [], "anomalies": []}


def verify_doc(lo: int, hi: int, k: int) -> dict:
    dense, spans = checks.planned_counts(lo, hi, k)
    survivors = spans * checks.survivor_count(k)
    return {"lo": lo, "hi": hi, "k": k, "checked_dense": dense,
            "checked_survivors": survivors, "skipped": hi - lo + 1 - dense - survivors,
            "counterexamples": [], "chunks_total": spans + 2, "chunks_done_before": 0}


def survivors_by_walk(k: int) -> int:
    """Residues mod 2^k whose first k halved steps never bring 3^c below 2^j."""
    count = 0
    for r in range(1 << k):
        x, c = r, 0
        for j in range(1, k + 1):
            c += x & 1
            x = checks.t_step(x)
            if 3**c < 1 << j:
                break
        else:
            count += 1
    return count


def records_doc(ref: dict) -> dict:
    return {"steps_per_log_records": copy.deepcopy(ref["gamma_records"]),
            "peak_log_ratio_records": copy.deepcopy(ref["rho_records"]),
            "peak_records": copy.deepcopy(ref["peak_records"]),
            "threshold_count": ref["threshold_count"], "unknown": []}


def s1_members(bound: int) -> list[int]:
    seen, queue = {1}, deque([1])
    while queue:
        x = queue.popleft()
        for a, b in checks.S1_GENERATORS:
            y = a * x + b
            if y <= bound and y not in seen:
                seen.add(y)
                queue.append(y)
    return sorted(seen)


class CheckerSelfTest(unittest.TestCase):
    def assertRejects(self, problems):
        self.assertTrue(problems, "a corrupted result was accepted")

    def test_census(self):
        base, offsets = 10**35 + 17, [0, 3, 11, 29]
        good = census_doc(base, 30)
        self.assertEqual(checks.check_census(good, base, 30, offsets), [])
        off_by_one = copy.deepcopy(good)
        off_by_one["rows"][0]["count"] += 1
        self.assertRejects(checks.check_census(off_by_one, base, 30, offsets))
        wrong_start = copy.deepcopy(good)
        wrong_start["step_counts"][11] += 1
        self.assertRejects(checks.check_census(wrong_start, base, 30, offsets))
        wrong_ratio = copy.deepcopy(good)
        wrong_ratio["rows"][0]["odd_ratio"] = [1, 2]
        self.assertRejects(checks.check_census(wrong_ratio, base, 30, range(30)))

    def test_survivor_count(self):
        for k in range(1, 13):
            self.assertEqual(checks.survivor_count(k), survivors_by_walk(k), k)
        self.assertEqual(checks.survivor_count(16), 2114)
        self.assertEqual(checks.survivor_count(20), 27328)

    def test_planned_counts(self):
        self.assertEqual(checks.planned_counts(1, 5_000_000, 16), (84_800, 75))
        lo = 2**62 + 5 * 2**20 - 1000
        self.assertEqual(checks.planned_counts(lo, lo + 4 * 2**20 + 1999, 20), (2000, 4))
        self.assertEqual(checks.planned_counts(10, 50, 16), (41, 0))

    def test_verify(self):
        lo, hi = 2**62 - 5000, 2**62 + 3 * 2**12 + 5000
        good = verify_doc(lo, hi, 12)
        self.assertGreater(good["checked_survivors"], 0)
        self.assertEqual(checks.check_verify(good, lo, hi, 12), [])
        counterexample = dict(good, counterexamples=[[lo + 7, "no-descent"]])
        self.assertRejects(checks.check_verify(counterexample, lo, hi, 12))
        broken_identity = dict(good, skipped=good["skipped"] - 1)
        self.assertRejects(checks.check_verify(broken_identity, lo, hi, 12))
        other_range = dict(good, hi=hi - 1, skipped=good["skipped"] - 1)
        self.assertRejects(checks.check_verify(other_range, lo, hi, 12))
        # survivors dropped by the kernel, with the identity kept
        dropped = dict(good, checked_survivors=good["checked_survivors"] - 3,
                       skipped=good["skipped"] + 3)
        self.assertRejects(checks.check_verify(dropped, lo, hi, 12))
        short_dense = dict(good, checked_dense=good["checked_dense"] - 1,
                           skipped=good["skipped"] + 1)
        self.assertRejects(checks.check_verify(short_dense, lo, hi, 12))

    def test_resumed(self):
        straight = verify_doc(1000, 9000, 12)
        resumed = dict(straight, chunks_done_before=2)
        self.assertEqual(checks.check_resumed(straight, resumed, 2), [])
        moved = dict(resumed, checked_survivors=resumed["checked_survivors"] + 1,
                     skipped=resumed["skipped"] - 1)
        self.assertRejects(checks.check_resumed(straight, moved, 2))
        self.assertRejects(checks.check_resumed(straight, resumed, 3))

    def test_records(self):
        ref = record_figures(2, 20_000)
        good = records_doc(ref)
        self.assertEqual(checks.check_records(good, ref), [])
        for key in ("steps_per_log_records", "peak_log_ratio_records", "peak_records"):
            dropped = copy.deepcopy(good)
            del dropped[key][len(dropped[key]) // 2]
            self.assertRejects(checks.check_records(dropped, ref))
        wrong_value = copy.deepcopy(good)
        wrong_value["peak_records"][-1][1] += 2
        self.assertRejects(checks.check_records(wrong_value, ref))
        wrong_count = dict(good, threshold_count=good["threshold_count"] + 1)
        self.assertRejects(checks.check_records(wrong_count, ref))
        # a holder whose value does not exceed its predecessor's
        flat = copy.deepcopy(good)
        flat["steps_per_log_records"][2][1] = flat["steps_per_log_records"][1][1]
        self.assertRejects(checks.check_records(flat, ref))

    def test_stats_and_compare(self):
        n = 2**300 + 1234567
        w = checks.walk(n)
        ln = math.log(n)
        f = Fraction(w["odd"], w["steps"])
        stats = {"n": n, "total_steps": w["steps"], "stopping_time": w["stop"],
                 "odd_ratio": [f.numerator, f.denominator],
                 "peak_log_ratio": math.log(w["peak"]) / ln, "steps_per_log": w["steps"] / ln}
        self.assertEqual(checks.check_stats(stats, n), [])
        self.assertRejects(checks.check_stats(dict(stats, total_steps=w["steps"] - 1), n))
        self.assertRejects(checks.check_stats(dict(stats, steps_per_log=w["steps"] / ln * 1.001), n))
        residuals = [math.log(x) - (ln + checks.MODEL_SLOPE * k)
                     for k, x in enumerate(checks.orbit(n))]
        compare = {"n": n, "steps": w["steps"], "residuals": residuals,
                   "max_abs_residual": max(abs(r) for r in residuals)}
        self.assertEqual(checks.check_compare(compare, n, [0, 5, 100]), [])
        bent = copy.deepcopy(compare)
        bent["residuals"][5] += 1e-3
        self.assertRejects(checks.check_compare(bent, n, [0, 5, 100]))
        short = dict(compare, residuals=residuals[:-1])
        self.assertRejects(checks.check_compare(short, n, [0]))

    def test_cycles(self):
        five = {"cycles": [checks.cycle_through("5x+1", n) for n in (1, 13, 17)],
                "limit_starts": [7], "undefined_starts": []}
        self.assertEqual(checks.check_cycles(five, "5x+1", must_contain=(1, 13, 17)), [])
        missing = dict(five, cycles=five["cycles"][:1] + five["cycles"][2:])
        self.assertRejects(checks.check_cycles(missing, "5x+1", must_contain=(1, 13, 17)))
        not_closed = dict(five, cycles=[five["cycles"][1][:-1]] + five["cycles"])
        self.assertRejects(checks.check_cycles(not_closed, "5x+1"))
        three = {"cycles": [[1, 2]], "limit_starts": [], "undefined_starts": []}
        self.assertEqual(checks.check_cycles(three, "3x+1", only=[[1, 2]]), [])
        self.assertRejects(checks.check_cycles(dict(three, cycles=[[1, 2], [4, 2]]), "3x+1",
                                               only=[[1, 2]]))
        self.assertRejects(checks.check_cycles(dict(three, limit_starts=[27]), "3x+1",
                                               only=[[1, 2]]))
        u = {"cycles": [checks.cycle_through("U", n) for n in (1, 2, 4)]}
        self.assertEqual(checks.check_cycles(u, "U"), [])
        self.assertRejects(checks.check_cycles({"cycles": [[2, 4]]}, "U"))

    def test_tag(self):
        n = 97
        good = {"outcome": "halted", "zero_lengths": [[i * 7, x] for i, x in
                                                      enumerate(checks.orbit(n))]}
        self.assertEqual(checks.check_tag_run(good, n), [])
        short = dict(good, zero_lengths=good["zero_lengths"][:-1])
        self.assertRejects(checks.check_tag_run(short, n))
        self.assertEqual(checks.check_tag_check(
            {"exit": 0, "stdout": "all-zero lengths match the halved 3x+1 orbit of 97\n"}, n), [])
        self.assertRejects(checks.check_tag_check(
            {"exit": 3, "stdout": "all-zero lengths DO NOT match the halved 3x+1 orbit of 97\n"},
            n))

    def test_failed_or_missing_operations(self):
        inp = run.make_inputs("verify-frontier", 3)
        v = inp["verify"]
        straight = verify_doc(v["lo"], v["hi"], v["k"])
        docs = {"verify-straight": straight,
                "verify-resumed": {"interrupted_at": v["stop_at"],
                                   "report": dict(straight, chunks_done_before=v["stop_at"])}}
        probe_failed = ["plan-mismatch-probe"]
        self.assertEqual(run.check_outputs("verify-frontier", inp, docs, probe_failed), [])
        self.assertRejects(run.check_outputs("verify-frontier", inp, docs,
                                             probe_failed + ["verify-resumed"]))
        missing = {"verify-straight": straight}
        self.assertRejects(run.check_outputs("verify-frontier", inp, missing, probe_failed))
        self.assertRejects(run.check_outputs("records-scan", run.make_inputs("records-scan", 3),
                                             {}, ["records"]))
        orbits = run.make_inputs("exact-orbits", 3)
        self.assertRejects(run.check_outputs("exact-orbits", orbits, {}))

    def test_sets(self):
        self.assertEqual(checks.check_s0({"members": list(range(1, 501))}, 500), [])
        self.assertRejects(checks.check_s0({"members": [m for m in range(1, 501) if m != 27]},
                                           500))
        members = s1_members(5000)
        self.assertEqual(checks.check_s1({"members": members}, 5000), [])
        self.assertRejects(checks.check_s1({"members": [m for m in members if m != 3]}, 5000))
        self.assertRejects(checks.check_s1({"members": members + [5001]}, 5000))
        stray = sorted(members + [8])  # 8 is no image of a member
        self.assertRejects(checks.check_s1({"members": stray}, 5000))


if __name__ == "__main__":
    unittest.main()
