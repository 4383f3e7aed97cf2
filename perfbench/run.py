"""collatz-lab benchmark: four workloads, end to end and layer by layer.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout; the package is imported from its `src`.
Each run times a fresh interpreter importing the package (set-up), then
starts one more fresh interpreter (workload.py) that repeats the
workload's operations for S seconds.  The outputs of every operation
are checked against computations made apart from the package
(checks.py, reference.py).  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics, which are the
end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
`--workload all` runs every workload both ways and prints every metric.
See perfbench/README.md for the workloads and what each metric shows.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from reference import record_figures  # noqa: E402
from tracing import LAYER_METRICS, median_figures  # noqa: E402

WORKLOADS = ("verify-low", "verify-frontier", "records-scan", "exact-orbits")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 170

# Sizes: each round takes a few seconds on a 2-core machine without numba.
VERIFY_LOW_HI = 5_000_000
FRONTIER_K = 20
FRONTIER_SPANS = 4          # whole 2^20 spans in the window
FRONTIER_EDGE = 1000        # starts in each ragged edge, checked densely
FRONTIER_STOP_AT = 2        # chunk after which the resumed run is interrupted
RECORDS_HI = 1_000_000
TABLE_BASE = 31415926535897932384626433832795028800  # 100 * floor(pi * 10^35)
CENSUS_LENGTH = 1000
CENSUS_JITTER = 10**6
HUGE_BITS = 6000
TAG_N = 97
SET_BOUNDS = {"s0": 100_000, "s1": 1_000_000}
SAMPLES = 40

# The plan-mismatch probe uses fixed inputs: it fails on every run while
# checkpoints ignore the chunk plan, so its share of failures is constant.
# It is the only operation allowed to fail.
PROBE = {"lo": 2**40, "hi": 2**40 + 64 * 2**12 - 1, "k": 12,
         "spans_first": 4, "spans_resumed": 16, "stop_at": 2}
MAY_FAIL = ("plan-mismatch-probe",)


def make_inputs(workload: str, seed: int) -> dict:
    """The program's inputs for one run; the same seed gives the same inputs."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "verify-low":
        return {"verify": {"lo": 1, "hi": VERIFY_LOW_HI, "k": 16, "workers": 1}}
    if workload == "verify-frontier":
        span = 1 << FRONTIER_K
        lo = 2**62 + rng.randrange(1, 2**30) * span - FRONTIER_EDGE
        v = {"lo": lo, "hi": lo + FRONTIER_SPANS * span + 2 * FRONTIER_EDGE - 1,
             "k": FRONTIER_K, "workers": 2, "spans_per_chunk": 1,
             "stop_at": FRONTIER_STOP_AT}
        return {"verify": v, "probe": PROBE}
    if workload == "records-scan":
        return {"records": {"lo": 2, "hi": RECORDS_HI}}
    if workload == "exact-orbits":
        return {
            "census": [{"base": base + rng.randrange(CENSUS_JITTER), "length": CENSUS_LENGTH,
                        "offsets": sorted(rng.sample(range(CENSUS_LENGTH), SAMPLES))}
                       for base in (10**35, 10**36, TABLE_BASE)],
            "huge": rng.getrandbits(HUGE_BITS) | (1 << (HUGE_BITS - 1)),
            "residual_ks": sorted(rng.sample(range(1000), SAMPLES)),
            "cycles": [
                {"map": "3x+1", "lo": 1, "hi": 10**6},
                {"map": "5x+1", "lo": 1, "hi": 300, "limit_steps": 2000, "limit_bits": 256},
                {"map": "U", "lo": 1, "hi": 300, "limit_steps": 2000, "limit_bits": 256},
            ],
            "tag_n": TAG_N,
            "sets": SET_BOUNDS,
        }
    raise ValueError("unknown workload %r" % workload)


def expected_docs(workload: str, inp: dict) -> list[str]:
    """The operations of a workload that must each produce a document."""
    return {
        "verify-low": ["verify"],
        "verify-frontier": ["verify-straight", "verify-resumed"],
        "records-scan": ["records"],
        "exact-orbits": ["census-%d" % i for i in range(len(inp.get("census", ())))]
        + ["stats", "compare"]
        + ["cycles-%d" % i for i in range(len(inp.get("cycles", ())))]
        + ["tag-run", "tag-check", "sets-s0", "sets-s1"],
    }[workload]


def check_outputs(workload: str, inp: dict, docs: dict, failed_ops=()) -> list[str]:
    """Problems found in the first round's outputs.

    An operation that failed, other than the plan-mismatch probe, or one
    that left no document is a problem in itself; the checks run on the
    documents that are there.
    """
    bad = ["operation %s failed" % name for name in failed_ops if name not in MAY_FAIL]
    bad += ["operation %s produced no output" % name
            for name in expected_docs(workload, inp) if name not in docs]
    if workload in ("verify-low", "verify-frontier"):
        v = inp["verify"]
        if workload == "verify-low":
            reports = [docs.get("verify")]
        else:
            resumed = docs.get("verify-resumed")
            reports = [docs.get("verify-straight"), resumed and resumed["report"]]
            if resumed and docs.get("verify-straight"):
                bad += checks.check_resumed(docs["verify-straight"], resumed["report"],
                                            resumed["interrupted_at"])
        for doc in reports:
            if doc is not None:
                bad += checks.check_verify(doc, v["lo"], v["hi"], v["k"])
    elif workload == "records-scan":
        if "records" in docs:
            r = inp["records"]
            bad += checks.check_records(docs["records"], record_figures(r["lo"], r["hi"]))
    else:
        for i, c in enumerate(inp["census"]):
            if "census-%d" % i in docs:
                bad += checks.check_census(docs["census-%d" % i], c["base"], c["length"],
                                           c["offsets"])
        if "stats" in docs:
            bad += checks.check_stats(docs["stats"], inp["huge"])
        if "compare" in docs:
            bad += checks.check_compare(docs["compare"], inp["huge"], inp["residual_ks"])
        expect = {"3x+1": {"only": [[1, 2]]}, "5x+1": {"must_contain": (1, 13, 17)}, "U": {}}
        for i, c in enumerate(inp["cycles"]):
            if "cycles-%d" % i in docs:
                bad += checks.check_cycles(docs["cycles-%d" % i], c["map"], **expect[c["map"]])
        if "tag-run" in docs:
            bad += checks.check_tag_run(docs["tag-run"], inp["tag_n"])
        if "tag-check" in docs:
            bad += checks.check_tag_check(docs["tag-check"], inp["tag_n"])
        if "sets-s0" in docs:
            bad += checks.check_s0(docs["sets-s0"], inp["sets"]["s0"])
        if "sets-s1" in docs:
            bad += checks.check_s1(docs["sets-s1"], inp["sets"]["s1"])
    return bad


def time_setup(samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter to the package imported and ready."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, os.path.join(HERE, "workload.py"), "--probe"],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed:\n%s" % err.strip())
        times.append(elapsed)
    return times


def _commit():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "collatz_lab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(worker_env: dict) -> dict:
    return dict(worker_env, nproc=os.cpu_count(), platform=platform.platform(),
                commit=_commit(), source_sha256=_source_digest(),
                kernel_backend="numba" if worker_env["using_numba"] else "python")


def run_once(workload: str, seed: int, seconds: int, trace: bool, tmp_dir: str) -> dict:
    inputs = make_inputs(workload, seed)
    setup = time_setup(SETUP_SAMPLES)
    work_dir = tempfile.mkdtemp(prefix="%s-" % workload, dir=tmp_dir)
    spec = {"workload": workload, "inputs": inputs, "seconds": seconds, "trace": trace,
            "work_dir": work_dir}
    spec_path = os.path.join(work_dir, "spec.json")
    result_path = os.path.join(work_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workload.py"), spec_path,
                           result_path], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("workload %s failed:\n%s" % (workload, proc.stderr.strip()))
    with open(result_path) as fh:
        result = json.load(fh)
    problems = (check_outputs(workload, inputs, result["docs"], result["failed_ops"])
                + result["mismatches"])
    plain = [r for r in result["rounds"] if not r["traced"]]
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": result["peak_rss_mib"],
    }
    layers = None
    traced = [r for r in result["rounds"] if r["traced"]]
    if traced:
        layers = median_figures([r["layers"] for r in traced])
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - metrics["wall_s"])
    return {
        "workload": workload,
        "seed": seed,
        "correct": not problems,
        "problems": problems,
        "op_errors": result["op_errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "metrics": metrics,
        "layers": layers,
        "env": environment(result["env"]),
    }


def report_lines(res: dict) -> list[str]:
    lines = ["workload %s seed %d: %d plain and %d traced rounds, %d of %d operations failed"
             % (res["workload"], res["seed"], res["rounds"], res["traced_rounds"],
                res["failed"], res["attempted"])]
    lines.append("environment %s" % json.dumps(res["env"], sort_keys=True))
    lines += ["failed operation: %s" % e for e in res["op_errors"]]
    lines += ["WRONG OUTPUT: %s" % p for p in res["problems"]]
    for name, unit in END_TO_END:
        lines.append("  %-40s %14.6g %s" % (name, res["metrics"][name], unit))
    if res["layers"] is not None:
        for name, unit, _ in LAYER_METRICS:
            lines.append("  %-40s %14.6g %s" % (name, res["layers"][name], unit))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="collatz-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.workload == "all":
            runs = [run_once(w, args.seed, args.seconds, trace, tmp_dir)
                    for w in WORKLOADS for trace in (False, True)]
        else:
            runs = [run_once(args.workload, args.seed, args.seconds, bool(args.trace), tmp_dir)]
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(tmp_root)
    for res in runs:
        print("\n".join(report_lines(res)))
    units = dict(END_TO_END)
    units.update((name, unit) for name, unit, _ in LAYER_METRICS)
    metrics = {}
    for res in runs:
        traced = res["layers"] is not None
        shown = res["layers"] if traced else res["metrics"]
        prefix = ""
        if args.workload == "all":
            prefix = res["workload"] + ("/trace/" if traced else "/")
        metrics.update((prefix + name, {"value": value, "unit": units[name]})
                       for name, value in shown.items())
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
