"""Run one workload's rounds in a fresh interpreter and record what they produced.

Usage: python3 perfbench/workload.py SPEC.json RESULT.json
       python3 perfbench/workload.py --probe

run.py starts this script; SPEC.json holds the generated inputs.  The
package is imported from the `src` directory of the checkout this file
sits in, and from nowhere else.  `--probe` only imports the package and
prints "ready", which is what run.py times as set-up.

Each round runs the workload's operations once, in order, through the
`collatz-lab` command (`cli.main` with `--format json --out FILE`) and
the library's public functions.  Rounds repeat until the requested
seconds have passed.  With tracing on, rounds alternate between plain
and traced, so one run yields both the layer figures and the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    sys.path.insert(0, SRC)
    import collatz_lab
    import collatz_lab.cli  # noqa: F401  (the command is part of set-up)

    where = os.path.abspath(collatz_lab.__file__)
    if not where.startswith(os.path.join(SRC, "collatz_lab") + os.sep):
        raise SystemExit("collatz_lab was imported from %s, not from %s" % (where, SRC))
    return collatz_lab


class Interrupted(Exception):
    """Raised from on_progress to stop a verification part way."""


class OpFailed(Exception):
    """An operation ended in a way its workload does not allow."""


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


class Ops:
    """The operations of every workload; each returns a JSON-ready document."""

    def __init__(self, inputs: dict, work_dir: str):
        from collatz_lab import _kernels, cli, sieve

        self.cli = cli
        self.sieve = sieve
        self.kernels = _kernels
        self.inp = inputs
        self.dir = work_dir
        self.interrupt_s: list[float] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def command(self, argv, ok_codes=(0,)) -> dict:
        """`collatz-lab ARGV --format json --out FILE`, parsed back from FILE."""
        out = self.path("out.json")
        _remove(out)
        code = self.cli.main([str(a) for a in argv] + ["--format", "json", "--out", out])
        if code not in ok_codes:
            raise OpFailed("collatz-lab %s exited %d" % (argv[0], code))
        with open(out) as fh:
            return json.load(fh)

    def _verify_argv(self, v: dict, checkpoint=None) -> list:
        argv = ["verify", "--from", v["lo"], "--to", v["hi"], "--sieve-k", v["k"],
                "--workers", v["workers"]]
        if "spans_per_chunk" in v:
            argv += ["--spans-per-chunk", v["spans_per_chunk"]]
        if checkpoint is not None:
            argv += ["--checkpoint", checkpoint]
        return argv

    def _stop_at(self, chunk: int, seen: dict):
        def on_progress(done, total, checked):
            if done == chunk:
                seen.update(done=done, checked=checked, t=time.perf_counter())
                raise Interrupted
        return on_progress

    # -- verify-low -------------------------------------------------------

    def verify_low(self) -> dict:
        return self.command(self._verify_argv(self.inp["verify"]))

    # -- verify-frontier --------------------------------------------------

    def verify_straight(self) -> dict:
        ck = self.path("straight.ck")
        _remove(ck)
        return self.command(self._verify_argv(self.inp["verify"], ck))

    def verify_resumed(self) -> dict:
        """Interrupt a checkpointed run through on_progress, then resume it."""
        v = self.inp["verify"]
        ck = self.path("resumed.ck")
        _remove(ck)
        seen: dict = {}
        try:
            self.sieve.verify_range(
                v["lo"], v["hi"], k=v["k"], workers=v["workers"], checkpoint_path=ck,
                spans_per_chunk=v["spans_per_chunk"],
                on_progress=self._stop_at(v["stop_at"], seen))
        except Interrupted:
            self.interrupt_s.append(time.perf_counter() - seen["t"])
        else:
            raise OpFailed("verification was not interrupted at chunk %d" % v["stop_at"])
        return {"interrupted_at": seen["done"], "report": self.command(self._verify_argv(v, ck))}

    def plan_probe(self) -> dict:
        """Resume a checkpoint under a different chunk plan.

        Sound outcomes: the resume is refused with CheckpointMismatchError,
        or the coverage it credits to the earlier run is no more than that
        run computed.  The kernels are counted to know what was computed.
        """
        p = self.inp["probe"]
        ck = self.path("probe.ck")
        _remove(ck)
        computed = [0]
        undo = []
        for name in ("verify_span", "verify_dense"):
            orig = getattr(self.kernels, name)

            def counting(*args, _orig=orig):
                out = _orig(*args)
                computed[0] += int(out[0])
                return out

            setattr(self.kernels, name, counting)
            undo.append((name, orig))
        try:
            seen: dict = {}
            try:
                self.sieve.verify_range(
                    p["lo"], p["hi"], k=p["k"], workers=1, checkpoint_path=ck,
                    spans_per_chunk=p["spans_first"], on_progress=self._stop_at(p["stop_at"], seen))
            except Interrupted:
                pass
            before = computed[0]
            computed[0] = 0
            try:
                report = self.sieve.verify_range(
                    p["lo"], p["hi"], k=p["k"], workers=1, checkpoint_path=ck,
                    spans_per_chunk=p["spans_resumed"])
            except self.sieve.CheckpointMismatchError:
                return {"outcome": "rejected"}
            credited = report.checked_dense + report.checked_survivors - computed[0]
            doc = {"outcome": "resumed", "computed_before": before, "credited": credited}
            if credited > before:
                raise OpFailed("resume credited %d checked starts, the interrupted run "
                               "computed %d" % (credited, before))
            return doc
        finally:
            for name, orig in undo:
                setattr(self.kernels, name, orig)

    # -- records-scan -----------------------------------------------------

    def records(self) -> dict:
        r = self.inp["records"]
        return self.command(["records", r["lo"], r["hi"]])

    # -- exact-orbits -----------------------------------------------------

    def census(self, index: int) -> dict:
        c = self.inp["census"][index]
        return self.command(["census", c["base"], c["length"]])

    def stats(self) -> dict:
        return self.command(["stats", self.inp["huge"]])

    def compare(self) -> dict:
        return self.command(["compare", self.inp["huge"]])

    def cycles(self, index: int) -> dict:
        c = self.inp["cycles"][index]
        argv = ["cycles", c["lo"], c["hi"], "--map", c["map"]]
        if "limit_steps" in c:
            argv += ["--limit-steps", c["limit_steps"], "--limit-bits", c["limit_bits"]]
        # exit 2 means some start hit a budget, which tight budgets are for
        return self.command(argv, ok_codes=(0, 2) if "limit_steps" in c else (0,))

    def tag_run(self) -> dict:
        return self.command(["tag", "run", "--zeros", self.inp["tag_n"]])

    def tag_check(self) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["tag", "check", str(self.inp["tag_n"])])
        return {"exit": code, "stdout": out.getvalue()}

    def sets(self, preset: str) -> dict:
        return self.command(["sets", "closure", "--preset", preset,
                             "--bound", self.inp["sets"][preset]])

    def names(self, workload: str) -> list[tuple[str, object]]:
        return {
            "verify-low": [("verify", self.verify_low)],
            "verify-frontier": [
                ("verify-straight", self.verify_straight),
                ("verify-resumed", self.verify_resumed),
                ("plan-mismatch-probe", self.plan_probe),
            ],
            "records-scan": [("records", self.records)],
            "exact-orbits": [
                ("census-%d" % i, lambda i=i: self.census(i))
                for i in range(len(self.inp.get("census", ())))
            ] + [
                ("stats", self.stats),
                ("compare", self.compare),
            ] + [
                ("cycles-%d" % i, lambda i=i: self.cycles(i))
                for i in range(len(self.inp.get("cycles", ())))
            ] + [
                ("tag-run", self.tag_run),
                ("tag-check", self.tag_check),
                ("sets-s0", lambda: self.sets("s0")),
                ("sets-s1", lambda: self.sets("s1")),
            ],
        }[workload]


def _digest(doc) -> str:
    if isinstance(doc, dict):
        doc = {k: v for k, v in doc.items() if k != "elapsed"}
        if isinstance(doc.get("report"), dict):
            doc["report"] = {k: v for k, v in doc["report"].items() if k != "elapsed"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run(spec: dict) -> dict:
    pkg = import_package()
    from collatz_lab import _kernels, affine_sets, cli, model, render, sieve, stats, tag

    import numpy

    modules = {"cli": cli, "render": render, "sieve": sieve, "_kernels": _kernels,
               "stats": stats, "model": model, "tag": tag, "affine_sets": affine_sets}
    ops = Ops(spec["inputs"], spec["work_dir"])
    named = ops.names(spec["workload"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, layer_figures

        span_dir = os.path.join(spec["work_dir"], "spans")
        os.makedirs(span_dir, exist_ok=True)
        tracer = Tracer(span_dir)

    first_docs: dict = {}
    digests: dict = {}
    op_errors: list[str] = []
    failed_ops: set = set()
    mismatches: list[str] = []
    rounds = []
    attempted = failed = 0
    t_begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(modules)
        ops.interrupt_s = []
        cpu0 = _cpu()
        t0 = time.perf_counter()
        for name, op in named:
            attempted += 1
            try:
                doc = op()
            except Exception as exc:  # noqa: BLE001 -- every failed operation is counted
                failed += 1
                failed_ops.add(name)
                msg = "%s: %s: %s" % (name, type(exc).__name__, exc)
                if msg not in op_errors:
                    op_errors.append(msg)
                continue
            d = _digest(doc)
            if name not in first_docs:
                first_docs[name] = doc
                digests[name] = d
            elif digests[name] != d:
                mismatches.append("%s: round %d output differs from the first round"
                                  % (name, len(rounds) + 1))
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        record = {"traced": traced, "wall_s": wall, "cpu_s": cpu}
        if traced:
            record["layers"] = layer_figures(tracer.uninstall(), ops.interrupt_s)
        rounds.append(record)
        done = time.perf_counter() - t_begin >= spec["seconds"]
        if done and (tracer is None or len(rounds) % 2 == 0):
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "rounds": rounds,
        "docs": first_docs,
        "op_errors": op_errors,
        "failed_ops": sorted(failed_ops),
        "mismatches": mismatches,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mib": max(own, kids) / 1024.0,
        "env": {
            "using_numba": bool(pkg.USING_NUMBA),
            "COLLATZ_LAB_NO_NUMBA": os.environ.get("COLLATZ_LAB_NO_NUMBA"),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }


def main(argv) -> int:
    if argv == ["--probe"]:
        import_package()
        print("ready", flush=True)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with open(argv[0]) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(argv[1], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
