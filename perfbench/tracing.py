"""Timing wrappers around the package's public functions, and the per-layer figures.

The wrappers go on the module attributes that callers look up, so a
call from `cli` into `stats.block_census`, or from `sieve` into
`_kernels.verify_span`, passes through one.  `cli` imports
`cycle_census`, `iterate` and `permutation_orbit` by name, so those are
wrapped on `cli`.  `maps` and `util` are step and log helpers called
once per orbit step; wrapping them would change what is measured, so
their cost shows inside their callers' spans.

Spans are kept in memory.  Pool workers forked while the wrappers are
installed inherit them; each worker keeps its own spans and writes them
to the span directory when it exits, and the parent merges them after
the round.  This relies on the pool forking its workers, the default
on Linux up to Python 3.13; under another start method the workers'
spans are missing.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import statistics
import threading
import time
from multiprocessing import util as mp_util

PAGE = os.sysconf("SC_PAGE_SIZE")
MIB = 1 << 20

SINGLE_START = ("stats.total_stopping_time", "stats.stopping_time", "stats.one_ratio",
                "stats.rho", "stats.gamma")

# name, unit, better
LAYER_METRICS = (
    ("kernels.verify_span.s", "s", "lower"),
    ("kernels.verify_span.starts_per_s", "1/s", "higher"),
    ("kernels.verify_span.unresolved", "count", "lower"),
    ("kernels.verify_dense.s", "s", "lower"),
    ("kernels.verify_dense.starts_per_s", "1/s", "higher"),
    ("kernels.scan_sigma_peak.s", "s", "lower"),
    ("kernels.scan_sigma_peak.starts_per_s", "1/s", "higher"),
    ("kernels.scan_sigma_peak.guarded", "count", "lower"),
    ("sieve.build_table.s", "s", "lower"),
    ("sieve.verify_range.s", "s", "lower"),
    ("sieve.verify_range.self_s", "s", "lower"),
    ("sieve.rechecked", "count", "lower"),
    ("sieve.skip_ratio", "ratio", "higher"),
    ("sieve.interrupt_s", "s", "lower"),
    ("stats.scan_records.self_s", "s", "lower"),
    ("stats.scan_records.rss_growth_mib", "MiB", "lower"),
    ("stats.block_census.s", "s", "lower"),
    ("stats.block_census.starts_per_s", "1/s", "higher"),
    ("stats.single_start.s", "s", "lower"),
    ("trajectory.cycle_census.s", "s", "lower"),
    ("trajectory.cycle_census.starts_per_s", "1/s", "higher"),
    ("trajectory.iterate.s", "s", "lower"),
    ("model.compare.s", "s", "lower"),
    ("tag.run_tag.s", "s", "lower"),
    ("tag.steps_per_s", "1/s", "higher"),
    ("affine_sets.preset_closure.s", "s", "lower"),
    ("affine_sets.members_per_s", "1/s", "higher"),
    ("render.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _kernel_counts(args, kwargs, out):
    return {"starts": int(out[0]), "unresolved": len(out[1])}


def _scan_counts(args, kwargs, out):
    return {"starts": int(args[0]), "guarded": int((out[0] == -2).sum())}


def _report_counts(args, kwargs, out):
    return {"rechecked": out.rechecked, "skipped": out.skipped, "starts": out.hi - out.lo + 1}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


COUNTS = {
    "kernels.verify_span": _kernel_counts,
    "kernels.verify_dense": _kernel_counts,
    "kernels.scan_sigma_peak": _scan_counts,
    "sieve.verify_range": _report_counts,
    "stats.block_census": lambda a, kw, out: {"starts": _arg(a, kw, 1, "length")},
    "trajectory.cycle_census": lambda a, kw, out: {
        "starts": _arg(a, kw, 2, "hi") - _arg(a, kw, 1, "lo") + 1},
    "tag.run_tag": lambda a, kw, out: {"steps": out.steps},
    "affine_sets.preset_closure": lambda a, kw, out: {"members": len(out.members)},
}


def _rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE


class _RssSampler:
    """Highest resident set seen while a call runs, polled from a thread."""

    def __init__(self, interval=0.002):
        self.interval = interval
        self.peak = self.start = _rss()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self):
        while not self._stop.wait(self.interval):
            self.peak = max(self.peak, _rss())

    def finish(self) -> float:
        self._stop.set()
        self._thread.join()
        return (max(self.peak, _rss()) - self.start) / MIB


class Tracer:
    """Installs the wrappers for one round and turns its spans into layer figures.

    A span is [name, start, end, parent index or -1, pid, counts].
    """

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.active = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- in pool workers --------------------------------------------------

    def _after_fork(self):
        if not self.active:
            return
        self.spans = []
        self._stack = []
        mp_util.Finalize(self, self._dump, exitpriority=100)

    def _dump(self):
        path = os.path.join(self.span_dir, "spans-%d.json" % os.getpid())
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, module, attr: str, name: str) -> None:
        orig = getattr(module, attr)
        count = COUNTS.get(name)
        sample_rss = name == "stats.scan_records"
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1,
                   os.getpid(), None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            sampler = _RssSampler() if sample_rss else None
            rec[1] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
                if sampler is not None:
                    rec[5] = {"rss_growth_mib": sampler.finish()}
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        setattr(module, attr, traced)
        self._undo.append((module, attr, orig))

    def install(self, pkg: dict) -> None:
        """Wrap the public functions of the package modules in pkg (name -> module)."""
        cli, render = pkg["cli"], pkg["render"]
        self._wrap(cli, "main", "cli.main")
        for attr in ("cycle_census", "iterate", "permutation_orbit"):
            self._wrap(cli, attr, "trajectory." + attr)
        for attr, fn in inspect.getmembers(render, inspect.isfunction):
            if not attr.startswith("_") and fn.__module__ == render.__name__:
                self._wrap(render, attr, "render." + attr)
        layers = {
            "sieve": ("verify_range", "build_table"),
            "_kernels": ("verify_span", "verify_dense", "scan_sigma_peak"),
            "stats": ("block_census", "scan_records") + tuple(
                s.split(".")[1] for s in SINGLE_START),
            "model": ("compare", "predict"),
            "tag": ("run_tag", "collatz_tag_check"),
            "affine_sets": ("preset_closure", "closure_up_to", "density_profile"),
        }
        for module_name, attrs in layers.items():
            for attr in attrs:
                self._wrap(pkg[module_name], attr, "%s.%s" % (module_name.lstrip("_"), attr))
        self.spans = []
        self._stack = []
        self.active = True

    def uninstall(self) -> list[list]:
        """Remove the wrappers; return this round's spans, pool workers' included."""
        self.active = False
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)
        spans = self.spans
        self.spans = []
        for path in sorted(glob.glob(os.path.join(self.span_dir, "spans-*.json"))):
            with open(path) as fh:
                worker = json.load(fh)
            os.remove(path)
            base = len(spans)
            spans.extend([n, t0, t1, p + base if p >= 0 else -1, pid, c]
                         for n, t0, t1, p, pid, c in worker)
        return spans


def layer_figures(spans: list[list], interrupt_s: list[float]) -> dict:
    """Per-layer figures of one traced round.

    Times add up across processes, so a kernel run by two pool workers at
    once counts twice; rates divide the work done by that busy time.
    """
    dur = [t1 - t0 for _, t0, t1, _, _, _ in spans]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += dur[i]

    def busy(names) -> float:
        # outermost spans only, so a wrapped call inside another is not counted twice
        return sum(dur[i] for i, s in enumerate(spans)
                   if s[0] in names and (s[3] < 0 or spans[s[3]][0] not in names))

    def self_time(name) -> float:
        return sum(dur[i] - children[i] for i, s in enumerate(spans) if s[0] == name)

    def counted(name, key) -> int:
        return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

    def rate(work, seconds) -> float:
        return work / seconds if seconds > 0 else 0.0

    kernel_s = {k: busy({"kernels." + k}) for k in ("verify_span", "verify_dense",
                                                     "scan_sigma_peak")}
    render_names = {s[0] for s in spans if s[0].startswith("render.")}
    verify_starts = counted("sieve.verify_range", "starts")
    rss = [s[5]["rss_growth_mib"] for s in spans
           if s[0] == "stats.scan_records" and s[5]]
    return {
        "kernels.verify_span.s": kernel_s["verify_span"],
        "kernels.verify_span.starts_per_s": rate(
            counted("kernels.verify_span", "starts"), kernel_s["verify_span"]),
        "kernels.verify_span.unresolved": counted("kernels.verify_span", "unresolved"),
        "kernels.verify_dense.s": kernel_s["verify_dense"],
        "kernels.verify_dense.starts_per_s": rate(
            counted("kernels.verify_dense", "starts"), kernel_s["verify_dense"]),
        "kernels.scan_sigma_peak.s": kernel_s["scan_sigma_peak"],
        "kernels.scan_sigma_peak.starts_per_s": rate(
            counted("kernels.scan_sigma_peak", "starts"), kernel_s["scan_sigma_peak"]),
        "kernels.scan_sigma_peak.guarded": counted("kernels.scan_sigma_peak", "guarded"),
        "sieve.build_table.s": busy({"sieve.build_table"}),
        "sieve.verify_range.s": busy({"sieve.verify_range"}),
        "sieve.verify_range.self_s": self_time("sieve.verify_range"),
        "sieve.rechecked": counted("sieve.verify_range", "rechecked"),
        "sieve.skip_ratio": rate(counted("sieve.verify_range", "skipped"), verify_starts),
        "sieve.interrupt_s": sum(interrupt_s),
        "stats.scan_records.self_s": self_time("stats.scan_records"),
        "stats.scan_records.rss_growth_mib": max(rss, default=0.0),
        "stats.block_census.s": busy({"stats.block_census"}),
        "stats.block_census.starts_per_s": rate(
            counted("stats.block_census", "starts"), busy({"stats.block_census"})),
        "stats.single_start.s": busy(set(SINGLE_START)),
        "trajectory.cycle_census.s": busy({"trajectory.cycle_census"}),
        "trajectory.cycle_census.starts_per_s": rate(
            counted("trajectory.cycle_census", "starts"), busy({"trajectory.cycle_census"})),
        "trajectory.iterate.s": busy({"trajectory.iterate", "trajectory.permutation_orbit"}),
        "model.compare.s": busy({"model.compare"}),
        "tag.run_tag.s": busy({"tag.run_tag"}),
        "tag.steps_per_s": rate(counted("tag.run_tag", "steps"), busy({"tag.run_tag"})),
        "affine_sets.preset_closure.s": busy({"affine_sets.preset_closure"}),
        "affine_sets.members_per_s": rate(
            counted("affine_sets.preset_closure", "members"),
            busy({"affine_sets.preset_closure"})),
        "render.s": busy(render_names),
        "cli.self_s": self_time("cli.main"),
    }


def median_figures(rounds: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
