"""The benchmark in perfbench/ looks package functions up by name.

Its tracer wraps each module's public functions, and its plan-mismatch
probe counts the starts that _kernels.verify_span and
_kernels.verify_dense report.  A renamed or deleted function fails
every benchmark round with an AttributeError, so the tracer is
installed here over the same module dict that perfbench/workload.py
builds.  The probe wraps both kernels in functions that take positional
arguments only, so it is run here too: a keyword call into a kernel
would fail it.
"""

import importlib.util
import os
import sys

from collatz_lab import _kernels, affine_sets, cli, model, render, sieve, stats, tag

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(name):
    path = os.path.join(ROOT, "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_package(tmp_path):
    modules = {"cli": cli, "render": render, "sieve": sieve, "_kernels": _kernels,
               "stats": stats, "model": model, "tag": tag, "affine_sets": affine_sets}
    plain = {name: getattr(_kernels, name) for name in ("verify_span", "verify_dense")}
    tracer = _load("tracing").Tracer(str(tmp_path))
    tracer.install(modules)
    try:
        assert _kernels.verify_span is not plain["verify_span"]
    finally:
        assert tracer.uninstall() == []
    for name, fn in plain.items():
        assert getattr(_kernels, name) is fn


def test_plan_probe_is_rejected(tmp_path, monkeypatch):
    # run.py puts perfbench/ on sys.path and imports its helpers by
    # their plain names; both are undone after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    helpers = [name for name in ("checks", "reference", "tracing") if name not in sys.modules]
    plain = {name: getattr(_kernels, name) for name in ("verify_span", "verify_dense")}
    try:
        run = _load("run")
        ops = _load("workload").Ops({"probe": run.PROBE}, str(tmp_path))
        assert ops.plan_probe() == {"outcome": "rejected"}
    finally:
        for name in helpers:
            sys.modules.pop(name, None)
    for name, fn in plain.items():
        assert getattr(_kernels, name) is fn


def test_traced_verify_gives_both_kernel_rates(tmp_path):
    # The tracer counts int(out[0]) and len(out[1]) of every verify
    # kernel call, so a result it cannot read fails here, not in a
    # traced benchmark round.  The second range crosses 2^63.
    tracing = _load("tracing")
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install({"cli": cli, "render": render, "sieve": sieve, "_kernels": _kernels,
                    "stats": stats, "model": model, "tag": tag, "affine_sets": affine_sets})
    try:
        sieve.verify_range(1000, 9000, k=8)
        sieve.verify_range(2**63 - 5000, 2**63 + 5000, k=8)
    finally:
        spans = tracer.uninstall()
    figures = tracing.layer_figures(spans, [])
    assert figures["kernels.verify_span.starts_per_s"] > 0
    assert figures["kernels.verify_dense.starts_per_s"] > 0


def test_using_numba_is_false_for_the_workload_report():
    # perfbench/workload.py reports collatz_lab.USING_NUMBA in every run.
    import collatz_lab

    assert collatz_lab.USING_NUMBA is False


def test_traced_records_scan_gives_the_kernel_rate(tmp_path):
    # The tracer counts int(args[0]) starts and reads out[0] of every
    # scan_sigma_peak call, so a return shape it cannot read fails here,
    # not in a traced benchmark round.
    tracing = _load("tracing")
    tracer = tracing.Tracer(str(tmp_path))
    tracer.install({"cli": cli, "render": render, "sieve": sieve, "_kernels": _kernels,
                    "stats": stats, "model": model, "tag": tag, "affine_sets": affine_sets})
    try:
        stats.scan_records(2, 5000)
    finally:
        spans = tracer.uninstall()
    figures = tracing.layer_figures(spans, [])
    assert figures["kernels.scan_sigma_peak.starts_per_s"] > 0
