"""The benchmark in perfbench/ looks package functions up by name.

Its tracer wraps each module's public functions, and its plan-mismatch
probe counts the starts that _kernels.verify_span and
_kernels.verify_dense report.  A renamed or deleted function fails
every benchmark round with an AttributeError, so the tracer is
installed here over the same module dict that perfbench/workload.py
builds.
"""

import importlib.util
import os

from collatz_lab import _kernels, affine_sets, cli, model, render, sieve, stats, tag

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_package(tmp_path):
    modules = {"cli": cli, "render": render, "sieve": sieve, "_kernels": _kernels,
               "stats": stats, "model": model, "tag": tag, "affine_sets": affine_sets}
    plain = {name: getattr(_kernels, name) for name in ("verify_span", "verify_dense")}
    tracer = _tracing().Tracer(str(tmp_path))
    tracer.install(modules)
    try:
        assert _kernels.verify_span is not plain["verify_span"]
    finally:
        assert tracer.uninstall() == []
    for name, fn in plain.items():
        assert getattr(_kernels, name) is fn
