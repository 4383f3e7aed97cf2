"""Text, CSV, JSON, and SVG views of results.

JSON emitters return plain dicts tagged with a schema marker; callers
serialize.  The SVG is self-contained, fixed-size, and deterministic:
same input, byte-identical output.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .affine_sets import ClosureResult
from .maps import GeneralizedCollatzMap
from .model import ModelComparison, Prediction
from .sieve import VerificationReport
from .stats import BlockCensus, OrbitSummary, RecordScan
from .tag import TagRun
from .trajectory import CycleCensus, Trajectory
from .util import format_fixed5, log_nat

SCHEMA = "collatz-lab/1"


def _ratio_str(ratio: Fraction | None) -> str:
    return format_fixed5(ratio) if ratio is not None else "-"


def format_census_text(census: BlockCensus) -> str:
    out = []
    out.append(
        "step counts for starts %d .. %d" % (census.base, census.base + census.length - 1)
    )
    if census.length == 100:
        # 10x10 layout: columns advance by tens, rows by units.
        cells = [[census.sigmas[10 * j + k] for j in range(10)] for k in range(10)]
        width = max(
            len(str(c)) if c >= 0 else 1 for row in cells for c in row
        )
        width = max(width, len("+90"))
        head = " " * 4 + " ".join(("+%d" % (10 * j)).rjust(width) for j in range(10))
        out.append(head)
        for k in range(10):
            row = " ".join(
                (str(c) if c >= 0 else "?").rjust(width) for c in cells[k]
            )
            out.append("+%d  %s" % (k, row))
    out.append("")
    out.append("steps  count  odd-ratio")
    for row in census.rows:
        out.append("%5d  %5d  %s" % (row.sigma, row.count, _ratio_str(row.ratio)))
    if census.unknown_offsets:
        out.append("unresolved offsets: %s" % (list(census.unknown_offsets),))
    if census.anomalies:
        out.append("ratio anomalies: %r" % (list(census.anomalies),))
    return "\n".join(out) + "\n"


def census_to_csv(census: BlockCensus) -> str:
    lines = ["steps,count,odd_ratio"]
    for row in census.rows:
        lines.append("%d,%d,%s" % (row.sigma, row.count, _ratio_str(row.ratio)))
    return "\n".join(lines) + "\n"


def census_to_json(census: BlockCensus) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "census",
        "base": census.base,
        "length": census.length,
        "rows": [
            {
                "steps": r.sigma,
                "count": r.count,
                "odd_ratio": [r.ratio.numerator, r.ratio.denominator]
                if r.ratio is not None
                else None,
                "odd_ratio_text": _ratio_str(r.ratio),
            }
            for r in census.rows
        ],
        "step_counts": list(census.sigmas),
        "unknown_offsets": list(census.unknown_offsets),
        "anomalies": [
            {"steps": s, "ratios": [[r.numerator, r.denominator] for r in rs]}
            for s, rs in census.anomalies
        ],
    }


def stats_to_json(summary: OrbitSummary) -> dict:
    stop = summary.stopping_time
    ratio = summary.odd_ratio
    return {
        "schema": SCHEMA,
        "kind": "stats",
        "n": summary.n,
        "total_steps": summary.total_steps,
        "stopping_time": None if stop is None else ("infinity" if stop == math.inf else stop),
        "odd_ratio": None if ratio is None else [ratio.numerator, ratio.denominator],
        "odd_ratio_text": format_fixed5(ratio) if ratio is not None else None,
        "peak_log_ratio": summary.rho,
        "steps_per_log": summary.gamma,
    }


def stats_to_text(summary: OrbitSummary) -> str:
    sigma = summary.total_steps
    stop = summary.stopping_time
    ratio = summary.odd_ratio
    lines = ["n = %d" % summary.n]
    lines.append("steps to reach 1:   %s" % ("unknown" if sigma is None else sigma))
    if stop is None:
        stop_text = "unknown"
    elif stop == math.inf:
        stop_text = "never (n = 1)"
    else:
        stop_text = str(stop)
    lines.append("steps to drop below n: %s" % stop_text)
    if ratio is not None:
        lines.append(
            "odd-step ratio:     %d/%d = %s"
            % (ratio.numerator, ratio.denominator, format_fixed5(ratio))
        )
    if summary.rho is not None:
        lines.append("log peak / log n:   %.5f" % summary.rho)
    if summary.gamma is not None:
        lines.append("steps / log n:      %.4f" % summary.gamma)
    return "\n".join(lines) + "\n"


def _cycle_and_values(traj: Trajectory) -> list[str]:
    lines = []
    if traj.cycle is not None:
        lines.append("cycle: %s" % (list(traj.cycle.members),))
    if traj.values is not None:
        lines.append("values: %s" % " ".join(str(v) for v in traj.values))
    return lines


def trajectory_to_text(traj: Trajectory, map_: GeneralizedCollatzMap) -> str:
    """Outcome, peak and odd steps; the cycle and values when recorded."""
    lines = [
        "start %d under %s: %s after %d steps"
        % (traj.start, map_.name or str(map_), traj.outcome.value, traj.steps),
        "peak %d, final %d, odd steps %d" % (traj.peak, traj.final, traj.odd_count),
    ]
    return "\n".join(lines + _cycle_and_values(traj)) + "\n"


def orbit_to_text(traj: Trajectory) -> str:
    """The permutation orbit's outcome and peak; the cycle and values when recorded."""
    lines = [
        "orbit of %d under the even/4n+1/4n+3 permutation: %s after %d steps"
        % (traj.start, traj.outcome.value, traj.steps),
        "peak %d, final %d" % (traj.peak, traj.final),
    ]
    return "\n".join(lines + _cycle_and_values(traj)) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    if traj.values is None:
        raise ValueError("trajectory was recorded without values")
    lines = ["step,value,parity"]
    for k, x in enumerate(traj.values):
        lines.append("%d,%d,%d" % (k, x, x & 1))
    return "\n".join(lines) + "\n"


def trajectory_to_json(traj: Trajectory) -> dict:
    doc = {
        "schema": SCHEMA,
        "kind": "trajectory",
        "start": traj.start,
        "outcome": traj.outcome.value,
        "steps": traj.steps,
        "final": traj.final,
        "peak": traj.peak,
        "odd_steps": traj.odd_count,
    }
    if traj.values is not None:
        doc["values"] = list(traj.values)
    if traj.cycle is not None:
        doc["cycle"] = list(traj.cycle.members)
    return doc


_SVG_W, _SVG_H, _SVG_M = 800.0, 480.0, 56.0


def _svg_scale(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    inner_w = _SVG_W - 2 * _SVG_M
    inner_h = _SVG_H - 2 * _SVG_M

    def to_px(p):
        px = _SVG_M + (p[0] - x0) / (x1 - x0) * inner_w
        py = _SVG_H - _SVG_M - (p[1] - y0) / (y1 - y0) * inner_h
        return px, py

    return to_px, (x0, x1, y0, y1)


def trajectory_svg(
    traj: Trajectory,
    log_scale: bool = True,
    model_slope: float | None = None,
) -> str:
    """Orbit plot, optionally with the predicted drift line dotted in.

    Log scale handles values of any size; linear scale needs every
    value to fit a float.
    """
    if traj.values is None:
        raise ValueError("trajectory was recorded without values")
    if log_scale:
        pts = [(float(k), log_nat(x)) for k, x in enumerate(traj.values)]
        y_label = "log value"
    else:
        try:
            pts = [(float(k), float(x)) for k, x in enumerate(traj.values)]
        except OverflowError as exc:
            raise ValueError("values too large for a linear plot, use log scale") from exc
        y_label = "value"
    to_px, (x0, x1, y0, y1) = _svg_scale(pts)
    poly = " ".join("%.2f,%.2f" % to_px(p) for p in pts)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (_SVG_W, _SVG_H, _SVG_W, _SVG_H),
        '<rect width="%d" height="%d" fill="white"/>' % (_SVG_W, _SVG_H),
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
        % (_SVG_M, _SVG_H - _SVG_M, _SVG_W - _SVG_M, _SVG_H - _SVG_M),
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black"/>'
        % (_SVG_M, _SVG_M, _SVG_M, _SVG_H - _SVG_M),
        '<text x="%.2f" y="%.2f" font-size="12">step</text>'
        % (_SVG_W / 2 - 14, _SVG_H - _SVG_M / 3),
        '<text x="%.2f" y="%.2f" font-size="12" transform="rotate(-90 14 %.2f)">%s</text>'
        % (14.0, _SVG_H / 2, _SVG_H / 2, y_label),
        '<text x="%.2f" y="%.2f" font-size="11">%g</text>'
        % (_SVG_M, _SVG_H - _SVG_M + 14, x0),
        '<text x="%.2f" y="%.2f" font-size="11" text-anchor="end">%g</text>'
        % (_SVG_W - _SVG_M, _SVG_H - _SVG_M + 14, x1),
        '<text x="%.2f" y="%.2f" font-size="11" text-anchor="end">%g</text>'
        % (_SVG_M - 4, _SVG_H - _SVG_M, y0),
        '<text x="%.2f" y="%.2f" font-size="11" text-anchor="end">%g</text>'
        % (_SVG_M - 4, _SVG_M + 4, y1),
        '<polyline points="%s" fill="none" stroke="#1f5fbf" stroke-width="1.5"/>' % poly,
    ]
    if model_slope is not None and log_scale:
        my0 = pts[0][1]
        mpts = [(0.0, my0), (float(traj.steps), my0 + model_slope * traj.steps)]
        clipped = [(x, min(max(y, y0), y1)) for x, y in mpts]
        mline = " ".join("%.2f,%.2f" % to_px(p) for p in clipped)
        parts.append(
            '<polyline points="%s" fill="none" stroke="#bf1f1f" '
            'stroke-width="1.2" stroke-dasharray="5,4"/>' % mline
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def records_to_csv(scan: RecordScan) -> str:
    lines = ["table,n,value"]
    for n, v in scan.gamma_records:
        lines.append("steps_per_log,%d,%.6f" % (n, v))
    for n, v in scan.rho_records:
        lines.append("peak_log_ratio,%d,%.6f" % (n, v))
    for n, v in scan.peak_records:
        lines.append("peak,%d,%d" % (n, v))
    return "\n".join(lines) + "\n"


def records_to_json(scan: RecordScan) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "records",
        "lo": scan.lo,
        "hi": scan.hi,
        "steps_per_log_records": [[n, v] for n, v in scan.gamma_records],
        "peak_log_ratio_records": [[n, v] for n, v in scan.rho_records],
        "peak_records": [[n, v] for n, v in scan.peak_records],
        "threshold": scan.gamma_threshold,
        "threshold_count": scan.threshold_count,
        "unknown": list(scan.unknown),
    }


def records_to_text(scan: RecordScan) -> str:
    out = ["record holders in [%d, %d]" % (scan.lo, scan.hi)]
    out.append("steps / log n:")
    for n, v in scan.gamma_records:
        out.append("  %d  %.6f" % (n, v))
    out.append("log peak / log n:")
    for n, v in scan.rho_records:
        out.append("  %d  %.6f" % (n, v))
    out.append("peak value:")
    for n, v in scan.peak_records:
        out.append("  %d  %d" % (n, v))
    out.append(
        "starts with steps >= %.3f * log n: %d" % (scan.gamma_threshold, scan.threshold_count)
    )
    if scan.unknown:
        out.append("undecided starts: %s" % (list(scan.unknown),))
    return "\n".join(out) + "\n"


def report_to_text(report: VerificationReport) -> str:
    out = [
        "verified [%d, %d] with k=%d: %d chunks, %d already done, %d workers"
        % (
            report.lo,
            report.hi,
            report.k,
            report.chunks_total,
            report.chunks_done_before,
            report.workers,
        ),
        "checked %d dense + %d survivors, skipped %d certified starts"
        % (report.checked_dense, report.checked_survivors, report.skipped),
        "exact rechecks this run: %d" % report.rechecked,
    ]
    if report.counterexamples:
        out.append("UNRESOLVED STARTS:")
        for n, reason in report.counterexamples:
            out.append("  %d  %s" % (n, reason))
    else:
        out.append("no counterexamples")
    out.append("elapsed %.2fs" % report.elapsed)
    return "\n".join(out) + "\n"


def report_to_json(report: VerificationReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "verification",
        "lo": report.lo,
        "hi": report.hi,
        "k": report.k,
        "checked_dense": report.checked_dense,
        "checked_survivors": report.checked_survivors,
        "skipped": report.skipped,
        "rechecked": report.rechecked,
        "counterexamples": [[n, reason] for n, reason in report.counterexamples],
        "chunks_total": report.chunks_total,
        "chunks_done_before": report.chunks_done_before,
        "workers": report.workers,
        "elapsed": report.elapsed,
    }


def cycles_to_text(census: CycleCensus) -> str:
    out = ["cycles with a member in [%d, %d]:" % (census.lo, census.hi)]
    if not census.cycles:
        out.append("  none found")
    for cyc in census.cycles:
        out.append(
            "  length %d, odd steps %d: %s"
            % (cyc.length, cyc.odd_count, list(cyc.members))
        )
    out.append("starts that hit a budget: %d" % len(census.limit_starts))
    out.append("starts that left the domain: %d" % len(census.undefined_starts))
    return "\n".join(out) + "\n"


def cycles_to_json(census: CycleCensus) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "cycles",
        "lo": census.lo,
        "hi": census.hi,
        "cycles": [list(c.members) for c in census.cycles],
        "limit_starts": list(census.limit_starts),
        "undefined_starts": list(census.undefined_starts),
    }


def closure_to_json(result: ClosureResult, preset: str | None = None) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "closure",
        "preset": preset,
        "ceiling": result.ceiling,
        "count": len(result.members),
        "members": list(result.members),
        "pruned": result.pruned,
        "exact": result.exact,
    }


def closure_to_text(result: ClosureResult, profile, bound: int) -> str:
    """Member count up to bound, the members when few, and the density profile."""
    members = result.members
    lines = [
        "%d members up to %d%s"
        % (len(members), bound, "" if result.exact else " (may be incomplete)")
    ]
    if len(members) <= 60:
        lines.append("members: %s" % " ".join(str(m) for m in members))
    lines.append("checkpoint  count  density")
    for x, c, d in profile:
        lines.append("%10d  %5d  %.6f" % (x, c, d))
    return "\n".join(lines) + "\n"


def members_to_text(result: ClosureResult) -> str:
    return "member\n" + "".join("%d\n" % m for m in result.members)


def closure_density_to_json(
    result: ClosureResult, profile, preset: str | None = None
) -> dict:
    """The closure document plus its density profile as [checkpoint, count, density]."""
    doc = closure_to_json(result, preset=preset)
    doc["density"] = [[x, c, d] for x, c, d in profile]
    return doc


def density_to_csv(profile) -> str:
    lines = ["checkpoint,count,density"]
    for x, count, dens in profile:
        lines.append("%d,%d,%.8f" % (x, count, dens))
    return "\n".join(lines) + "\n"


def prediction_to_json(pred: Prediction) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "prediction",
        "n": pred.n,
        "log_n": pred.log_n,
        "slope": pred.slope,
        "expected_steps": pred.expected_steps,
        "upper_bound_steps": pred.upper_bound_steps,
        "extremal_steps": pred.extremal_steps,
        "extremal_peak_log": pred.extremal_peak_log,
    }


def prediction_to_text(pred: Prediction) -> str:
    return (
        "n = %d (log n = %.4f)\n"
        "drift per step:        %.5f\n"
        "expected steps:        %.1f\n"
        "step-count ceiling:    %.1f\n"
        "extremal: peak log %.1f, total steps %.1f\n"
        % (
            pred.n,
            pred.log_n,
            pred.slope,
            pred.expected_steps,
            pred.upper_bound_steps,
            pred.extremal_peak_log,
            pred.extremal_steps,
        )
    )


def comparison_to_text(cmp: ModelComparison) -> str:
    out = [
        "start %d: %d steps, model expected %.1f (ratio %.3f)"
        % (cmp.start, cmp.steps, cmp.expected_steps, cmp.steps_ratio),
        "max |residual| %.3f, rms %.3f, %s the step ceiling"
        % (
            cmp.max_abs_residual,
            cmp.rms_residual,
            "within" if cmp.within_upper_bound else "ABOVE",
        ),
    ]
    if cmp.small_start:
        out.append("note: log n < %.0f, the asymptotic line is a rough guide here" % 10.0)
    return "\n".join(out) + "\n"


def comparison_to_json(cmp: ModelComparison) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "model-comparison",
        "n": cmp.start,
        "steps": cmp.steps,
        "expected_steps": cmp.expected_steps,
        "steps_ratio": cmp.steps_ratio,
        "slope": cmp.slope,
        "max_abs_residual": cmp.max_abs_residual,
        "rms_residual": cmp.rms_residual,
        "within_upper_bound": cmp.within_upper_bound,
        "small_start": cmp.small_start,
        "residuals": list(cmp.residuals),
    }


def residuals_to_csv(cmp: ModelComparison) -> str:
    lines = ["step,residual"]
    for k, r in enumerate(cmp.residuals):
        lines.append("%d,%.6f" % (k, r))
    return "\n".join(lines) + "\n"


def tagrun_to_text(run: TagRun) -> str:
    word = run.initial if len(run.initial) <= 40 else run.initial[:37] + "..."
    final = run.final if len(run.final) <= 40 else run.final[:37] + "..."
    out = [
        "tag run of %r: %s after %d steps" % (word, run.outcome.value, run.steps),
        "final word %r (length %d)" % (final, len(run.final)),
    ]
    if run.cycle_start is not None:
        out.append(
            "cycle of length %d entered at step %d" % (run.cycle_length, run.cycle_start)
        )
    if run.zero_lengths:
        out.append(
            "all-zero lengths: %s" % [length for _, length in run.zero_lengths]
        )
    if run.trace:
        out.append("step  length  head")
        for step, length, head in run.trace:
            out.append("%4d  %6d  %s" % (step, length, head if head >= 0 else "-"))
    return "\n".join(out) + "\n"


def tag_check_to_text(n: int, ok: bool | None) -> str:
    if ok is None:
        return ("all-zero lengths against the halved 3x+1 orbit of %d: "
                "undecided, a budget ran out\n" % n)
    return "all-zero lengths %s the halved 3x+1 orbit of %d\n" % (
        "match" if ok else "DO NOT match", n)


# the figures of `collatz-lab info`, in order, with what each one sizes
_INFO_FIELDS = (
    ("backend", "kernel backend (numpy lockstep lanes; numba is not used)"),
    ("python", "Python version"),
    ("numpy", "numpy version"),
    ("cpu_count", "logical CPUs (os.cpu_count)"),
    ("lanes", "lanes per cycle-census block"),
    ("scan_lanes", "starts per records-scan block (dip calls: up to twice as many)"),
    ("verify_lanes", "lanes per verify-kernel and recheck limb block"),
    ("dip_cap", "census steps before a start is handed back"),
    ("dip_min_live", "census block handed back below this many walking lanes"),
)


def info_to_text(info: dict) -> str:
    width = max(len(key) for key, _ in _INFO_FIELDS)
    return "".join("%s  %-8s  %s\n" % (key.ljust(width), "unknown" if info[key] is None
                                       else info[key], note)
                   for key, note in _INFO_FIELDS)


def info_to_json(info: dict) -> dict:
    doc = {"schema": SCHEMA, "kind": "info"}
    doc.update((key, info[key]) for key, _ in _INFO_FIELDS)
    return doc


def tagrun_trace_csv(run: TagRun) -> str:
    if run.trace is None:
        raise ValueError("run was recorded without a trace")
    lines = ["step,word_length,first_letter"]
    for step, length, head in run.trace:
        lines.append("%d,%d,%s" % (step, length, head if head >= 0 else ""))
    return "\n".join(lines) + "\n"


def tagrun_to_json(run: TagRun) -> dict:
    doc = {
        "schema": SCHEMA,
        "kind": "tag-run",
        "initial_length": len(run.initial),
        "outcome": run.outcome.value,
        "steps": run.steps,
        "final": run.final,
        "zero_lengths": [[s, n] for s, n in run.zero_lengths],
        "cycle_start": run.cycle_start,
        "cycle_length": run.cycle_length,
    }
    if run.trace is not None:
        doc["trace"] = [[s, n, h] for s, n, h in run.trace]
    return doc
