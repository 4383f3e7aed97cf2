"""Command-line front end.

Exit codes: 0 success, 1 bad input, 2 a budget ran out or a value is
undecided, 3 a genuine counterexample or anomaly was found.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import _kernels, affine_sets, model, render, sieve, stats, tag
from .maps import parse_map_spec, t_map
from .trajectory import (
    DEFAULT_LIMITS,
    IterationLimits,
    Outcome,
    cycle_census,
    iterate,
    permutation_orbit,
)
from .util import parse_natural

_LIMIT_OUTCOMES = (Outcome.HIT_STEP_LIMIT, Outcome.HIT_BIT_LIMIT)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _show(args, subject, **views) -> None:
    """Write the view of subject that --format picks: text, or a JSON document."""
    out = views[args.format](subject)
    _emit(out if isinstance(out, str) else _json_text(out), args.out)


def _limits(args) -> IterationLimits:
    return IterationLimits(args.limit_steps, args.limit_bits)


def _add_limit_args(sub) -> None:
    sub.add_argument("--limit-steps", type=int, default=DEFAULT_LIMITS.max_steps,
                     help="step budget")
    sub.add_argument("--limit-bits", type=int, default=DEFAULT_LIMITS.max_bits,
                     help="value size budget in bits")


def _add_out_arg(sub) -> None:
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")


def _cmd_traj(args) -> int:
    map_ = parse_map_spec(args.map)
    store = args.values or args.format != "text"
    traj = iterate(
        map_, args.n, limits=_limits(args), stop_at_one=args.stop_at_one, store_values=store
    )
    slope = model.EXPECTED_SLOPE if args.model_overlay else None
    _show(args, traj, text=lambda t: render.trajectory_to_text(t, map_),
          csv=render.trajectory_to_csv, json=render.trajectory_to_json,
          svg=lambda t: render.trajectory_svg(t, log_scale=not args.linear, model_slope=slope))
    return 2 if traj.outcome in _LIMIT_OUTCOMES else 0


def _cmd_stats(args) -> int:
    summary = stats.orbit_summary(args.n, _limits(args))
    _show(args, summary, text=render.stats_to_text, json=render.stats_to_json)
    return 2 if summary.total_steps is None or summary.stopping_time is None else 0


def _cmd_census(args) -> int:
    census = stats.block_census(
        args.base, args.length, limits=_limits(args), strict_ratio=False
    )
    _show(args, census, text=render.format_census_text,
          csv=render.census_to_csv, json=render.census_to_json)
    if census.anomalies and args.strict_ratio:
        return 3
    return 2 if census.unknown_offsets else 0


def _progress_printer():
    """An on_progress callback that prints the chunk count, rate and ETA to stderr.

    The rate counts checked starts per second and the ETA scales the
    time per chunk so far, both measured over the chunks this process
    ran.  A resumed run's first commit also counts the chunks credited
    from the checkpoint, so it only fixes the point they are measured from.
    """
    t0 = time.monotonic()
    since = None  # (chunks, checked starts, time) the rate is measured from

    def progress(done, total, checked):
        nonlocal since
        now = time.monotonic()
        if since is None:
            since = (0, 0, t0) if done == 1 else (done, checked, now)
        base_done, base_checked, base_t = since
        line = "chunk %d/%d, checked %d" % (done, total, checked)
        if done > base_done and now > base_t:
            spent = now - base_t
            line += ", %.3g starts/s, ETA %.1f s" % (
                (checked - base_checked) / spent,
                spent * (total - done) / (done - base_done))
        print(line, file=sys.stderr)

    return progress


def _cmd_verify(args) -> int:
    report = sieve.verify_range(
        args.lo,
        args.hi,
        k=args.k,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        spans_per_chunk=args.spans_per_chunk,
        on_progress=_progress_printer() if args.progress else None,
    )
    _show(args, report, text=render.report_to_text, json=render.report_to_json)
    return 3 if report.counterexamples else 0


def _cmd_records(args) -> int:
    scan = stats.scan_records(
        args.lo, args.hi, gamma_threshold=args.threshold, limits=_limits(args)
    )
    _show(args, scan, text=render.records_to_text,
          csv=render.records_to_csv, json=render.records_to_json)
    return 2 if scan.unknown else 0


def _cmd_predict(args) -> int:
    if args.opt_n is not None and args.pos_n is not None:
        raise ValueError("give a start positionally or with --n, not both")
    n = args.opt_n if args.opt_n is not None else args.pos_n
    if n is None:
        raise ValueError("give a start, positionally or with --n")
    pred = model.predict(n)
    _show(args, pred, text=render.prediction_to_text, json=render.prediction_to_json)
    return 0


def _cmd_compare(args) -> int:
    traj = iterate(t_map(), args.n, limits=_limits(args), store_values=True)
    if traj.outcome is not Outcome.REACHED_ONE:
        print(
            "error: orbit of %d stopped with %s before reaching 1"
            % (args.n, traj.outcome.value),
            file=sys.stderr,
        )
        return 2
    cmp_ = model.compare(traj)
    _show(args, cmp_, text=render.comparison_to_text,
          csv=render.residuals_to_csv, json=render.comparison_to_json)
    return 0


def _resolve_tag_system(spec: str) -> tag.TagSystem:
    if spec == "post":
        return tag.post_tag()
    if spec == "collatz":
        return tag.collatz_tag()
    if os.path.exists(spec):
        with open(spec) as fh:
            return tag.parse_tag_file(fh.read(), name=os.path.basename(spec))
    raise ValueError("unknown tag system %r (not a preset, not a file)" % spec)


def _cmd_tag_run(args) -> int:
    system = _resolve_tag_system(args.system)
    if args.zeros is not None:
        word = "0" * args.zeros
    elif args.initial is not None:
        word = args.initial
    else:
        raise ValueError("give --initial WORD or --zeros N")
    keep_trace = args.trace or args.format == "csv"
    run = tag.run_tag(
        system,
        word,
        max_steps=args.max_steps,
        max_length=args.max_length,
        target=args.target,
        keep_trace=keep_trace,
    )
    _show(args, run, text=render.tagrun_to_text,
          csv=render.tagrun_trace_csv, json=render.tagrun_to_json)
    if run.outcome in (tag.TagOutcome.HIT_STEP_LIMIT, tag.TagOutcome.HIT_LENGTH_LIMIT):
        return 2
    return 0


def _cmd_tag_check(args) -> int:
    ok = tag.collatz_tag_check(args.n)
    _emit(render.tag_check_to_text(args.n, ok), None)
    if ok is None:
        return 2
    return 0 if ok else 3


def _cmd_cycles(args) -> int:
    map_ = parse_map_spec(args.map)
    census = cycle_census(map_, args.lo, args.hi, limits=_limits(args))
    _show(args, census, text=render.cycles_to_text, json=render.cycles_to_json)
    return 2 if census.limit_starts else 0


def _cmd_info(args) -> int:
    info = {
        "backend": "numpy",
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "lanes": _kernels.LANES,
        "scan_lanes": _kernels.SCAN_LANES,
        "verify_lanes": _kernels.VERIFY_LANES,
        "dip_cap": _kernels.DIP_CAP,
        "dip_min_live": _kernels.DIP_MIN_LIVE,
    }
    _show(args, info, text=render.info_to_text, json=render.info_to_json)
    return 0


def _parse_generator(text: str) -> affine_sets.AffineGenerator:
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 2:
        return affine_sets.AffineGenerator(parts[0], parts[1])
    if len(parts) == 4:
        return affine_sets.AffineGenerator(parts[0], parts[1], guard=(parts[2], parts[3]))
    raise ValueError("generator must be 'a,b' or 'a,b,residue,modulus', got %r" % text)


def _cmd_sets_closure(args) -> int:
    if args.gen:
        gens = [_parse_generator(g) for g in args.gen]
        seeds = args.seed or [1]
        result = affine_sets.closure_up_to(gens, seeds, args.ceiling or args.bound)
        preset = None
    else:
        preset = args.preset or "s1"
        result = affine_sets.preset_closure(preset, args.bound, ceiling=args.ceiling)
    members = tuple(m for m in result.members if m <= args.bound)
    if args.checkpoints:
        marks = [parse_natural(t) for t in args.checkpoints.split(",")]
    else:
        marks = [10**e for e in range(3, 19) if 10**e <= args.bound] or [args.bound]
    profile = affine_sets.density_profile(members, marks)
    bounded = affine_sets.ClosureResult(result.ceiling, members, result.pruned, result.exact)
    _show(args, bounded, text=lambda r: render.closure_to_text(r, profile, args.bound),
          members=render.members_to_text, csv=lambda r: render.density_to_csv(profile),
          json=lambda r: render.closure_density_to_json(r, profile, preset))
    return 0


def _cmd_orbit(args) -> int:
    store = args.values or args.format != "text"
    traj = permutation_orbit(args.n, limits=_limits(args), store_values=store)
    _show(args, traj, text=render.orbit_to_text,
          csv=render.trajectory_to_csv, json=render.trajectory_to_json)
    return 2 if traj.outcome in _LIMIT_OUTCOMES else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-lab",
        description="Exact iteration of the 3x+1 function and its relatives",
        exit_on_error=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("traj", help="follow one orbit", exit_on_error=False)
    p.add_argument("n", type=parse_natural)
    p.add_argument("--map", default="3x+1", help="map spec or shorthand (3x+1, collatz, 5x+1, u, d=..;pairs=..)")
    p.add_argument("--format", choices=("text", "csv", "json", "svg"), default="text")
    p.add_argument("--values", action="store_true", help="print every value")
    p.add_argument("--linear", action="store_true", help="linear vertical scale for svg")
    p.add_argument("--model-overlay", action="store_true", help="dotted drift line in svg")
    stop = p.add_mutually_exclusive_group()
    stop.add_argument("--stop-at-one", dest="stop_at_one", action="store_const", const=True)
    stop.add_argument("--no-stop-at-one", dest="stop_at_one", action="store_const", const=False)
    _add_limit_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_traj)

    p = subs.add_parser("stats", help="orbit statistics for one start", exit_on_error=False)
    p.add_argument("n", type=parse_natural)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_limit_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_stats)

    p = subs.add_parser("census", help="step-count table over a block", exit_on_error=False)
    p.add_argument("base", type=parse_natural)
    p.add_argument("length", type=parse_natural)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--strict-ratio", action="store_true", help="exit 3 on ratio anomalies")
    _add_limit_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_census)

    p = subs.add_parser("verify", help="check that a range descends", exit_on_error=False)
    p.add_argument("--from", dest="lo", type=parse_natural, required=True,
                   help="first start to check")
    p.add_argument("--to", dest="hi", type=parse_natural, required=True,
                   help="last start to check")
    p.add_argument("--sieve-k", dest="k", type=int, default=16, help="jump-table width")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--checkpoint", default=None, help="checkpoint file for resume")
    p.add_argument("--spans-per-chunk", type=int, default=256)
    p.add_argument("--progress", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_out_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("records", help="record holders over a range", exit_on_error=False)
    p.add_argument("lo", type=parse_natural)
    p.add_argument("hi", type=parse_natural)
    p.add_argument("--threshold", type=float, default=6.143)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_limit_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_records)

    p = subs.add_parser("predict", help="random-walk model values", exit_on_error=False)
    p.add_argument("pos_n", nargs="?", type=parse_natural, default=None, metavar="n")
    p.add_argument("--n", dest="opt_n", type=parse_natural, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_out_arg(p)
    p.set_defaults(func=_cmd_predict)

    p = subs.add_parser("compare", help="orbit against the model line", exit_on_error=False)
    p.add_argument("n", type=parse_natural)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_limit_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("tag", help="tag-system simulation", exit_on_error=False)
    tag_subs = p.add_subparsers(dest="tag_command", required=True)
    pr = tag_subs.add_parser("run", help="run one word", exit_on_error=False)
    pr.add_argument("--system", default="collatz", help="post, collatz, or a file")
    pr.add_argument("--initial", default=None, help="starting word")
    pr.add_argument("--zeros", type=parse_natural, default=None,
                    help="start from that many 0s instead")
    pr.add_argument("--target", default=None, help="stop when this word appears")
    pr.add_argument("--max-steps", type=int, default=10**6)
    pr.add_argument("--max-length", type=int, default=10**6)
    pr.add_argument("--trace", action="store_true", help="record every step")
    pr.add_argument("--format", choices=("text", "csv", "json"), default="text")
    _add_out_arg(pr)
    pr.set_defaults(func=_cmd_tag_run)
    pc = tag_subs.add_parser("check", help="all-zero correspondence for one start",
                             exit_on_error=False)
    pc.add_argument("n", type=parse_natural)
    pc.set_defaults(func=_cmd_tag_check)

    p = subs.add_parser("cycles", help="cycles met by starts in a range", exit_on_error=False)
    p.add_argument("lo", type=parse_natural)
    p.add_argument("hi", type=parse_natural)
    p.add_argument("--map", default="3x+1")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_limit_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_cycles)

    p = subs.add_parser("sets", help="affine-closure membership and density", exit_on_error=False)
    set_subs = p.add_subparsers(dest="sets_command", required=True)
    ps = set_subs.add_parser("closure", help="generate one set", exit_on_error=False)
    ps.add_argument("--preset", choices=sorted(affine_sets.PRESET_GENERATORS))
    ps.add_argument("--bound", type=parse_natural, required=True,
                    help="report members up to this value")
    ps.add_argument("--gen", action="append", default=None,
                    help="custom generator a,b or a,b,residue,modulus (repeatable)")
    ps.add_argument("--seed", action="append", type=parse_natural, default=None)
    ps.add_argument("--ceiling", type=parse_natural, default=None)
    ps.add_argument("--checkpoints", default=None, help="comma-separated density marks")
    ps.add_argument("--format", choices=("text", "csv", "members", "json"), default="text")
    _add_out_arg(ps)
    ps.set_defaults(func=_cmd_sets_closure)

    p = subs.add_parser("orbit", help="the invertible variant's orbit", exit_on_error=False)
    p.add_argument("n", type=parse_natural)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--values", action="store_true")
    _add_limit_args(p)
    _add_out_arg(p)
    p.set_defaults(func=_cmd_orbit)

    p = subs.add_parser("info", help="backend, versions, CPUs and kernel sizes",
                        exit_on_error=False)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_out_arg(p)
    p.set_defaults(func=_cmd_info)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits directly for missing required arguments and for
        # --help; keep 0 for help, fold usage errors into the input code.
        return 0 if exc.code in (0, None) else 1
    # Views print exact integers of any size; Python's default cap on
    # int-to-str conversion (4300 digits) would turn a reached budget
    # into an error.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        old_digits = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if set_digits is not None:
            set_digits(old_digits)


if __name__ == "__main__":
    sys.exit(main())
