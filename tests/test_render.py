"""Tests for the text, CSV, JSON, and SVG emitters."""

import json

import pytest

from collatz_lab import (
    EXPECTED_SLOPE,
    IterationLimits,
    block_census,
    compare,
    cycle_census,
    iterate,
    post_tag,
    predict,
    run_tag,
    scan_records,
    verify_range,
)
from collatz_lab.maps import TABLE_BASE, t5_map, t_map
from collatz_lab.render import (
    SCHEMA,
    info_to_json,
    info_to_text,
    census_to_csv,
    census_to_json,
    closure_to_json,
    comparison_to_text,
    cycles_to_json,
    cycles_to_text,
    density_to_csv,
    format_census_text,
    prediction_to_text,
    records_to_csv,
    records_to_json,
    records_to_text,
    report_to_json,
    report_to_text,
    residuals_to_csv,
    tagrun_to_json,
    tagrun_to_text,
    tagrun_trace_csv,
    trajectory_svg,
    trajectory_to_csv,
    trajectory_to_json,
)
from collatz_lab.affine_sets import density_profile, preset_closure


class TestCensusViews:
    def test_hundred_block_text_has_grid(self):
        census = block_census(TABLE_BASE, 100)
        text = format_census_text(census)
        lines = text.splitlines()
        header = next(ln for ln in lines if "+90" in ln)
        assert header.split() == ["+0", "+10", "+20", "+30", "+40",
                                  "+50", "+60", "+70", "+80", "+90"]
        row0 = next(ln for ln in lines if ln.startswith("+0 "))
        assert row0.split()[1] == "529"
        assert "  529     38  0.48204" in text

    def test_non_hundred_block_skips_grid(self):
        census = block_census(1, 50)
        assert "+90" not in format_census_text(census)

    def test_csv_shape(self):
        census = block_census(TABLE_BASE, 100)
        lines = census_to_csv(census).splitlines()
        assert lines[0] == "steps,count,odd_ratio"
        assert lines[1] == "529,38,0.48204"
        assert len(lines) == 1 + len(census.rows)

    def test_json_round_trips_exact_ints(self):
        census = block_census(TABLE_BASE, 100)
        doc = census_to_json(census)
        assert doc["schema"] == SCHEMA
        again = json.loads(json.dumps(doc))
        assert again["base"] == TABLE_BASE
        assert again["rows"][0]["odd_ratio"] == [255, 529]


class TestTrajectoryViews:
    def test_csv_shape(self):
        traj = iterate(t_map(), 27)
        lines = trajectory_to_csv(traj).splitlines()
        assert lines[0] == "step,value,parity"
        assert lines[1] == "0,27,1"
        assert lines[-1] == "70,1,1"

    def test_csv_requires_values(self):
        traj = iterate(t_map(), 27, store_values=False)
        with pytest.raises(ValueError):
            trajectory_to_csv(traj)

    def test_json_fields(self):
        doc = trajectory_to_json(iterate(t_map(), 27))
        assert doc["schema"] == SCHEMA
        assert doc["steps"] == 70
        assert doc["peak"] == 4616
        assert doc["outcome"] == "reached-one"
        assert len(doc["values"]) == 71

    def test_json_includes_cycle_when_found(self):
        doc = trajectory_to_json(iterate(t_map(), 7, stop_at_one=False))
        assert doc["cycle"] == [1, 2]


class TestTrajectorySvg:
    def test_deterministic(self):
        traj = iterate(t_map(), 27)
        assert trajectory_svg(traj) == trajectory_svg(traj)

    def test_structure(self):
        svg = trajectory_svg(iterate(t_map(), 27))
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert "log value" in svg

    def test_model_overlay_dotted(self):
        traj = iterate(t_map(), 27)
        plain = trajectory_svg(traj)
        overlay = trajectory_svg(traj, model_slope=EXPECTED_SLOPE)
        assert "stroke-dasharray" not in plain
        assert "stroke-dasharray" in overlay

    def test_linear_scale_small_orbit(self):
        svg = trajectory_svg(iterate(t_map(), 27), log_scale=False)
        assert "log value" not in svg

    def test_linear_scale_rejects_huge_values(self):
        traj = iterate(t_map(), 2**4000, IterationLimits(max_steps=10, max_bits=10**5))
        with pytest.raises(ValueError):
            trajectory_svg(traj, log_scale=False)
        assert trajectory_svg(traj, log_scale=True)

    def test_single_point_orbit(self):
        assert "<svg" in trajectory_svg(iterate(t_map(), 1))


class TestRecordViews:
    def test_all_formats(self):
        scan = scan_records(2, 1000)
        csv = records_to_csv(scan)
        assert csv.splitlines()[0] == "table,n,value"
        assert "peak,27,4616" in csv
        doc = records_to_json(scan)
        assert doc["schema"] == SCHEMA
        assert doc["peak_records"][-1] == [703, 125252]
        text = records_to_text(scan)
        assert "record holders in [2, 1000]" in text


class TestReportViews:
    def test_text_and_json(self):
        report = verify_range(1, 10**5, k=12)
        text = report_to_text(report)
        assert "verified [1, 100000] with k=12" in text
        assert "no counterexamples" in text
        doc = report_to_json(report)
        assert doc["schema"] == SCHEMA
        assert doc["counterexamples"] == []
        assert doc["checked_dense"] == report.checked_dense


class TestCycleViews:
    def test_text_and_json(self, tight_limits):
        census = cycle_census(t5_map(), 1, 100, tight_limits)
        text = cycles_to_text(census)
        assert "length 5, odd steps 2: [1, 3, 8, 4, 2]" in text
        assert "starts that hit a budget: 60" in text
        doc = cycles_to_json(census)
        assert doc["schema"] == SCHEMA
        assert [1, 3, 8, 4, 2] in doc["cycles"]


class TestClosureViews:
    def test_json_and_density_csv(self):
        result = preset_closure("s2", 20)
        doc = closure_to_json(result, preset="s2")
        assert doc["schema"] == SCHEMA
        assert doc["count"] == 13
        assert doc["preset"] == "s2"
        rows = density_profile(result.members, [10, 20])
        csv = density_to_csv(rows)
        lines = csv.splitlines()
        assert lines[0] == "checkpoint,count,density"
        assert lines[1] == "10,7,0.70000000"


class TestModelViews:
    def test_prediction_text(self):
        text = prediction_to_text(predict(TABLE_BASE))
        assert "expected steps:        600." in text
        assert "-0.14384" in text

    def test_comparison_text_and_residuals(self):
        fit = compare(iterate(t_map(), TABLE_BASE))
        text = comparison_to_text(fit)
        assert "start %d: 529 steps" % TABLE_BASE in text
        assert "model expected 600." in text
        csv = residuals_to_csv(fit)
        lines = csv.splitlines()
        assert lines[0] == "step,residual"
        assert lines[1] == "0,0.000000"
        assert len(lines) == 531

    def test_small_start_note(self):
        assert "rough guide" in comparison_to_text(compare(iterate(t_map(), 27)))


class TestTagViews:
    def test_text_mentions_outcome(self):
        run = run_tag(post_tag(), "00000000")
        text = tagrun_to_text(run)
        assert "halted after 6 steps" in text

    def test_trace_csv(self):
        run = run_tag(post_tag(), "0000", keep_trace=True)
        lines = tagrun_trace_csv(run).splitlines()
        assert lines[0] == "step,word_length,first_letter"
        assert lines[1] == "0,4,0"
        assert len(lines) == run.steps + 2

    def test_trace_csv_requires_trace(self):
        with pytest.raises(ValueError):
            tagrun_trace_csv(run_tag(post_tag(), "0000"))

    def test_json(self):
        run = run_tag(post_tag(), "1101")
        doc = tagrun_to_json(run)
        assert doc["schema"] == SCHEMA
        assert doc["outcome"] == "cycled"
        assert doc["cycle_start"] == 3
        assert doc["cycle_length"] == 2


class TestInfo:
    INFO = {"backend": "numpy", "python": "3.11.7", "numpy": "2.4.6", "cpu_count": None,
            "lanes": 65536, "scan_lanes": 16384, "verify_lanes": 16384, "dip_cap": 1000, "dip_min_live": 64}

    def test_text_is_frozen(self):
        assert info_to_text(self.INFO) == (
            "backend       numpy     kernel backend (numpy lockstep lanes; numba is not used)\n"
            "python        3.11.7    Python version\n"
            "numpy         2.4.6     numpy version\n"
            "cpu_count     unknown   logical CPUs (os.cpu_count)\n"
            "lanes         65536     lanes per cycle-census block\n"
            "scan_lanes    16384     starts per records-scan block (dip calls: up to twice as many)\n"
            "verify_lanes  16384     lanes per verify-kernel and recheck limb block\n"
            "dip_cap       1000      census steps before a start is handed back\n"
            "dip_min_live  64        census block handed back below this many walking lanes\n"
        )

    def test_json_is_frozen(self):
        doc = info_to_json(dict(self.INFO, cpu_count=2))
        assert json.dumps(doc) == (
            '{"schema": "collatz-lab/1", "kind": "info", "backend": "numpy", '
            '"python": "3.11.7", "numpy": "2.4.6", "cpu_count": 2, "lanes": 65536, '
            '"scan_lanes": 16384, "verify_lanes": 16384, "dip_cap": 1000, "dip_min_live": 64}'
        )
