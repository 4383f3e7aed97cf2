"""End-to-end tests of the command-line interface.

Each test drives main() in process and checks the exit code contract:
0 success, 1 bad input, 2 budget ran out or undecided, 3 counterexample
or anomaly found.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from collatz_lab import _kernels, render, sieve, tag
from collatz_lab.cli import main
from collatz_lab.maps import TABLE_BASE
from collatz_lab.trajectory import IterationLimits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTraj:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "traj", "27")
        assert code == 0
        assert "reached-one after 70 steps" in out
        assert "peak 4616" in out

    def test_values_flag(self, capsys):
        code, out, _ = run_cli(capsys, "traj", "7", "--values")
        assert code == 0
        assert "values: 7 11 17 26 13 20 10 5 8 4 2 1" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "traj", "27", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "step,value,parity"
        assert len(out.splitlines()) == 72

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "traj", "27", "--format", "json")
        doc = json.loads(out)
        assert doc["schema"] == "collatz-lab/1"
        assert doc["steps"] == 70

    def test_svg(self, capsys):
        code, out, _ = run_cli(capsys, "traj", "27", "--format", "svg",
                               "--model-overlay")
        assert code == 0
        assert out.startswith("<svg ")
        assert "stroke-dasharray" in out

    def test_scientific_notation_start(self, capsys):
        code, out, _ = run_cli(capsys, "traj", "1e4")
        assert code == 0
        assert "start 10000" in out

    def test_custom_map(self, capsys):
        code, out, _ = run_cli(
            capsys, "traj", "7", "--map", "d=2;pairs=(1,0),(3,1);partial=false"
        )
        assert code == 0
        assert "cycle: [1, 2]" in out

    def test_5x1_map_hits_bit_budget(self, capsys):
        code, out, _ = run_cli(capsys, "traj", "7", "--map", "5x+1",
                               "--limit-bits", "64")
        assert code == 2
        assert "bit-limit" in out

    def test_views_of_values_past_4300_digits(self, capsys):
        # 15,000 bits is about 4,500 digits, past Python's default cap on
        # int-to-str conversion; the bit-limit outcome must still print.
        code, out, _ = run_cli(capsys, "traj", "7", "--map", "5x+1",
                               "--limit-bits", "15000")
        assert code == 2
        assert "bit-limit" in out
        code, out, _ = run_cli(capsys, "traj", "1e4400", "--limit-steps", "3",
                               "--format", "json")
        assert code == 2
        assert '"start": 1%s,' % ("0" * 4400) in out

    def test_bad_map_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "traj", "7", "--map", "9z+1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flag, value", [("--limit-steps", "-5"), ("--limit-bits", "-1")])
    def test_negative_limit_is_input_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "traj", "27", flag, value)
        assert code == 1
        assert out == ""
        assert "must be >= 0" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "traj", "27", "--format", "csv",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == "step,value,parity"


class TestStats:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "27")
        assert code == 0
        assert "steps to reach 1:   70" in out
        assert "steps to drop below n: 59" in out

    def test_json_exact_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "stats", str(TABLE_BASE), "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["total_steps"] == 529
        assert doc["odd_ratio"] == [255, 529]
        assert doc["odd_ratio_text"] == "0.48204"

    def test_start_of_one(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "1")
        assert code == 0
        assert "never (n = 1)" in out

    def test_budget_exhaustion_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "stats", "27", "--limit-steps", "5")
        assert code == 2


class TestCensus:
    def test_text_grid(self, capsys):
        code, out, _ = run_cli(capsys, "census", "100*floor(pi*1e35)", "100")
        assert code == 0
        assert "+90" in out
        assert "  529     38  0.48204" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "census", str(TABLE_BASE), "100",
                               "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "steps,count,odd_ratio"
        assert "846,27,0.53782" in out

    def test_strict_ratio_anomaly_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "census", "1", "100", "--strict-ratio")
        assert code == 3

    def test_loose_ratio_same_block_exit_0(self, capsys):
        code, _, _ = run_cli(capsys, "census", "1", "100")
        assert code == 0


class TestVerify:
    def test_million_range(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--from", "1", "--to", "1e6")
        assert code == 0
        assert "no counterexamples" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--from", "1", "--to", "1e5",
                               "--sieve-k", "12", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == "collatz-lab/1"
        assert doc["counterexamples"] == []

    def test_checkpoint_resume(self, capsys, tmp_path):
        path = tmp_path / "ck.txt"
        code1, out1, _ = run_cli(capsys, "verify", "--from", "1", "--to", "1e6",
                                 "--checkpoint", str(path), "--format", "json")
        code2, out2, _ = run_cli(capsys, "verify", "--from", "1", "--to", "1e6",
                                 "--checkpoint", str(path), "--format", "json")
        assert code1 == code2 == 0
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d2["chunks_done_before"] == d2["chunks_total"]
        for key in ("checked_dense", "checked_survivors", "skipped"):
            assert d1[key] == d2[key]

    def test_checkpoint_mismatch_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "ck.txt"
        run_cli(capsys, "verify", "--from", "1", "--to", "1e5",
                "--checkpoint", str(path))
        code, _, err = run_cli(capsys, "verify", "--from", "2", "--to", "1e5",
                               "--checkpoint", str(path))
        assert code == 1
        assert "checkpoint" in err

    def test_missing_range_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--from", "1")
        assert code == 1

    def test_progress_reports_rate_and_eta_on_stderr(self, capsys, tmp_path):
        argv = ("verify", "--from", "1", "--to", "1e6", "--sieve-k", "12",
                "--spans-per-chunk", "16", "--format", "json")
        _, plain, _ = run_cli(capsys, *argv)
        path = tmp_path / "ck.txt"

        class Stop(Exception):
            pass

        def bail_early(done, total, checked):
            if done == 3:
                raise Stop

        with pytest.raises(Stop):
            sieve.verify_range(1, 10**6, k=12, spans_per_chunk=16,
                               checkpoint_path=str(path), on_progress=bail_early)
        code, out, err = run_cli(capsys, *argv, "--progress", "--checkpoint", str(path))
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == json.loads(out)["chunks_total"] - 3
        # The first resumed commit includes the credited chunks, so it
        # carries no rate; every later line does.
        assert lines[0].startswith("chunk 4/") and "starts/s" not in lines[0]
        for line in lines[1:]:
            assert ", checked " in line and " starts/s, ETA " in line
        assert lines[-1].endswith("ETA 0.0 s")
        drop = lambda text: {k: v for k, v in json.loads(text).items()
                             if k not in ("elapsed", "chunks_done_before", "rechecked")}
        assert drop(out) == drop(plain)
        _, fresh, err = run_cli(capsys, *argv, "--progress")
        # every line but "elapsed" and the closing brace
        assert fresh.splitlines()[:-2] == plain.splitlines()[:-2]
        assert all(" starts/s, ETA " in line for line in err.splitlines())

    def test_workers_default_to_one_whatever_the_environment(self, capsys, monkeypatch):
        # --workers is the only way to ask for more processes.
        monkeypatch.setenv("COLLATZ_LAB_THREADS", "2")
        code, out, _ = run_cli(capsys, "verify", "--from", "1", "--to", "1e5",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["workers"] == 1

    @pytest.mark.parametrize("spans", ["0", "-1"])
    def test_spans_per_chunk_below_one_is_input_error(self, capsys, spans):
        code, out, err = run_cli(capsys, "verify", "--from", "1", "--to", "1e6",
                                 "--sieve-k", "12", "--spans-per-chunk", spans)
        assert code == 1
        assert out == ""
        assert "spans_per_chunk" in err


class TestRecords:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "records", "2", "1000")
        assert code == 0
        assert "27  2.559982" in out

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "records", "2", "1000", "--format", "csv")
        assert code == 0
        assert "peak,703,125252" in out

    def test_undecided_starts_below_the_range_are_not_listed(self, capsys):
        # 27 needs 70 steps, but every start of [28, 30] reaches 1 in 13.
        code, out, _ = run_cli(capsys, "records", "28", "30", "--limit-steps", "20",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["unknown"] == []


class TestPredict:
    def test_positional(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "27")
        assert code == 0
        assert "drift per step:        -0.14384" in out

    def test_n_flag_json(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--n", str(TABLE_BASE),
                               "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert round(doc["expected_steps"]) == 600

    def test_missing_n_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "predict")
        assert code == 1
        assert "error" in err


class TestCompare:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "compare", str(TABLE_BASE))
        assert code == 0
        assert "529 steps, model expected 600." in out

    def test_csv_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "27", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "step,residual"
        assert out.splitlines()[1] == "0,0.000000"

    def test_unfinished_orbit_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "compare", "27", "--limit-steps", "5")
        assert code == 2
        assert "before reaching 1" in err


class TestTag:
    def test_run_post_preset(self, capsys):
        code, out, _ = run_cli(capsys, "tag", "run", "--system", "post",
                               "--initial", "00000000")
        assert code == 0
        assert "halted after 6 steps" in out

    def test_run_zeros_shorthand(self, capsys):
        code, out, _ = run_cli(capsys, "tag", "run", "--zeros", "7")
        assert code == 0
        assert "all-zero lengths: [7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1]" in out

    def test_run_trace_csv(self, capsys):
        code, out, _ = run_cli(capsys, "tag", "run", "--system", "post",
                               "--initial", "1101", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "step,word_length,first_letter"

    def test_run_target(self, capsys):
        code, out, _ = run_cli(capsys, "tag", "run", "--zeros", "5",
                               "--target", "0")
        assert code == 0
        assert "reached-target" in out

    def test_run_step_limit_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "tag", "run", "--system", "post",
                             "--initial", "00000000", "--max-steps", "2")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--max-steps", "--max-length"])
    def test_run_negative_budget_is_input_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "tag", "run", "--zeros", "5", flag, "-1")
        assert code == 1
        assert out == ""
        assert "must be >= 0" in err

    def test_run_from_file(self, capsys, tmp_path):
        path = tmp_path / "sys.tag"
        path.write_text("2 3\n00\n1101\n")
        code, out, _ = run_cli(capsys, "tag", "run", "--system", str(path),
                               "--initial", "0000")
        assert code == 0
        assert "halted after 2 steps" in out

    def test_run_needs_a_word(self, capsys):
        code, _, err = run_cli(capsys, "tag", "run", "--system", "post")
        assert code == 1
        assert "give --initial" in err

    def test_unknown_system_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "tag", "run", "--system", "nope",
                             "--initial", "00")
        assert code == 1

    def test_check(self, capsys):
        code, out, _ = run_cli(capsys, "tag", "check", "27")
        assert code == 0
        assert "match" in out

    def test_check_out_of_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(tag, "DEFAULT_LIMITS", IterationLimits(10, 4096))
        code, out, _ = run_cli(capsys, "tag", "check", "27")
        assert code == 2
        assert out == ("all-zero lengths against the halved 3x+1 orbit of 27: "
                       "undecided, a budget ran out\n")


class TestInfo:
    def test_reports_this_process(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "schema": "collatz-lab/1", "kind": "info", "backend": "numpy",
            "python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
            "cpu_count": os.cpu_count(), "lanes": _kernels.LANES,
            "scan_lanes": _kernels.SCAN_LANES, "verify_lanes": _kernels.VERIFY_LANES, "dip_cap": _kernels.DIP_CAP,
            "dip_min_live": _kernels.DIP_MIN_LIVE,
        }
        code, out, _ = run_cli(capsys, "info")
        assert code == 0
        assert out == render.info_to_text(doc)


class TestCycles:
    def test_default_map(self, capsys):
        code, out, _ = run_cli(capsys, "cycles", "1", "1000")
        assert code == 0
        assert "[1, 2]" in out

    def test_5x1_hits_budgets_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "cycles", "1", "100", "--map", "5x+1",
                               "--limit-steps", "10000", "--limit-bits", "4096")
        assert code == 2
        assert "[1, 3, 8, 4, 2]" in out
        assert "[13, 33, 83, 208, 104, 52, 26]" in out

    def test_permutation_json(self, capsys):
        code, out, _ = run_cli(capsys, "cycles", "1", "100", "--map", "u",
                               "--limit-steps", "10000", "--limit-bits", "4096",
                               "--format", "json")
        doc = json.loads(out)
        assert code == 2
        assert [1] in doc["cycles"]
        assert [2, 3] in doc["cycles"]


class TestSets:
    def test_s0_members(self, capsys):
        code, out, _ = run_cli(capsys, "sets", "closure", "--preset", "s0",
                               "--bound", "50", "--format", "members")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "member"
        assert lines[1:] == [str(i) for i in range(1, 51)]

    def test_s2_text(self, capsys):
        code, out, _ = run_cli(capsys, "sets", "closure", "--preset", "s2",
                               "--bound", "20")
        assert code == 0
        assert "13 members up to 20" in out
        assert "members: 1 2 4 5 8 9 10 14 15 16 17 18 20" in out

    def test_density_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sets", "closure", "--preset", "s1",
                               "--bound", "1000", "--checkpoints", "100,1000",
                               "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "checkpoint,count,density"
        assert lines[2].startswith("1000,266,")

    def test_custom_generators(self, capsys):
        code, out, _ = run_cli(capsys, "sets", "closure", "--gen", "2,0",
                               "--seed", "1", "--bound", "100",
                               "--format", "members")
        assert code == 0
        assert out.splitlines()[1:] == ["1", "2", "4", "8", "16", "32", "64"]

    def test_bad_generator_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "sets", "closure", "--gen", "2",
                             "--bound", "10")
        assert code == 1


class TestOrbit:
    def test_open_orbit_exit_2(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "8", "--limit-steps", "517")
        assert code == 2
        assert "step-limit" in out

    def test_closed_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "orbit", "4")
        assert code == 0
        assert "cycle: [4, 6, 9, 7, 5]" in out


class TestParsing:
    def test_unknown_command_is_input_error(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 1

    def test_bad_number_is_input_error(self, capsys):
        code = main(["traj", "abc"])
        capsys.readouterr()
        assert code == 1

    def test_parse_error_leaves_the_shared_parser_usable(self, capsys):
        # The parser is built once per process; a failed parse must not
        # change what the next call, of another subcommand, sees.
        assert main(["traj", "abc"]) == 1
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "traj", "27")
        assert code == 0
        assert out == (
            "start 27 under 3x+1: reached-one after 70 steps\n"
            "peak 4616, final 1, odd steps 41\n"
        )
        assert main(["sets", "closure", "--preset", "s9", "--bound", "5"]) == 1
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "stats", "27", "--limit-steps", "10")
        assert code == 2
        assert out == "n = 27\nsteps to reach 1:   unknown\nsteps to drop below n: unknown\n"


# Exact stdout of the commands whose JSON documents and text views are
# built in render; any change to a byte of these outputs fails here.
GOLDEN_STDOUT = [
    (("stats", "27"), 0,
     "n = 27\n"
     "steps to reach 1:   70\n"
     "steps to drop below n: 59\n"
     "odd-step ratio:     41/70 = 0.58571\n"
     "log peak / log n:   2.55998\n"
     "steps / log n:      21.2389\n"),
    (("stats", "27", "--format", "json"), 0,
     '{\n'
     '  "schema": "collatz-lab/1",\n'
     '  "kind": "stats",\n'
     '  "n": 27,\n'
     '  "total_steps": 70,\n'
     '  "stopping_time": 59,\n'
     '  "odd_ratio": [\n'
     '    41,\n'
     '    70\n'
     '  ],\n'
     '  "odd_ratio_text": "0.58571",\n'
     '  "peak_log_ratio": 2.5599822294653745,\n'
     '  "steps_per_log": 21.23891528795954\n'
     '}\n'),
    (("stats", "1"), 0,
     "n = 1\n"
     "steps to reach 1:   0\n"
     "steps to drop below n: never (n = 1)\n"),
    (("stats", "1", "--format", "json"), 0,
     '{\n'
     '  "schema": "collatz-lab/1",\n'
     '  "kind": "stats",\n'
     '  "n": 1,\n'
     '  "total_steps": 0,\n'
     '  "stopping_time": "infinity",\n'
     '  "odd_ratio": null,\n'
     '  "odd_ratio_text": null,\n'
     '  "peak_log_ratio": null,\n'
     '  "steps_per_log": null\n'
     '}\n'),
    (("stats", "100*floor(pi*1e35)"), 0,
     "n = 31415926535897932384626433832795028800\n"
     "steps to reach 1:   529\n"
     "steps to drop below n: 1\n"
     "odd-step ratio:     255/529 = 0.48204\n"
     "log peak / log n:   0.99197\n"
     "steps / log n:      6.1269\n"),
    (("stats", "100*floor(pi*1e35)", "--format", "json"), 0,
     '{\n'
     '  "schema": "collatz-lab/1",\n'
     '  "kind": "stats",\n'
     '  "n": 31415926535897932384626433832795028800,\n'
     '  "total_steps": 529,\n'
     '  "stopping_time": 1,\n'
     '  "odd_ratio": [\n'
     '    255,\n'
     '    529\n'
     '  ],\n'
     '  "odd_ratio_text": "0.48204",\n'
     '  "peak_log_ratio": 0.9919719232878764,\n'
     '  "steps_per_log": 6.126913157581635\n'
     '}\n'),
    (("stats", "27", "--limit-steps", "10", "--format", "json"), 2,
     '{\n'
     '  "schema": "collatz-lab/1",\n'
     '  "kind": "stats",\n'
     '  "n": 27,\n'
     '  "total_steps": null,\n'
     '  "stopping_time": null,\n'
     '  "odd_ratio": null,\n'
     '  "odd_ratio_text": null,\n'
     '  "peak_log_ratio": null,\n'
     '  "steps_per_log": null\n'
     '}\n'),
    (("predict", "27", "--format", "json"), 0,
     '{\n'
     '  "schema": "collatz-lab/1",\n'
     '  "kind": "prediction",\n'
     '  "n": 27,\n'
     '  "log_n": 3.295836866004329,\n'
     '  "slope": -0.14384103622589045,\n'
     '  "expected_steps": 22.913050075838516,\n'
     '  "upper_bound_steps": 137.36272547091474,\n'
     '  "extremal_steps": 71.0252844623933,\n'
     '  "extremal_peak_log": 6.591673732008658\n'
     '}\n'),
    # Text, CSV and members views, each written through cli._show.
    (("traj", "27", "--values"), 0,
     "start 27 under 3x+1: reached-one after 70 steps\n"
     "peak 4616, final 1, odd steps 41\n"
     "values: 27 41 62 31 47 71 107 161 242 121 182 91 137 206 103 155 233 350 175 263"
     " 395 593 890 445 668 334 167 251 377 566 283 425 638 319 479 719 1079 1619 2429"
     " 3644 1822 911 1367 2051 3077 4616 2308 1154 577 866 433 650 325 488 244 122 61"
     " 92 46 23 35 53 80 40 20 10 5 8 4 2 1\n"),
    (("traj", "7", "--map", "d=2;pairs=(1,0),(3,1);partial=false"), 0,
     "start 7 under d=2;pairs=(1,0),(3,1);partial=false: entered-cycle after 12 steps\n"
     "peak 26, final 2, odd steps 6\n"
     "cycle: [1, 2]\n"),
    (("orbit", "8", "--limit-steps", "517"), 2,
     "orbit of 8 under the even/4n+1/4n+3 permutation: step-limit after 517 steps\n"
     "peak 1461407397228, final 1461407397228\n"),
    (("sets", "closure", "--preset", "s0", "--bound", "50"), 0,
     "50 members up to 50\n"
     "members: 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50\n"
     "checkpoint  count  density\n"
     "        50     50  1.000000\n"),
    (("sets", "closure", "--preset", "s0", "--bound", "50", "--format", "members"), 0,
     "member\n" + "".join("%d\n" % m for m in range(1, 51))),
    (("sets", "closure", "--preset", "s2", "--bound", "100"), 0,
     "52 members up to 100\n"
     "members: 1 2 4 5 8 9 10 14 15 16 17 18 20 26 27 28 29 30 32 33 34 36 40 44 47 50 51 52 53 54 56 57 58 60 62 63 64 66 68 72 80 83 86 87 88 89 92 93 94 98 99 100\n"
     "checkpoint  count  density\n"
     "       100     52  0.520000\n"),
    (("tag", "check", "27"), 0,
     "all-zero lengths match the halved 3x+1 orbit of 27\n"),
    (("cycles", "1", "100", "--map", "5x+1", "--limit-steps", "10000", "--limit-bits", "4096"), 2,
     "cycles with a member in [1, 100]:\n"
     "  length 5, odd steps 2: [1, 3, 8, 4, 2]\n"
     "  length 7, odd steps 3: [13, 33, 83, 208, 104, 52, 26]\n"
     "  length 7, odd steps 3: [17, 43, 108, 54, 27, 68, 34]\n"
     "starts that hit a budget: 60\n"
     "starts that left the domain: 0\n"),
    (("census", "1e35", "100", "--format", "csv"), 0,
     "steps,count,odd_ratio\n"
     "481,1,0.47817\n"
     "508,19,0.48622\n"
     "573,49,0.50261\n"
     "592,10,0.50675\n"
     "836,21,0.54306\n"),
    (("records", "2", "1000"), 0,
     "record holders in [2, 1000]\n"
     "steps / log n:\n"
     "  2  1.442695\n"
     "  3  4.551196\n"
     "  7  5.652882\n"
     "  9  5.916555\n"
     "  27  21.238915\n"
     "log peak / log n:\n"
     "  2  0.000000\n"
     "  3  1.892789\n"
     "  27  2.559982\n"
     "peak value:\n"
     "  2  1\n"
     "  3  8\n"
     "  7  26\n"
     "  15  80\n"
     "  27  4616\n"
     "  255  6560\n"
     "  447  19682\n"
     "  639  20762\n"
     "  703  125252\n"
     "starts with steps >= 6.143 * log n: 385\n"),
    (("records", "2", "1000", "--format", "csv"), 0,
     "table,n,value\n"
     "steps_per_log,2,1.442695\n"
     "steps_per_log,3,4.551196\n"
     "steps_per_log,7,5.652882\n"
     "steps_per_log,9,5.916555\n"
     "steps_per_log,27,21.238915\n"
     "peak_log_ratio,2,0.000000\n"
     "peak_log_ratio,3,1.892789\n"
     "peak_log_ratio,27,2.559982\n"
     "peak,2,1\n"
     "peak,3,8\n"
     "peak,7,26\n"
     "peak,15,80\n"
     "peak,27,4616\n"
     "peak,255,6560\n"
     "peak,447,19682\n"
     "peak,639,20762\n"
     "peak,703,125252\n"),
    (("predict", "27"), 0,
     "n = 27 (log n = 3.2958)\n"
     "drift per step:        -0.14384\n"
     "expected steps:        22.9\n"
     "step-count ceiling:    137.4\n"
     "extremal: peak log 6.6, total steps 71.0\n"),
    (("compare", "27"), 0,
     "start 27: 70 steps, model expected 22.9 (ratio 3.055)\n"
     "max |residual| 11.614, rms 7.630, within the step ceiling\n"
     "note: log n < 10, the asymptotic line is a rough guide here\n"),
]

# Longer documents are frozen by length and SHA-256 of their stdout.
GOLDEN_DIGESTS = [
    (("compare", "27", "--format", "json"), 0, 1986,
     "b709438e461b0201c9d57284bd8e99873c861a68aaab59168939d0e5759c94ef"),
    (("sets", "closure", "--preset", "s1", "--bound", "1000", "--format", "json"), 0, 2580,
     "a0279e711f96a161a384d7b49c8cfef1ee57f3a2644d547e0d487fbdbb050c5a"),
    (("traj", "27", "--format", "csv"), 0, 631,
     "af9ff7030ac129bef9040fcf856b7deefa38801d8881c2531dc7c66d49dc210b"),
    (("traj", "27", "--format", "json"), 0, 804,
     "fcb91a6289b9f2c27e091455e4fea011bd78bfa3319f6474bc93930fb2f0da8c"),
    (("traj", "27", "--format", "svg"), 0, 1743,
     "4a578f0316f055086239daf755637d68d05000a5793ee7f35cb525f95811f485"),
    (("orbit", "8", "--limit-steps", "517", "--format", "json"), 2, 7003,
     "8a2fa9b56bde7e247aad50e818d5df1592904a6c09bccacab402044a7e286ff5"),
    (("sets", "closure", "--preset", "s0", "--bound", "100000", "--format", "json"), 0, 1089233,
     "26a42adbb25518cf72a0345c57f309312ccaa032a13e7b64bfa80f37f3436e71"),
    # records ranges that span several scan blocks, default and budgeted
    (("records", "2", "300000", "--format", "json"), 0, 1491,
     "3d1b53865962e5086389b68c42fb10e7ba822f9bf812c8fe98a8538468e96251"),
    (("records", "150000", "400000", "--format", "csv"), 0, 800,
     "47761b36ee5232ecd8458dd1019ffeb182703e07c1da29678a44785807a128a7"),
    (("records", "2", "200000", "--limit-steps", "150", "--limit-bits", "36",
      "--format", "json"), 2, 45658,
     "fdc2822f270e374dc7f6f7b74b72a5230778f1d83242ad0b8feda75ae2027d8f"),
    (("tag", "run", "--zeros", "27"), 0, 451,
     "a34af041b6cbd491903d5391b033bb94d449251cbf0a6176602afee9affbef63"),
    (("tag", "run", "--zeros", "27", "--format", "csv"), 0, 501024,
     "a1711dbfe0cc42b254fc3157dcd2b765592da0952ec68b4b5b3295420d1e3b4f"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize("argv,code,expected", GOLDEN_STDOUT,
                             ids=[" ".join(c[0]) for c in GOLDEN_STDOUT])
    def test_stdout_is_frozen(self, capsys, argv, code, expected):
        got_code, out, _ = run_cli(capsys, *argv)
        assert got_code == code
        assert out == expected

    @pytest.mark.parametrize("argv,code,size,digest", GOLDEN_DIGESTS,
                             ids=[" ".join(c[0]) for c in GOLDEN_DIGESTS])
    def test_stdout_digest_is_frozen(self, capsys, argv, code, size, digest):
        got_code, out, _ = run_cli(capsys, *argv)
        assert got_code == code
        assert len(out) == size
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_text_is_frozen_but_for_elapsed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--from", "1", "--to", "1e5")
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert lines[-1].startswith("elapsed ")
        assert "".join(lines[:-1]) == (
            "verified [1, 100000] with k=16: 1 chunks, 0 already done, 1 workers\n"
            "checked 100000 dense + 0 survivors, skipped 0 certified starts\n"
            "exact rechecks this run: 0\n"
            "no counterexamples\n"
        )
