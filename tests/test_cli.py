"""End-to-end tests of the command-line interface.

Each test drives main() in process and checks the exit code contract:
0 success, 1 bad input, 2 budget ran out or undecided, 3 counterexample
or anomaly found.
"""

import hashlib
import json

import pytest

from collatz_lab.cli import main
from collatz_lab.maps import TABLE_BASE


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

    def test_bad_map_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "traj", "7", "--map", "9z+1")
        assert code == 1
        assert "error" in err

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
]

# Longer documents are frozen by length and SHA-256 of their stdout.
GOLDEN_DIGESTS = [
    (("compare", "27", "--format", "json"), 0, 1986,
     "b709438e461b0201c9d57284bd8e99873c861a68aaab59168939d0e5759c94ef"),
    (("sets", "closure", "--preset", "s1", "--bound", "1000", "--format", "json"), 0, 2580,
     "a0279e711f96a161a384d7b49c8cfef1ee57f3a2644d547e0d487fbdbb050c5a"),
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
