"""Tests for the k-step jump table and the checkpointed range verifier."""

import os

import numpy as np
import pytest

from collatz_lab import (
    CheckpointMismatchError,
    build_table,
    k_step,
    parity_bijection_check,
    survivor_counts,
    verify_range,
)
from collatz_lab import sieve
from collatz_lab.maps import t_step
from collatz_lab.sieve import _plan_chunks

KNOWN_SURVIVOR_COUNTS = (
    1, 1, 2, 3, 4, 8, 13, 19, 38, 64, 128, 226, 367, 734, 1295, 2114,
)


def t_iter(n: int, k: int) -> int:
    for _ in range(k):
        n = t_step(n)
    return n


class TestTable:
    def test_survivor_counts_match_known_sequence(self):
        assert survivor_counts(16) == KNOWN_SURVIVOR_COUNTS

    def test_smallest_tables(self):
        assert list(build_table(1).survivors) == [1]
        assert list(build_table(2).survivors) == [3]
        assert list(build_table(4).survivors) == [7, 11, 15]

    def test_no_rescued_classes_up_to_16(self):
        for k in range(1, 17):
            assert build_table(k).rescued == 0

    def test_even_class_drops_at_first_step(self):
        table = build_table(8)
        assert table.dropped_at[0] == 1
        assert all(table.dropped_at[r] == 1 for r in range(0, 256, 2))

    def test_survivors_marked_undropped(self):
        table = build_table(10)
        for r in table.survivors:
            assert table.dropped_at[r] == -1

    def test_rejects_out_of_range_width(self):
        with pytest.raises(ValueError):
            build_table(0)
        with pytest.raises(ValueError):
            build_table(25)

    def test_drop_certificates_are_sound(self):
        # Every class the table drops must genuinely descend within the
        # promised number of steps, for any member above the table width.
        table = build_table(8)
        for r in range(256):
            j = int(table.dropped_at[r])
            if j == -1:
                continue
            for q in (1, 2, 17, 1000):
                n = (q << 8) + r
                assert t_iter(n, j) < n

    def test_skipped_starts_all_descend(self):
        table = build_table(8)
        survivors = set(int(r) for r in table.survivors)
        for n in range(256, 4096):
            if n % 256 in survivors:
                continue
            x = n
            for _ in range(200):
                x = t_step(x)
                if x < n:
                    break
            assert x < n


class TestKStep:
    def test_matches_direct_iteration_small(self):
        table = build_table(8)
        for n in range(1, 3000):
            assert k_step(table, n) == t_iter(n, 8)

    def test_matches_direct_iteration_big(self):
        table = build_table(16)
        rng = np.random.default_rng(7)
        for _ in range(200):
            q = int(rng.integers(0, 1 << 62)) << 40 | int(rng.integers(0, 1 << 40))
            r = int(rng.integers(0, 1 << 16))
            n = (q << 16) + r
            if n == 0:
                continue
            assert k_step(table, n) == t_iter(n, 16)

    def test_all_ones_residue_formula(self):
        # 2^m - 1 is odd for k straight steps: T^k = 3^k * 2^(m-k) - 1.
        table = build_table(12)
        for m in range(12, 40):
            assert k_step(table, (1 << m) - 1) == 3**12 * (1 << (m - 12)) - 1


class TestParityBijection:
    def test_holds_for_small_widths(self):
        for k in range(1, 13):
            assert parity_bijection_check(k)

    def test_rejects_oversized_width(self):
        with pytest.raises(ValueError):
            parity_bijection_check(30)


class TestPlanChunks:
    def test_range_inside_one_span_is_single_dense_chunk(self):
        assert _plan_chunks(100, 200, 16, 256) == [("dense", 100, 200)]

    def test_exact_span_has_no_dense_edges(self):
        assert _plan_chunks(1 << 16, (1 << 17) - 1, 16, 256) == [("spans", 1, 2)]

    def test_ragged_edges_become_dense_pieces(self):
        chunks = _plan_chunks(1, 10**6, 16, 256)
        assert chunks[0] == ("dense", 1, (1 << 16) - 1)
        assert chunks[1] == ("spans", 1, 15)
        assert chunks[2] == ("dense", 15 << 16, 10**6)

    def test_chunks_cover_without_overlap(self):
        width = 1 << 8
        for lo, hi in [(1, 10**4), (300, 300), (256, 511), (255, 512)]:
            chunks = _plan_chunks(lo, hi, 8, 2)
            covered = 0
            for kind, a, b in chunks:
                covered += (b - a + 1) if kind == "dense" else (b - a) * width
            assert covered == hi - lo + 1


class TestVerifyRange:
    def test_million_range_counts(self):
        report = verify_range(1, 10**6, k=16)
        assert report.counterexamples == ()
        assert report.checked_dense == 65535 + 16961
        assert report.checked_survivors == 14 * 2114
        assert report.skipped == 10**6 - report.checked_dense - report.checked_survivors

    def test_small_width_agrees_with_large(self):
        a = verify_range(1, 10**5, k=8)
        b = verify_range(1, 10**5, k=12)
        assert a.counterexamples == b.counterexamples == ()

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            verify_range(0, 100)
        with pytest.raises(ValueError):
            verify_range(100, 10)

    @pytest.mark.parametrize("spans", [0, -1])
    def test_rejects_spans_per_chunk_below_one(self, spans):
        # A non-positive chunk size would plan no survivor chunks and
        # report the uncomputed starts as skipped.
        with pytest.raises(ValueError, match="spans_per_chunk"):
            verify_range(1, 10**5, k=12, spans_per_chunk=spans)

    def test_forced_recheck_path_keeps_counts(self):
        # max_jumps=1 starves the jump kernel so survivors surface as
        # unresolved and go through the exact big-int recheck.
        normal = verify_range(1, 2 * 10**5, k=16)
        starved = verify_range(1, 2 * 10**5, k=16, max_jumps=1)
        assert starved.rechecked > 0
        assert starved.counterexamples == normal.counterexamples == ()
        assert starved.checked_survivors == normal.checked_survivors

    def test_workers_use_the_given_table(self, monkeypatch):
        table = build_table(12)

        def no_rebuild(k):
            raise AssertionError("table rebuilt for k=%d" % k)

        monkeypatch.setattr(sieve, "build_table", no_rebuild)
        report = verify_range(1, 1 << 18, k=12, table=table, workers=2,
                              spans_per_chunk=8)
        assert report.counterexamples == ()
        assert report.checked_survivors == 63 * int(table.survivors.size)

    def test_pool_interrupt_records_exactly_the_committed_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "check.txt"
        fresh = verify_range(1, 1 << 21, k=12, spans_per_chunk=8)

        class Stop(Exception):
            pass

        def bail_early(done, total, checked):
            if done == 2:
                raise Stop

        # Forked workers inherit the patch and log each chunk they run.
        ran = tmp_path / "ran.txt"
        run_chunk = sieve._run_chunk

        def logged(table, chunk, *args):
            with open(ran, "a") as fh:
                fh.write("%s %d %d\n" % chunk)
            return run_chunk(table, chunk, *args)

        monkeypatch.setattr(sieve, "_run_chunk", logged)
        with pytest.raises(Stop):
            verify_range(1, 1 << 21, k=12, spans_per_chunk=8, workers=2,
                         checkpoint_path=str(path), on_progress=bail_early)
        monkeypatch.undo()
        head = path.read_text().splitlines()[0].split()
        assert head[5] == "2"
        # two committed, at most 2 * workers ahead of them, of 65 chunks
        assert len(ran.read_text().splitlines()) <= 2 + 2 * 2
        resumed = verify_range(1, 1 << 21, k=12, spans_per_chunk=8, workers=2,
                               checkpoint_path=str(path))
        assert resumed.chunks_done_before == 2
        for field in ("checked_dense", "checked_survivors", "skipped",
                      "counterexamples", "chunks_total"):
            assert getattr(fresh, field) == getattr(resumed, field)

    def test_worker_count_does_not_change_results(self):
        solo = verify_range(1, 1 << 21, k=16, spans_per_chunk=8)
        duo = verify_range(1, 1 << 21, k=16, spans_per_chunk=8, workers=2)
        assert duo.workers == 2
        for field in ("checked_dense", "checked_survivors", "skipped",
                      "counterexamples", "chunks_total"):
            assert getattr(solo, field) == getattr(duo, field)


class TestCheckpoint:
    def test_file_format_and_completion(self, tmp_path):
        path = tmp_path / "check.txt"
        report = verify_range(1, 10**5, k=12, checkpoint_path=str(path))
        head = path.read_text().splitlines()[0].split()
        assert head == ["v2", "12", "1", "100000", "256", str(report.chunks_total), "0"]

    def test_resume_of_finished_run_is_instant(self, tmp_path):
        path = tmp_path / "check.txt"
        first = verify_range(1, 10**5, k=12, checkpoint_path=str(path))
        second = verify_range(1, 10**5, k=12, checkpoint_path=str(path))
        assert second.chunks_done_before == second.chunks_total
        for field in ("checked_dense", "checked_survivors", "skipped",
                      "counterexamples", "chunks_total"):
            assert getattr(first, field) == getattr(second, field)

    def test_interrupted_run_resumes_to_identical_report(self, tmp_path):
        path = tmp_path / "check.txt"
        fresh = verify_range(1, 10**6, k=16, spans_per_chunk=4)

        class Stop(Exception):
            pass

        def bail_early(done, total, checked):
            if done == 2:
                raise Stop

        with pytest.raises(Stop):
            verify_range(1, 10**6, k=16, spans_per_chunk=4,
                         checkpoint_path=str(path), on_progress=bail_early)
        resumed = verify_range(1, 10**6, k=16, spans_per_chunk=4,
                               checkpoint_path=str(path))
        assert resumed.chunks_done_before == 2
        for field in ("checked_dense", "checked_survivors", "skipped",
                      "counterexamples", "chunks_total"):
            assert getattr(fresh, field) == getattr(resumed, field)

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "check.txt"
        verify_range(1, 10**5, k=12, checkpoint_path=str(path))
        with pytest.raises(CheckpointMismatchError):
            verify_range(2, 10**5, k=12, checkpoint_path=str(path))
        with pytest.raises(CheckpointMismatchError):
            verify_range(1, 10**5, k=10, checkpoint_path=str(path))

    def test_checkpoint_from_another_chunk_plan_rejected(self, tmp_path):
        # The chunk index only means something against the plan that
        # wrote it; resuming under another spans_per_chunk would credit
        # chunks that were never computed.
        path = tmp_path / "check.txt"

        class Stop(Exception):
            pass

        def bail_early(done, total, checked):
            if done == 2:
                raise Stop

        with pytest.raises(Stop):
            verify_range(1, 10**6, k=12, spans_per_chunk=4,
                         checkpoint_path=str(path), on_progress=bail_early)
        with pytest.raises(CheckpointMismatchError):
            verify_range(1, 10**6, k=12, spans_per_chunk=16, checkpoint_path=str(path))
        resumed = verify_range(1, 10**6, k=12, spans_per_chunk=4, checkpoint_path=str(path))
        assert resumed.chunks_done_before == 2

    def test_v1_checkpoint_rejected(self, tmp_path):
        # v1 headers never recorded the chunk plan, so no resume is safe.
        path = tmp_path / "check.txt"
        path.write_text("v1 12 1 100000 3 0\n")
        with pytest.raises(CheckpointMismatchError):
            verify_range(1, 10**5, k=12, checkpoint_path=str(path))

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "check.txt"
        path.write_text("nonsense\n")
        with pytest.raises(CheckpointMismatchError):
            verify_range(1, 10**5, k=12, checkpoint_path=str(path))

    def test_checkpoint_not_left_behind_as_tmp(self, tmp_path):
        path = tmp_path / "check.txt"
        verify_range(1, 10**5, k=12, checkpoint_path=str(path))
        assert not os.path.exists(str(path) + ".tmp")
