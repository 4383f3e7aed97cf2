"""Tests for the k-step jump table and the checkpointed range verifier."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_reference as ref

from collatz_lab import (
    CheckpointMismatchError,
    build_table,
    k_step,
    parity_bijection_check,
    survivor_counts,
    verify_range,
)
from collatz_lab import _kernels, cli, sieve
from collatz_lab.maps import t_step
from collatz_lab.sieve import MAX_TABLE_K, _plan_chunks

KNOWN_SURVIVOR_COUNTS = (
    1, 1, 2, 3, 4, 8, 13, 19, 38, 64, 128, 226, 367, 734, 1295, 2114,
)


def t_iter(n: int, k: int) -> int:
    for _ in range(k):
        n = t_step(n)
    return n


def _parity_word_survivors(k: int) -> int:
    """Length-k parity words whose every prefix j has 3^c_j > 2^j, counted by odd count c."""
    by_c = {0: 1}
    for j in range(1, k + 1):
        nxt: dict = {}
        for c, m in by_c.items():
            for c2 in (c, c + 1):
                if 3**c2 > 2**j:
                    nxt[c2] = nxt.get(c2, 0) + m
        by_c = nxt
    return sum(by_c.values())


class TestTable:
    def test_survivor_counts_match_known_sequence(self):
        assert survivor_counts(16) == KNOWN_SURVIVOR_COUNTS

    def test_smallest_tables(self):
        assert list(build_table(1).survivors) == [1]
        assert list(build_table(2).survivors) == [3]
        assert list(build_table(4).survivors) == [7, 11, 15]

    def test_survivor_counts_equal_the_parity_word_count(self):
        # Residues mod 2^k and parity words of length k are in bijection,
        # and every never-decayed class survives, so the counts agree
        # exactly when no class that decayed (3^c_j < 2^j at some
        # prefix) failed the value check there and survived.
        assert survivor_counts(24) == tuple(_parity_word_survivors(k) for k in range(1, 25))

    @settings(max_examples=200, deadline=None)
    @given(j=st.integers(0, 24), r=st.integers(0, (1 << 24) - 1))
    def test_lift_identity(self, j, r):
        # T^j(r + 2^j) = T^j(r) + 3^c_j(r), which lets build_table lift
        # the classes mod 2^j to 2^(j+1) with one step each.
        r %= 1 << j
        x, c = r, 0
        for _ in range(j):
            c += x & 1
            x = t_step(x)
        assert t_iter(r + (1 << j), j) == x + 3**c

    @pytest.mark.parametrize("k", range(1, 21))
    def test_matches_the_full_width_reference_build(self, k):
        got, want = build_table(k), ref.build_table(k)
        for field in ("c", "s", "survivors", "pow3", "qmax"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype, field
            assert np.array_equal(a, b), field

    def test_wide_tables_at_both_ends_and_block_seams(self, wide_table):
        # build_table composes c and s in blocks of 2^14 residues; the
        # reference build above stops at k = 20.
        k = wide_table.k
        seams = [h << 14 for h in (1, 2, 1 << (k - 15), (1 << (k - 14)) - 1)]
        for r in [0, (1 << k) - 1] + [r for h in seams for r in (h - 1, h)]:
            _assert_row_walks(wide_table, r)

    @settings(max_examples=100, deadline=None)
    @given(r=st.integers(0, (1 << MAX_TABLE_K) - 1))
    def test_wide_table_rows_match_a_plain_walk(self, wide_table, r):
        _assert_row_walks(wide_table, r % (1 << wide_table.k))

    def test_rejects_out_of_range_width(self):
        with pytest.raises(ValueError):
            build_table(0)
        with pytest.raises(ValueError):
            build_table(25)

    def test_drop_certificates_are_sound(self):
        # Every class the table drops must genuinely descend within its
        # first 8 steps, for any member above the table width.
        survivors = set(build_table(8).survivors.tolist())
        for r in set(range(256)) - survivors:
            for q in (1, 2, 17, 1000):
                n = (q << 8) + r
                assert any(t_iter(n, j) < n for j in range(1, 9))

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


@pytest.fixture(scope="module", params=range(21, MAX_TABLE_K + 1), ids=lambda k: "k%d" % k)
def wide_table(request, limb_tables):
    k = request.param
    return limb_tables[k] if k in limb_tables else build_table(k)


def _assert_row_walks(table, r):
    """c[r] and s[r] are the odd count of r's first k steps and T^k(r)."""
    x, c = r, 0
    for _ in range(table.k):
        c += x & 1
        x = t_step(x)
    assert (int(table.c[r]), int(table.s[r])) == (c, x), r


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


_RECHECK_TABLES = {k: build_table(k) for k in (1, 2, 5, 8, 12)}


class TestExactRecheck:
    @settings(max_examples=300, deadline=None)
    @given(
        k=st.sampled_from(sorted(_RECHECK_TABLES)),
        n=st.one_of(st.integers(1, 1 << 20), st.integers(1, 1 << 90)),
        max_steps=st.integers(0, 400),
    )
    def test_resolves_exactly_when_a_jump_boundary_descends(self, k, n, max_steps):
        # The jump walk tests x after 0, k, 2k, ... steps, ceil(max_steps / k)
        # times.  Whatever it resolves must reach an iterate below
        # max(n, 3) under plain t_step, within max_steps steps.
        got = sieve._exact_recheck(_RECHECK_TABLES[k], _kernels.int_blocks([n]), max_steps)
        x = n
        boundary_hit = False
        for _ in range(-(-max_steps // k)):
            if x < max(n, 3):
                boundary_hit = True
                break
            x = t_iter(x, k)
        assert (got == []) == boundary_hit
        if not got:
            assert ref.exact_recheck(n, max_steps) is None
        else:
            assert got == [(n, "no-descent-within-%d-steps" % max_steps)]

    def test_starts_above_int64_and_order_kept(self):
        table = _RECHECK_TABLES[12]
        starts = [(1 << 64) + 27, (1 << 70) - 1, 27, 3]
        assert _recheck(table, starts, 10**6) == []
        # One jump tests only the start itself, so even 3 (four steps
        # from 2) stays open, where a 12-step walk would resolve it.
        assert _recheck(table, starts, 12) == [
            (n, "no-descent-within-12-steps") for n in starts
        ]
        assert _recheck(table, starts, 13) == [
            ((1 << 64) + 27, "no-descent-within-13-steps"),
            ((1 << 70) - 1, "no-descent-within-13-steps"),
            (27, "no-descent-within-13-steps"),
        ]


class TestLimbStage:
    @settings(max_examples=80, deadline=None)
    @given(
        k=st.sampled_from([1, 12, 16, 20, 24]),
        base=st.sampled_from([2**62, 2**63, 2**64, 2**68, 2**90]),
        offset=st.integers(-300, 300),
        length=st.integers(0, 150),
        cut=st.integers(0, 150),
        max_steps=st.integers(0, 300),
        lanes=st.sampled_from([16, 1 << 14]),
    )
    def test_open_list_equals_the_step_walker(self, limb_tables, k, base, offset, length, cut,
                                             max_steps, lanes):
        # Whatever the limb lanes resolve, widen for or leave open (spent
        # budgets), the open list is the one-step walk's, in input order.
        starts = list(range(base + offset, base + offset + length))
        starts = starts[:cut] + [2, 1] + starts[cut:]
        table = limb_tables[k]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_kernels, "VERIFY_LANES", lanes)
            got = _recheck(table, starts, max_steps)
        assert got == _step_walker_recheck(table, starts, max_steps)

    def test_an_empty_recheck_skips_the_limb_stage(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("limb stage ran")

        with monkeypatch.context() as m:
            m.setattr(_kernels, "jump_limbs", refuse)
            assert sieve._exact_recheck(_RECHECK_TABLES[12], iter(()), 10**6) == []
        assert _recheck(_RECHECK_TABLES[12], [5, 27, 1, 2], 0) == [
            (n, "no-descent-within-0-steps") for n in (5, 27, 1, 2)]


def _recheck(table, starts, max_steps):
    """sieve._exact_recheck of Python ints, passed as int_blocks."""
    return sieve._exact_recheck(table, _kernels.int_blocks(starts), max_steps)


def _block_starts(blocks):
    """The Python ints of (base, off) blocks, in order."""
    return [base + i for base, off in blocks for i in off.tolist()]


def _step_walker_recheck(table, starts, max_steps):
    """The recheck as a one-step walk tested at the jump boundaries, from the reference loops."""
    out = []
    for n in starts:
        reason = ref.exact_recheck(n, max_steps, every=table.k)
        if reason is not None:
            out.append((n, reason))
    return out


def _fields(report):
    doc = dataclasses.asdict(report)
    del doc["elapsed"]
    return doc


def _handing_back(table):
    """The table with qmax[1:] zero: an int64 lane jumping with q >= 1 and c >= 1 is handed back.

    limb_bits reads only qmax[0], so the exact recheck is unchanged.
    """
    qmax = table.qmax.copy()
    qmax[1:] = 0
    return dataclasses.replace(table, qmax=qmax)


_HANDING_BACK = {k: _handing_back(build_table(k)) for k in (12, 16)}


class TestForcedRecheck:
    # Cases 0, 1 and 3 force hand-backs through the int64 guard of a
    # table from _handing_back; near 2^62 (case 2) the real guard hands
    # starts back.  Case 1 has a small budget.  With max_steps = 1
    # (mod k) the last jump boundary is the last step the one-step walk
    # reaches.  Falling below the start is not absorbing (2463 is below
    # itself at steps 21-27 and 54, and above it at every multiple of 16
    # up to 96), so the walker tests the same boundaries as the jumps.
    CASES = [
        dict(lo=1, hi=2 * 10**5, k=16, table=_HANDING_BACK[16]),
        dict(lo=1, hi=2 * 10**5, k=16, max_steps=16 * 6 + 1, table=_HANDING_BACK[16]),
        dict(lo=1 << 62, hi=(1 << 62) + (1 << 18) - 1, k=12, spans_per_chunk=16),
        dict(lo=(1 << 62) + 5, hi=(1 << 62) + (1 << 16), k=12, table=_HANDING_BACK[12]),
    ]

    @pytest.mark.parametrize("case", CASES, ids=range(len(CASES)))
    def test_reports_equal_the_step_walker(self, case, monkeypatch):
        got = verify_range(**case)
        assert got.rechecked > 0
        with monkeypatch.context() as m:
            m.setattr(sieve, "_exact_recheck", lambda table, blocks, max_steps:
                      _step_walker_recheck(table, _block_starts(blocks), max_steps))
            want = verify_range(**case)
        assert _fields(got) == _fields(want)
        duo = verify_range(**case, workers=2)
        assert (duo.rechecked, duo.counterexamples) == (got.rechecked, got.counterexamples)

    def test_small_budgets_leave_counterexamples(self):
        report = verify_range(**self.CASES[1])
        assert 0 < len(report.counterexamples) < report.rechecked


def _planned_starts(lo, hi, k):
    """Every start the chunk plan of [lo, hi] checks, in plan order."""
    survivors = build_table(k).survivors.tolist()
    for kind, a, b in _plan_chunks(lo, hi, k, 256):
        if kind == "dense":
            yield from range(a, b + 1)
        else:
            yield from ((q << k) + r for q in range(a, b) for r in survivors)


class TestAboveInt64:
    # A start >= 2^63 does not fit an int64 lane; each one must reach
    # the exact recheck rather than wrap inside a kernel.
    CASES = [
        dict(lo=2**63 - 2**12, hi=2**63 + 2**12 - 1, k=12),
        dict(lo=2**63 - 10, hi=2**63 + 10, k=16),
        # one dense chunk whose second 2^14-start block crosses 2^63
        dict(lo=2**63 - 20000, hi=2**63 + 100, k=16),
    ]

    @pytest.mark.parametrize("case", CASES, ids=range(len(CASES)))
    def test_every_start_above_int64_is_rechecked(self, case, monkeypatch):
        seen = []

        def recording(table, blocks, max_steps):
            starts = _block_starts(blocks)
            seen.extend(starts)
            return _step_walker_recheck(table, starts, max_steps)

        with monkeypatch.context() as m:
            m.setattr(sieve, "_exact_recheck", recording)
            want = verify_range(**case, workers=1)
        got = verify_range(**case, workers=1)
        assert _fields(got) == _fields(want)
        planned = list(_planned_starts(**case))
        big = [n for n in planned if n >= 2**63]
        assert big and set(big) <= set(seen)
        assert got.rechecked == len(seen) >= len(big)
        assert got.checked_dense + got.checked_survivors == len(planned)

    def test_range_above_int64_from_the_command_line(self, capsys):
        code = cli.main(["verify", "--from", "9223372036854775809",
                         "--to", "9223372036854775900", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["checked_dense"] == doc["rechecked"] == 92
        assert doc["counterexamples"] == []


def _open_at_boundaries(n, floor, k, boundaries):
    """Whether a plain t_step walk from n is >= floor at each of its first jump boundaries."""
    x = n
    for _ in range(boundaries):
        if x < floor:
            return False
        x = t_iter(x, k)
    return True


class TestDenseWindows:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.sampled_from([4, 8, 12]),
        lo=st.integers(2, 1 << 20),
        length=st.integers(0, 600),
        max_steps=st.integers(0, 300),
        workers=st.sampled_from([1, 2]),
    )
    def test_verdicts_match_a_plain_descent(self, k, lo, length, max_steps, workers):
        # A window shorter than 2^k - 1 holds no whole span, so every
        # start is dense, in one chunk that verify_range runs in process
        # for either worker count.  A start n is left open exactly when
        # a plain t_step walk is at or above max(n, 3) at every one of
        # its first ceil(max_steps / k) jump boundaries.  No orbit here
        # nears the int64 guard, and the kernel spends the same jumps as
        # the recheck, so it hands back exactly the open starts.
        hi = lo + min(length, (1 << k) - 2)
        assert all(kind == "dense" for kind, _, _ in _plan_chunks(lo, hi, k, 256))
        report = verify_range(lo, hi, k=k, workers=workers, max_steps=max_steps)
        boundaries = -(-max_steps // k)
        reason = "no-descent-within-%d-steps" % max_steps
        want = [(n, reason) for n in range(lo, hi + 1)
                if _open_at_boundaries(n, max(n, 3), k, boundaries)]
        assert report.checked_dense == hi - lo + 1
        assert list(report.counterexamples) == want
        assert report.rechecked == len(want)


class TestSurvivorWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.sampled_from([4, 7, 10, 12]),
        spans=st.integers(1, 3),
        tail=st.integers(0, 1 << 10),
        lo=st.integers(1, 1 << 20),
        top=st.booleans(),
        cut=st.integers(0, 1 << 16),
        max_steps=st.integers(0, 150),
        workers=st.sampled_from([1, 2]),
        spans_per_chunk=st.sampled_from([1, 256]),
    )
    def test_verdicts_match_a_plain_descent(self, k, spans, tail, lo, top, cut, max_steps,
                                            workers, spans_per_chunk):
        # A window of at least 2^(k+1) - 1 starts holds a whole survivor
        # span, so both kernels, the pool and the recheck all run.
        # Windows across 2^63 send every start above it straight to the
        # recheck, and the kernel may hand a start below it back at any
        # boundary.  Either way a start n is open exactly when a plain
        # t_step walk is at or above max(n, 3) at each of its first
        # ceil(max_steps / k) jump boundaries.  Low windows never near the
        # int64 guard, so there the kernels hand back exactly those.
        length = ((spans + 1) << k) + tail % (1 << k)
        if top:
            lo = 2**63 - 1 - cut % (length - 1)
        hi = lo + length - 1
        report = verify_range(lo, hi, k=k, workers=workers, max_steps=max_steps,
                              spans_per_chunk=spans_per_chunk)
        boundaries = -(-max_steps // k)
        reason = "no-descent-within-%d-steps" % max_steps
        planned = list(_planned_starts(lo, hi, k))
        want = [(n, reason) for n in planned
                if _open_at_boundaries(n, max(n, 3), k, boundaries)]
        assert report.checked_survivors > 0
        assert report.checked_dense + report.checked_survivors == len(planned)
        assert list(report.counterexamples) == want
        if not top:
            assert report.rechecked == len(want)
        # The old floor, below max(lo, 3), stops no lane the new one does not.
        old = [(n, reason) for n in planned
               if _open_at_boundaries(n, max(lo, 3), k, boundaries)]
        assert set(report.counterexamples) <= set(old)


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
        # Each chunk starts one past where the previous one ended, and
        # every spans chunk lies wholly inside [lo, hi]: verify_span
        # relies on that and applies no window of its own.
        for lo, hi, k in [
            (1, 10**4, 8), (300, 300, 8), (256, 511, 8), (255, 512, 8),
            (1000, 9000, 8), ((5 << 10) + 7, 10**5, 10), ((1 << 20) + 1, 3 << 20, 16),
            (2**63 - 2**12, 2**63 + 2**12 - 1, 12), (2**63 - 10, 2**63 + 10, 16),
            (2**63 - 2**20 - 3, 2**63 + 2**21 + 5, 8),
        ]:
            chunks = _plan_chunks(lo, hi, k, 2)
            covered = 0
            end = lo - 1
            for kind, a, b in chunks:
                first, last = (a << k, (b << k) - 1) if kind == "spans" else (a, b)
                assert first == end + 1
                end = last
                covered += last - first + 1
                if kind == "spans":
                    assert lo <= a << k and (b << k) - 1 <= hi
            assert end == hi
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
        # The int64 guard of a _handing_back table hands survivors back,
        # so they go through the exact limb recheck.
        normal = verify_range(1, 2 * 10**5, k=16)
        handed = verify_range(1, 2 * 10**5, k=16, table=_HANDING_BACK[16])
        assert handed.rechecked > 0
        assert handed.counterexamples == normal.counterexamples == ()
        assert handed.checked_survivors == normal.checked_survivors

    def test_rejects_a_negative_step_budget(self):
        # A negative budget would credit starts 1 and 2 without a jump.
        with pytest.raises(ValueError, match="max_steps"):
            verify_range(1, 10, k=4, max_steps=-5)

    def test_zero_step_budget_lists_every_start(self):
        report = verify_range(1, 10, k=4, max_steps=0)
        assert report.counterexamples == tuple(
            (n, "no-descent-within-0-steps") for n in range(1, 11))

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
    @pytest.mark.parametrize("workers", [1, 2])
    def test_file_format_and_completion(self, tmp_path, workers):
        path = tmp_path / "check.txt"
        report = verify_range(1, 10**5, k=12, workers=workers, checkpoint_path=str(path))
        head = path.read_text().splitlines()[0].split()
        assert head == ["v2", "12", "1", "100000", "256", str(report.chunks_total), "0"]

    def test_resume_of_finished_run_is_instant(self, tmp_path):
        path = tmp_path / "check.txt"
        first = verify_range(1, 10**5, k=12, checkpoint_path=str(path))
        written = path.read_bytes()
        second = verify_range(1, 10**5, k=12, checkpoint_path=str(path))
        assert path.read_bytes() == written
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

    @pytest.mark.parametrize("stop", [3, 5])
    def test_resume_across_int64_keeps_counterexamples(self, tmp_path, stop):
        # 179 of the 379 counterexamples lie below 2^63, so the resume's
        # recheck of them takes two n >> 62 blocks.
        plan = dict(lo=2**63 - 2**14 - 5, hi=2**63 + 2**14 + 5, k=12, spans_per_chunk=2,
                    max_steps=40)
        path = tmp_path / "check.txt"
        fresh = verify_range(**plan)
        assert (fresh.chunks_total, len(fresh.counterexamples)) == (6, 379)
        assert sum(n < 2**63 for n, _ in fresh.counterexamples) == 179

        class Stop(Exception):
            pass

        def bail(done, total, checked):
            if done == stop:
                raise Stop

        with pytest.raises(Stop):
            verify_range(**plan, checkpoint_path=str(path), on_progress=bail)
        resumed = verify_range(**plan, checkpoint_path=str(path))
        assert resumed.chunks_done_before == stop
        for field in ("checked_dense", "checked_survivors", "skipped",
                      "counterexamples", "chunks_total"):
            assert getattr(resumed, field) == getattr(fresh, field)

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

    @pytest.mark.parametrize("index", [-1, 4])
    def test_index_outside_the_plan_rejected(self, tmp_path, index):
        # [1, 10^5] at k=12 plans 3 chunks.  Index -1 once credited
        # chunks[:-1] and then ran every chunk again, doubling the
        # coverage; index 4 was clamped to 3 without a word.
        path = tmp_path / "check.txt"
        path.write_text("v2 12 1 100000 256 %d 0\n" % index)
        assert len(_plan_chunks(1, 10**5, 12, 256)) == 3
        with pytest.raises(CheckpointMismatchError, match="chunk %d of a 3-chunk plan" % index):
            verify_range(1, 10**5, k=12, checkpoint_path=str(path))

    @pytest.mark.parametrize("n", [9, 100001])
    def test_counterexample_outside_the_range_rejected(self, tmp_path, n):
        path = tmp_path / "check.txt"
        path.write_text("v2 12 10 100000 256 3 1\n%d no-descent-within-1000000-steps\n" % n)
        with pytest.raises(CheckpointMismatchError, match="counterexamples"):
            verify_range(10, 10**5, k=12, checkpoint_path=str(path))

    def test_counterexample_past_the_resume_chunk_rejected(self, tmp_path):
        # Only the chunks before the index can have listed a
        # counterexample; one from a later chunk is a real one of this
        # plan (the small budgets leave some in every chunk), but no
        # credited chunk produced it.
        kw = dict(k=8, spans_per_chunk=4, max_steps=20)
        path = tmp_path / "check.txt"
        fresh = verify_range(1, 5000, **kw)
        assert _plan_chunks(1, 5000, 8, 4)[2] == ("spans", 5, 9)
        first = 5 << 8
        listed = [c for c in fresh.counterexamples if c[0] < first]
        late = next(c for c in fresh.counterexamples if c[0] >= first)
        lines = ["%d %s" % c for c in listed + [late]]
        path.write_text("v2 8 1 5000 4 2 %d\n%s\n" % (len(lines), "\n".join(lines)))
        with pytest.raises(CheckpointMismatchError, match="first 2 chunks"):
            verify_range(1, 5000, **kw, checkpoint_path=str(path))
        path.write_text("v2 8 1 5000 4 2 %d\n%s\n" % (len(lines) - 1, "\n".join(lines[:-1])))
        resumed = verify_range(1, 5000, **kw, checkpoint_path=str(path))
        assert resumed.chunks_done_before == 2
        assert resumed.counterexamples == fresh.counterexamples

    @pytest.mark.parametrize("text", [
        "v2 12 1 100000 256 3 1\n27\n",
        "v2 12 1 100000 256 3 1\n27x no-descent-within-1000000-steps\n",
        "v2 12 1 100000 256 three 0\n",
        "",
    ], ids=["one-token-line", "start-not-an-integer", "header-not-an-integer", "empty"])
    def test_unparsable_checkpoint_rejected(self, tmp_path, text):
        path = tmp_path / "check.txt"
        path.write_text(text)
        with pytest.raises(CheckpointMismatchError, match="does not parse"):
            verify_range(1, 10**5, k=12, checkpoint_path=str(path))

    def test_index_outside_the_plan_is_an_input_error_on_the_command_line(self, tmp_path,
                                                                          capsys):
        path = tmp_path / "check.txt"
        path.write_text("v2 12 1 100000 256 -1 0\n")
        code = cli.main(["verify", "--from", "1", "--to", "1e5", "--sieve-k", "12",
                         "--checkpoint", str(path)])
        assert code == 1
        assert "chunk -1" in capsys.readouterr().err


_CORRUPT_PLAN = dict(lo=1, hi=5000, k=8, spans_per_chunk=4, max_steps=20)
_DETERMINISTIC = ("checked_dense", "checked_survivors", "skipped", "counterexamples",
                  "chunks_total")


@pytest.fixture(scope="module")
def corruptible(tmp_path_factory):
    """The fresh report of _CORRUPT_PLAN and the checkpoints of a finished and an interrupted run.

    The small budgets leave counterexamples in every chunk of the plan.
    """
    tmp = tmp_path_factory.mktemp("corrupt")
    fresh = verify_range(**_CORRUPT_PLAN)

    class Stop(Exception):
        pass

    def bail_early(done, total, checked):
        if done == 3:
            raise Stop

    texts = {}
    for name, progress in (("finished", None), ("interrupted", bail_early)):
        path = tmp / name
        try:
            verify_range(**_CORRUPT_PLAN, checkpoint_path=str(path), on_progress=progress)
        except Stop:
            pass
        texts[name] = path.read_text()
    return fresh, texts, tmp / "corrupted"


def _as_int(token):
    try:
        return int(token)
    except ValueError:
        return None


_TOKENS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(1 << 70), 1 << 70),
    st.text(alphabet="v2 +-_x09", max_size=4),
)


class TestCorruptCheckpoint:
    def test_open_start_the_plan_skips_rejected(self, corruptible):
        # 297 stays open under the plan's budget, but its class mod 2^8
        # is certified, so no chunk follows it.
        _, texts, path = corruptible
        table = build_table(8)
        assert 297 % 256 not in table.survivors
        assert _recheck(table, [297], _CORRUPT_PLAN["max_steps"])
        assert "\n283 " in texts["finished"] and "\n297 " not in texts["finished"]
        path.write_text(texts["finished"].replace("\n283 ", "\n297 "))
        with pytest.raises(CheckpointMismatchError, match="first 7 chunks"):
            verify_range(**_CORRUPT_PLAN, checkpoint_path=str(path))

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["finished", "interrupted"]),
        data=st.data(),
    )
    def test_resume_raises_or_matches_the_fresh_run(self, corruptible, name, data):
        # One header field or one line of a real checkpoint is replaced,
        # dropped or repeated.  An integer token is drawn either as an
        # offset from the value it replaces or as any integer.
        fresh, texts, path = corruptible
        lines = texts[name].splitlines()
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        tokens = lines[at].split(None, 1 if at else 6)
        how = data.draw(st.sampled_from(["replace", "drop", "repeat"]), label="how")
        if how == "replace":
            i = data.draw(st.integers(0, len(tokens) - 1), label="token")
            new = data.draw(_TOKENS, label="new")
            if isinstance(new, int):
                new = str((_as_int(tokens[i]) or 0) + new if -3 <= new <= 3 else new)
            if i == 5 and at == 0 and name == "interrupted":
                # An interrupted run's file with a later index inside the
                # plan is a possible checkpoint of the same run: its
                # index is trusted, as every checkpoint's is.
                index = _as_int(new)
                assume(index is None or not int(tokens[5]) < index <= fresh.chunks_total)
            tokens[i] = new
            lines[at] = " ".join(tokens)
        elif how == "drop":
            del lines[at]
        else:
            lines.insert(at, lines[at])
        path.write_text("\n".join(lines) + "\n")
        try:
            resumed = verify_range(**_CORRUPT_PLAN, checkpoint_path=str(path))
        except CheckpointMismatchError:
            return
        for field in _DETERMINISTIC:
            assert getattr(resumed, field) == getattr(fresh, field), field
