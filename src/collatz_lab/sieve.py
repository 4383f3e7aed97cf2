"""Residue-class acceleration for checking that ranges descend.

Writing a start as n = q * 2^k + r, the first k halved steps give
T^k(n) = 3^c(r) * q + s(r), where c(r) counts odd iterates among the
first k and s(r) = T^k(r).  Both depend only on r, so one table of
2^k rows turns k single steps into one multiply-add.

The same table certifies that most residue classes need no checking
at all: if some prefix j has 3^(c_j) < 2^j and the affine form at j
already puts every q >= 1 start below itself, the whole class descends
onto smaller starts and induction covers it.  The classes left over
are the survivors; range verification follows only those.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .maps import t_step

INT64_MAX = np.iinfo(np.int64).max
MAX_TABLE_K = 24
THREADS_ENV = "COLLATZ_LAB_THREADS"


@dataclass(frozen=True, eq=False)
class SieveTable:
    """Per-residue jump coefficients plus the drop certificates.

    c and s cover every residue, certified or not, because a followed
    orbit can land anywhere mod 2^k.  dropped_at holds the first prefix
    whose certificate was value-checked, -1 for survivors.  rescued
    counts residues whose coefficient decayed at some prefix without
    the value check ever passing; they stay survivors, keeping the
    skip sound by construction.
    """

    k: int
    c: np.ndarray
    s: np.ndarray
    dropped_at: np.ndarray
    survivors: np.ndarray
    pow3: np.ndarray
    qmax: np.ndarray
    rescued: int


def build_table(k: int) -> SieveTable:
    if not 1 <= k <= MAX_TABLE_K:
        raise ValueError("table width k must be in 1..%d, got %r" % (MAX_TABLE_K, k))
    size = 1 << k
    r = np.arange(size, dtype=np.int64)
    x = r.copy()
    c = np.zeros(size, dtype=np.int64)
    dropped_at = np.full(size, -1, dtype=np.int8)
    alive = np.ones(size, dtype=bool)
    saw_decay = np.zeros(size, dtype=bool)
    pow3 = np.array([3**i for i in range(k + 1)], dtype=np.int64)
    for j in range(1, k + 1):
        odd = (x & 1) == 1
        x = np.where(odd, (3 * x + 1) >> 1, x >> 1)
        c += odd
        decayed = pow3[c] < (1 << j)
        saw_decay |= alive & decayed
        # Value check: with a = q * 2^(k-j) + r div 2^j and q >= 1,
        # T^j(a * 2^j + r_j) < a * 2^j + r_j at the smallest a means
        # the whole class has already fallen below itself by step j.
        rj = r & ((1 << j) - 1)
        a_min = (1 << (k - j)) + (r >> j)
        sound = ((1 << j) - pow3[c]) * a_min > x[rj] - rj
        drop = alive & decayed & sound
        dropped_at[drop] = j
        alive &= ~drop
    survivors = np.nonzero(alive)[0].astype(np.int64)
    rescued = int(np.count_nonzero(saw_decay & alive))
    s_max = int(x.max())
    qmax = np.array(
        [(INT64_MAX - s_max) // 3**i for i in range(k + 1)], dtype=np.int64
    )
    c_small = c.astype(np.int8)
    return SieveTable(k, c_small, x, dropped_at, survivors, pow3, qmax, rescued)


def k_step(table: SieveTable, n: int) -> int:
    """T composed with itself table.k times, exact for any size of n."""
    if n < 0:
        raise ValueError("need n >= 0")
    q, r = divmod(n, 1 << table.k)
    return 3 ** int(table.c[r]) * q + int(table.s[r])


def survivor_counts(k_max: int) -> tuple[int, ...]:
    """Number of surviving residue classes for each width 1 .. k_max."""
    return tuple(build_table(k).survivors.size for k in range(1, k_max + 1))


def parity_bijection_check(k: int) -> bool:
    """Residues mod 2^k hit every length-k parity word exactly once."""
    if not 1 <= k <= 20:
        raise ValueError("check supported for k in 1..20, got %r" % (k,))
    size = 1 << k
    x = np.arange(size, dtype=np.int64)
    words = np.zeros(size, dtype=np.int64)
    for j in range(k):
        odd = (x & 1) == 1
        words |= odd.astype(np.int64) << j
        x = np.where(odd, (3 * x + 1) >> 1, x >> 1)
    return bool(np.array_equal(np.sort(words), np.arange(size, dtype=np.int64)))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a range check.

    All fields except rechecked and elapsed are deterministic for a
    given (lo, hi, k, spans_per_chunk), independent of worker count and
    of any kill/resume in between; rechecked counts only the exact
    re-follows done by this process, and elapsed is wall time.
    """

    lo: int
    hi: int
    k: int
    checked_dense: int
    checked_survivors: int
    skipped: int
    rechecked: int
    counterexamples: tuple[tuple[int, str], ...]
    chunks_total: int
    chunks_done_before: int
    workers: int
    elapsed: float


class CheckpointMismatchError(ValueError):
    """Checkpoint on disk was written for a different run."""


def _plan_chunks(lo: int, hi: int, k: int, spans_per_chunk: int):
    """Ascending work units: dense edges around whole-span chunks.

    Spans [q * 2^k, (q+1) * 2^k) are included only when fully inside
    [lo, hi], so every span chunk checks exactly spans * survivors
    starts; the ragged edges become dense pieces.
    """
    width = 1 << k
    q0 = max(1, -(-lo // width))
    q1 = (hi + 1) // width
    chunks = []
    if q1 <= q0:
        chunks.append(("dense", lo, hi))
        return chunks
    if lo < q0 * width:
        chunks.append(("dense", lo, q0 * width - 1))
    for b in range(q0, q1, spans_per_chunk):
        chunks.append(("spans", b, min(b + spans_per_chunk, q1)))
    if q1 * width <= hi:
        chunks.append(("dense", q1 * width, hi))
    return chunks


def _chunk_checked(table: SieveTable, chunk) -> tuple[int, int]:
    """(dense, survivor) start counts a chunk contributes, arithmetically."""
    kind, a, b = chunk
    if kind == "dense":
        return b - a + 1, 0
    return 0, (b - a) * int(table.survivors.size)


def _run_chunk(table: SieveTable, chunk, lo: int, hi: int, max_jumps: int, dense_steps: int):
    kind, a, b = chunk
    if kind == "dense":
        checked, unresolved = _kernels.verify_dense(a, b, lo, dense_steps)
    else:
        checked, unresolved = _kernels.verify_span(
            a, b, table.k, lo, hi, table.survivors,
            table.c, table.s, table.pow3, table.qmax, max_jumps,
        )
    return int(checked), [int(n) for n in unresolved]


_WORKER_TABLE: SieveTable | None = None


def _worker_init(table: SieveTable) -> None:
    # Under the default fork start method the parent's table is inherited
    # as it is; nothing is pickled and nothing is rebuilt.
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _worker_run(chunk, lo, hi, max_jumps, dense_steps):
    return _run_chunk(_WORKER_TABLE, chunk, lo, hi, max_jumps, dense_steps)


def _exact_recheck(n: int, lo: int, max_steps: int) -> str | None:
    """Follow one start exactly; None when it resolves, else a reason tag."""
    x = n
    for _ in range(max_steps):
        if x <= 2 or x < lo:
            return None
        x = t_step(x)
    return "no-descent-within-%d-steps" % max_steps


def _write_checkpoint(path, k, lo, hi, spans_per_chunk, next_chunk, counterexamples) -> None:
    tmp = "%s.tmp" % (path,)
    with open(tmp, "w") as fh:
        fh.write("v2 %d %d %d %d %d %d\n"
                 % (k, lo, hi, spans_per_chunk, next_chunk, len(counterexamples)))
        for n, reason in counterexamples:
            fh.write("%d %s\n" % (n, reason))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_checkpoint(path, k, lo, hi, spans_per_chunk):
    """(next_chunk, counterexamples) of a checkpoint written for this exact plan.

    The chunk index means something only against the chunk plan that
    wrote it, so the header must match k, the range and spans_per_chunk.
    A v1 file never recorded spans_per_chunk and is refused.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CheckpointMismatchError("checkpoint file %r is empty" % (path,))
    head = lines[0].split()
    if len(head) != 7 or head[0] != "v2":
        raise CheckpointMismatchError(
            "unrecognized checkpoint header %r; only v2 checkpoints, which "
            "record the chunk plan, can be resumed" % lines[0]
        )
    ck, clo, chi, cspc, nxt, ncex = (int(t) for t in head[1:])
    if (ck, clo, chi, cspc) != (k, lo, hi, spans_per_chunk):
        raise CheckpointMismatchError(
            "checkpoint was written for k=%d range [%d, %d] with %d spans per chunk, "
            "requested k=%d range [%d, %d] with %d spans per chunk"
            % (ck, clo, chi, cspc, k, lo, hi, spans_per_chunk)
        )
    cex = []
    for line in lines[1:]:
        if not line.strip():
            continue
        num, reason = line.split(None, 1)
        cex.append((int(num), reason.strip()))
    if len(cex) != ncex:
        raise CheckpointMismatchError(
            "checkpoint lists %d counterexamples but header says %d" % (len(cex), ncex)
        )
    return nxt, cex


def _run_pool(table, chunks, pending, lo, hi, max_jumps, recheck_steps, workers, commit):
    """Run chunks on a process pool and commit their results in plan order.

    At most 2 * workers chunks are in flight ahead of the commit point;
    each commit refills one.  If a commit raises (an on_progress stop,
    say), chunks not yet started are cancelled rather than computed and
    thrown away, and the exception propagates once the running ones end.
    """
    todo = iter(pending)
    inflight: deque = deque()
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_worker_init, initargs=(table,)
    ) as pool:

        def submit():
            i = next(todo, None)
            if i is not None:
                fut = pool.submit(_worker_run, chunks[i], lo, hi, max_jumps, recheck_steps)
                inflight.append((i, fut))

        try:
            for _ in range(2 * workers):
                submit()
            while inflight:
                i, fut = inflight.popleft()
                checked, unresolved = fut.result()
                submit()
                commit(i, checked, unresolved)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def verify_range(
    lo: int,
    hi: int,
    k: int = 16,
    workers: int | None = None,
    checkpoint_path=None,
    spans_per_chunk: int = 256,
    max_jumps: int = 10_000,
    recheck_steps: int = 10**6,
    on_progress=None,
    table: SieveTable | None = None,
) -> VerificationReport:
    """Check that every start in [lo, hi] descends below lo or reaches 1.

    Survivor classes are followed with k-step jumps; certified classes
    are skipped outright; anything the int64 kernels could not settle
    is re-followed exactly with big integers.  A checkpoint file, when
    given, is rewritten atomically after every chunk so an interrupted
    run resumes where it stopped and still produces the same counts
    and counterexample list.  Its header records the chunk plan (k, the
    range and spans_per_chunk); resuming under any other plan raises
    CheckpointMismatchError instead of crediting chunks never computed.
    Pool workers share the parent's table rather than building their own.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi, got [%r, %r]" % (lo, hi))
    if workers is None:
        workers = int(os.environ.get(THREADS_ENV, "1") or "1")
    if workers < 1:
        raise ValueError("workers must be >= 1, got %r" % (workers,))
    if spans_per_chunk < 1:
        raise ValueError("spans_per_chunk must be >= 1, got %r" % (spans_per_chunk,))
    t0 = time.monotonic()
    if table is None:
        table = build_table(k)
    elif table.k != k:
        raise ValueError("table width %d does not match k=%d" % (table.k, k))
    chunks = _plan_chunks(lo, hi, k, spans_per_chunk)
    start_chunk = 0
    cex: list[tuple[int, str]] = []
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        start_chunk, cex = _read_checkpoint(checkpoint_path, k, lo, hi, spans_per_chunk)
        start_chunk = min(start_chunk, len(chunks))
    checked_dense = 0
    checked_survivors = 0
    rechecked = 0
    for chunk in chunks[:start_chunk]:
        d, s = _chunk_checked(table, chunk)
        checked_dense += d
        checked_survivors += s

    def commit(index, checked, unresolved):
        nonlocal checked_dense, checked_survivors, rechecked
        kind = chunks[index][0]
        if kind == "dense":
            checked_dense += checked
        else:
            checked_survivors += checked
        for n in unresolved:
            rechecked += 1
            reason = _exact_recheck(n, lo, recheck_steps)
            if reason is not None:
                cex.append((n, reason))
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, k, lo, hi, spans_per_chunk, index + 1, cex)
        if on_progress is not None:
            on_progress(index + 1, len(chunks), checked_dense + checked_survivors)

    pending = list(range(start_chunk, len(chunks)))
    if workers == 1 or len(pending) <= 1:
        for i in pending:
            checked, unresolved = _run_chunk(
                table, chunks[i], lo, hi, max_jumps, recheck_steps
            )
            commit(i, checked, unresolved)
    else:
        _run_pool(table, chunks, pending, lo, hi, max_jumps, recheck_steps, workers, commit)
    if checkpoint_path is not None:
        _write_checkpoint(checkpoint_path, k, lo, hi, spans_per_chunk, len(chunks), cex)
    total = hi - lo + 1
    return VerificationReport(
        lo=lo,
        hi=hi,
        k=k,
        checked_dense=checked_dense,
        checked_survivors=checked_survivors,
        skipped=total - checked_dense - checked_survivors,
        rechecked=rechecked,
        counterexamples=tuple(cex),
        chunks_total=len(chunks),
        chunks_done_before=start_chunk,
        workers=workers,
        elapsed=time.monotonic() - t0,
    )
