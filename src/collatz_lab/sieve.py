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
from bisect import bisect_right
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import _kernels

INT64_MAX = np.iinfo(np.int64).max
MAX_TABLE_K = 24


@dataclass(frozen=True, eq=False)
class SieveTable:
    """Per-residue jump coefficients plus the residues no certificate drops.

    c and s cover every residue, certified or not, because a followed
    orbit can land anywhere mod 2^k.  survivors lists, ascending, the
    residues whose class no prefix certified.
    """

    k: int
    c: np.ndarray
    s: np.ndarray
    survivors: np.ndarray
    pow3: np.ndarray
    qmax: np.ndarray


# c and s are composed in blocks of 2^_BLOCK_BITS residues: those of a
# block come from the table of its low _BLOCK_BITS bits composed with
# the table of the remaining width.
_BLOCK_BITS = 14


def _width_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, s) of width k for every residue mod 2^k; k = 0 gives ([0], [0])."""
    x = np.arange(1 << k, dtype=np.int64)
    c = np.zeros(1 << k, dtype=np.int64)
    for _ in range(k):
        c += x & 1
        x = _kernels._step(x)
    return c, x


def build_table(k: int) -> SieveTable:
    """The width-k jump table and the residues that no drop certificate covers.

    Residues r = h * 2^b + l (b = min(k, 14) low bits) get c and s one
    block of fixed h at a time.  The jump coefficients compose exactly:
    T^b(r) = 3^c_b(l) * h + s_b(l), and that value goes through the
    width-(k - b) table for the rest.

    The certificate lifts live classes one bit at a time.  A class r mod
    2^(j-1) lifts to r and r + 2^(j-1) mod 2^j, and
    T^(j-1)(r + 2^(j-1)) = T^(j-1)(r) + 3^c_(j-1)(r), so one step of
    each lift gives T^j and c_j of both.  A lift r with 3^c_j < 2^j
    drops, for every residue of the table that extends it, when
    (2^j - 3^c_j) * 2^(k-j) > T^j(r) - r.  A start of such a residue is
    n = a * 2^j + r with a >= 2^(k-j) (q >= 1 above the table width),
    and T^j(n) = 3^c_j * a + T^j(r), so
    n - T^j(n) = (2^j - 3^c_j) * a - (T^j(r) - r) > 0 at the smallest
    a, and at every larger a since 2^j - 3^c_j > 0.  Dropped classes
    are never lifted again; a decayed lift that fails the check stays
    live, which is always sound.
    """
    if not 1 <= k <= MAX_TABLE_K:
        raise ValueError("table width k must be in 1..%d, got %r" % (MAX_TABLE_K, k))
    size = 1 << k
    pow3 = np.array([3**i for i in range(k + 1)], dtype=np.int64)
    # int32 residues and int8 odd counts keep the widest levels' lifts small
    r = np.zeros(1, dtype=np.int32)
    x = np.zeros(1, dtype=np.int64)
    cj = np.zeros(1, dtype=np.int8)
    for j in range(1, k + 1):
        r = np.concatenate((r, r + (1 << (j - 1))))
        x = np.concatenate((x, x + pow3.take(cj)))
        cj = np.concatenate((cj, cj))
        cj += x & 1
        x = _kernels._step(x)
        gap = (1 << j) - pow3.take(cj)
        drop = (gap > 0) & (gap * (1 << (k - j)) > x - r)
        if drop.any():
            keep = ~drop
            r, x, cj = r[keep], x[keep], cj[keep]

    low = min(k, _BLOCK_BITS)
    block = 1 << low
    high = k - low
    c_low, s_low = _width_table(low)
    c_high, s_high = _width_table(high)
    p_low = pow3.take(c_low)
    high_mask = (1 << high) - 1
    c = np.empty(size, dtype=np.int8)
    s = np.empty(size, dtype=np.int64)
    for h in range(size >> low):
        base = h << low
        y = p_low * h
        y += s_low
        ym = y & high_mask
        ch = c_high.take(ym)
        c[base:base + block] = c_low + ch
        y >>= high
        y *= pow3.take(ch)
        y += s_high.take(ym)
        s[base:base + block] = y
    s_max = int(s.max())
    qmax = np.array(
        [(INT64_MAX - s_max) // 3**i for i in range(k + 1)], dtype=np.int64
    )
    return SieveTable(k, c, s, r.astype(np.int64), pow3, qmax)


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
        words |= (x & 1) << j
        x = _kernels._step(x)
    return bool(np.array_equal(np.sort(words), np.arange(size, dtype=np.int64)))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a range check.

    All fields except rechecked and elapsed are deterministic for a
    given (lo, hi, k, spans_per_chunk), independent of worker count and
    of any kill/resume in between.  rechecked counts the starts handed
    to the exact recheck by the chunks this call ran, whichever process
    (the caller or a pool worker) ran them: the starts an int64 kernel
    handed back (its int64 guard, or its jumps spent) or passed on
    unread (every start >= 2^63), each once.  Chunks credited from a
    checkpoint add none.  elapsed is wall time.
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
    [lo, hi], so a span chunk (b0, b1) checks (b1 - b0) * survivors
    starts, run or credited, and a dense one (a, b) b - a + 1; the
    ragged edges become dense pieces.
    """
    width = 1 << k
    q0 = max(1, -(-lo // width))
    q1 = (hi + 1) // width
    if q1 <= q0:
        return [("dense", lo, hi)]
    chunks = []
    if lo < q0 * width:
        chunks.append(("dense", lo, q0 * width - 1))
    for b in range(q0, q1, spans_per_chunk):
        chunks.append(("spans", b, min(b + spans_per_chunk, q1)))
    if q1 * width <= hi:
        chunks.append(("dense", q1 * width, hi))
    return chunks


def _run_chunk(table: SieveTable, chunk, max_steps: int):
    """(rechecked, counterexamples) of one chunk, rechecks included.

    Its kernel (verify_dense or verify_span) jumps every start below 2^63
    ceil(max_steps / k) times; the recheck reads the hand-backs as (0, off)
    blocks, then the starts >= 2^63 the kernel passed on, and rechecked counts
    their lanes.  Kernel calls stay positional, for wrappers taking *args only.
    """
    kind, a, b = chunk
    verify = _kernels.verify_dense if kind == "dense" else _kernels.verify_span
    _, unresolved, rest = verify(a, b, table, -(-max_steps // table.k))
    lanes = _kernels.VERIFY_LANES
    small = ((0, unresolved[i:i + lanes]) for i in range(0, unresolved.size, lanes))
    sizes = []

    def given():
        for block in chain(small, rest):
            sizes.append(block[1].size)
            yield block

    cex = _exact_recheck(table, given(), max_steps)
    return sum(sizes), cex


_WORKER_TABLE: SieveTable | None = None


def _worker_init(table: SieveTable) -> None:
    # Under the default fork start method the parent's table is inherited
    # as it is; nothing is pickled and nothing is rebuilt.
    global _WORKER_TABLE
    _WORKER_TABLE = table


def _worker_run(chunk, max_steps):
    return _run_chunk(_WORKER_TABLE, chunk, max_steps)


def _exact_recheck(table: SieveTable, blocks, max_steps: int) -> list[tuple[int, str]]:
    """Follow each start exactly; (n, reason) of those left open, in input order.

    A start n resolves when an iterate at a jump boundary, x after 0,
    k, 2k, ... steps, is below max(n, 3); it gets ceil(max_steps / k)
    jumps x -> 3^c(r) * (x div 2^k) + s(r), r = x mod 2^k.  This is the
    rule verify_span applies, and it is sound: the table identity holds
    exactly for every q >= 0, so each boundary value is a true iterate
    of the start, and one below n (or <= 2) means the start reaches a
    smaller start, which verify_range's induction covers (or the 1-2
    loop).  The boundaries tested are among the first max_steps steps,
    the ones a one-step walk with the same budget tests, so a start
    resolved here resolves under that walk too.  The converse can fail
    only through the budget: for a start the walk resolves after more
    than max_steps - k steps, or one whose orbit dips below itself and
    is back above it at every boundary until the jumps run out.

    The starts come in non-empty blocks (base, off) of at most
    VERIFY_LANES lanes base + off[i] (_kernels.int_blocks makes them from
    ints), which _kernels.jump_limbs jumps in int64 limbs that widen as
    an orbit grows.  limb_bits keeps every limb product, carry and sum
    below 2^63, so each boundary value it tests is the exact integer, and
    it tests the same boundaries (0 .. ceil(max_steps / k) - 1) by this
    rule.  Only open lanes become ints; an empty input never reaches the kernel.
    """
    jumps = -(-max_steps // table.k)
    reason = "no-descent-within-%d-steps" % max_steps
    return [(base + i, reason) for base, off in blocks
            for i in off.take(_kernels.jump_limbs(base, off, table, jumps)).tolist()]


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


def _read_checkpoint(path, table, lo, hi, spans_per_chunk, chunks, max_steps):
    """(next_chunk, counterexamples) of a checkpoint written for this exact plan.

    The chunk index means something only against the chunk plan that
    wrote it, so the header must match k, the range and spans_per_chunk
    (which v1 files never recorded), and the index must be in
    0..len(chunks).  Only the chunks before it can have listed a
    counterexample: a listed one must be a start the plan follows, below
    the first start of the chunk at the index, in ascending order, and
    still open, for the reason given, under this run's max_steps.
    """
    k = table.k
    with open(path) as fh:
        lines = fh.read().splitlines()
    try:
        head = lines[0].split()
        if len(head) != 7 or head[0] != "v2":
            raise ValueError("only v2 checkpoints, which record the chunk plan, can be resumed")
        ck, clo, chi, cspc, nxt, ncex = (int(t) for t in head[1:])
        cex = [(int(num), reason.strip())
               for num, reason in (line.split(None, 1) for line in lines[1:] if line.strip())]
    except (IndexError, ValueError) as exc:
        raise CheckpointMismatchError("checkpoint %r does not parse: %s" % (path, exc)) from None
    if (ck, clo, chi, cspc) != (k, lo, hi, spans_per_chunk):
        raise CheckpointMismatchError(
            "checkpoint was written for k=%d range [%d, %d] with %d spans per chunk, "
            "requested k=%d range [%d, %d] with %d spans per chunk"
            % (ck, clo, chi, cspc, k, lo, hi, spans_per_chunk)
        )
    if len(cex) != ncex:
        raise CheckpointMismatchError(
            "checkpoint lists %d counterexamples but header says %d" % (len(cex), ncex)
        )
    if not 0 <= nxt <= len(chunks):
        raise CheckpointMismatchError(
            "checkpoint resumes at chunk %d of a %d-chunk plan" % (nxt, len(chunks)))
    first = [a << k if kind == "spans" else a for kind, a, _ in chunks] + [hi + 1]
    nums = [n for n, _ in cex]
    survivors = set(table.survivors.tolist()) if cex else ()
    followed = [n for n in nums if lo <= n < first[nxt] and (
        chunks[bisect_right(first, n) - 1][0] == "dense" or n % (1 << k) in survivors)]
    if followed != sorted(set(nums)) or _exact_recheck(
            table, _kernels.int_blocks(nums), max_steps) != cex:
        raise CheckpointMismatchError(
            "checkpoint lists counterexamples that its first %d chunks did not leave open"
            % nxt)
    return nxt, cex


def _run_pool(table, chunks, pending, max_steps, workers, commit):
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
                fut = pool.submit(_worker_run, chunks[i], max_steps)
                inflight.append((i, fut))

        try:
            for _ in range(2 * workers):
                submit()
            while inflight:
                i, fut = inflight.popleft()
                result = fut.result()
                submit()
                commit(i, *result)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def verify_range(
    lo: int,
    hi: int,
    k: int = 16,
    workers: int = 1,
    checkpoint_path=None,
    spans_per_chunk: int = 256,
    max_steps: int = 10**6,
    on_progress=None,
    table: SieveTable | None = None,
) -> VerificationReport:
    """Check that every start in [lo, hi] falls below itself, hence reaches 1.

    Survivor classes and the dense edges are followed with k-step
    jumps; certified classes are skipped outright; anything the int64
    kernels could not settle, and every start >= 2^63, is re-followed
    exactly by _exact_recheck (multi-limb numpy lanes that widen as an
    orbit grows) in the process that ran the chunk.

    The argument is strong induction over [lo, hi], with [1, lo) taken
    as verified.  Each start n falls to some x < n (a certified class by
    its certificate, a followed start at a jump boundary; starts 1 and
    2 stop at x <= 2, the 1-2 loop).  Then either x < lo, which is
    assumed verified, or x is in [lo, n), covered by induction.  Descent
    is tested only at jump boundaries, after 0, k, 2k, ... steps, and
    that is sound: T^k(q * 2^k + r) = 3^c(r) * q + s(r) is exact for
    every q >= 0, so every value seen at a boundary is a true iterate
    of the start.  Testing only boundaries can miss an earlier dip,
    which costs jumps but never soundness.

    A start n is listed exactly when none of its first J = ceil(max_steps
    / k) jump boundaries, after 0, k, ..., (J - 1) k steps, is below
    max(n, 3).  The int64 kernels and the recheck both make J jumps and
    test those boundaries, so a start a kernel hands back, for its int64
    guard or its spent jumps, gets the same verdict from the recheck.
    Every start not listed reaches [1, lo), the 1-2 loop or the orbit of
    a listed start; with none listed, all of [lo, hi] reaches 1.

    A checkpoint file, when given, is rewritten atomically after every
    chunk so an interrupted run resumes where it stopped and still
    produces the same counts and counterexample list.  Its header
    records the chunk plan (k, the range and spans_per_chunk); a file
    for any other plan, or one no run of this plan could have written,
    raises CheckpointMismatchError instead of crediting chunks never
    computed.  Pool workers share the parent's table.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi, got [%r, %r]" % (lo, hi))
    if workers < 1:
        raise ValueError("workers must be >= 1, got %r" % (workers,))
    if spans_per_chunk < 1:
        raise ValueError("spans_per_chunk must be >= 1, got %r" % (spans_per_chunk,))
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0, got %r" % (max_steps,))
    t0 = time.monotonic()
    if table is None:
        table = build_table(k)
    elif table.k != k:
        raise ValueError("table width %d does not match k=%d" % (table.k, k))
    chunks = _plan_chunks(lo, hi, k, spans_per_chunk)
    start_chunk = 0
    cex: list[tuple[int, str]] = []
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        start_chunk, cex = _read_checkpoint(checkpoint_path, table, lo, hi, spans_per_chunk,
                                            chunks, max_steps)
    starts = [b - a + 1 if kind == "dense" else (b - a) * int(table.survivors.size)
              for kind, a, b in chunks]
    done = sum(starts[:start_chunk])
    rechecked = 0

    def commit(index, chunk_rechecked, chunk_cex):
        nonlocal done, rechecked
        done += starts[index]
        rechecked += chunk_rechecked
        cex.extend(chunk_cex)
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, k, lo, hi, spans_per_chunk, index + 1, cex)
        if on_progress is not None:
            on_progress(index + 1, len(chunks), done)

    pending = list(range(start_chunk, len(chunks)))
    if workers == 1 or len(pending) <= 1:
        for i in pending:
            commit(i, *_run_chunk(table, chunks[i], max_steps))
    else:
        _run_pool(table, chunks, pending, max_steps, workers, commit)
    checked_dense = sum(n for n, (kind, _, _) in zip(starts, chunks) if kind == "dense")
    return VerificationReport(
        lo=lo,
        hi=hi,
        k=k,
        checked_dense=checked_dense,
        checked_survivors=done - checked_dense,
        skipped=hi - lo + 1 - done,
        rechecked=rechecked,
        counterexamples=tuple(cex),
        chunks_total=len(chunks),
        chunks_done_before=start_chunk,
        workers=workers,
        elapsed=time.monotonic() - t0,
    )
