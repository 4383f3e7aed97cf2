"""Tag systems of the Post type, including the one that runs 3x+1.

A system deletes a fixed number of letters from the front of a word
each step and appends the production of the letter that led the word.
Words are digit strings over 0 .. alphabet_size - 1.  Running the
three-letter, deletion-2 system from an all-zero word of length n
walks exactly through the halved 3x+1 orbit of n: the lengths of the
all-zero configurations it passes are n, T(n), T^2(n), ... down to 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .maps import t_map
from .trajectory import DEFAULT_LIMITS, Outcome, iterate


class TagSpecError(ValueError):
    pass


@dataclass(frozen=True)
class TagSystem:
    """Deletion number plus one production per letter."""

    alphabet_size: int
    deletion: int
    productions: tuple[str, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.alphabet_size <= 10:
            raise TagSpecError(
                "alphabet size must be 1..10, got %r" % (self.alphabet_size,)
            )
        if self.deletion < 1:
            raise TagSpecError("deletion number must be >= 1")
        if len(self.productions) != self.alphabet_size:
            raise TagSpecError(
                "expected %d productions, got %d"
                % (self.alphabet_size, len(self.productions))
            )
        for i, prod in enumerate(self.productions):
            if not prod:
                raise TagSpecError("empty production for letter %d" % i)
            for ch in prod:
                if not ch.isdigit() or int(ch) >= self.alphabet_size:
                    raise TagSpecError(
                        "production %r for letter %d leaves the alphabet" % (prod, i)
                    )

    def validate_word(self, word: str) -> None:
        for ch in word:
            if not ch.isdigit() or int(ch) >= self.alphabet_size:
                raise TagSpecError("word letter %r outside alphabet" % ch)


def post_tag() -> TagSystem:
    """Two letters, delete three: 0 -> 00, 1 -> 1101."""
    return TagSystem(2, 3, ("00", "1101"), name="post")


def collatz_tag() -> TagSystem:
    """Three letters, delete two: 0 -> 12, 1 -> 0, 2 -> 000.

    On all-zero words this performs one halved 3x+1 step per sweep.
    """
    return TagSystem(3, 2, ("12", "0", "000"), name="collatz")


def format_tag_file(system: TagSystem) -> str:
    """Serialize: a header line 'alphabet_size deletion', one production per line."""
    lines = ["%d %d" % (system.alphabet_size, system.deletion)]
    lines.extend(system.productions)
    return "\n".join(lines) + "\n"


def parse_tag_file(text: str, name: str | None = None) -> TagSystem:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise TagSpecError("empty tag system description")
    head = lines[0].split()
    if len(head) != 2:
        raise TagSpecError("header must be 'alphabet_size deletion', got %r" % lines[0])
    try:
        size, deletion = int(head[0]), int(head[1])
    except ValueError as exc:
        raise TagSpecError("bad header %r" % lines[0]) from exc
    prods = lines[1:]
    if len(prods) != size:
        raise TagSpecError("expected %d production lines, found %d" % (size, len(prods)))
    return TagSystem(size, deletion, tuple(prods), name=name)


class TagOutcome(enum.Enum):
    HALTED = "halted"
    REACHED_TARGET = "reached-target"
    CYCLED = "cycled"
    HIT_STEP_LIMIT = "step-limit"
    HIT_LENGTH_LIMIT = "length-limit"


@dataclass(frozen=True)
class TagRun:
    system: TagSystem
    initial: str
    outcome: TagOutcome
    steps: int
    final: str
    zero_lengths: tuple[tuple[int, int], ...]
    cycle_start: int | None = None
    cycle_length: int | None = None
    trace: tuple[tuple[int, int, int], ...] | None = None


def run_tag(
    system: TagSystem,
    word: str,
    max_steps: int = 10**6,
    max_length: int = 10**6,
    target: str | None = None,
    hash_budget: int = 1 << 22,
    keep_trace: bool = False,
) -> TagRun:
    """Drive one word, recording all-zero configurations along the way.

    Each step the target is checked before the halting rule, so a
    target shorter than the deletion number is still reported as
    reached.  Repeated configurations are caught by hashing until the
    stored words exceed hash_budget bytes; past that, only the step
    budget stops a cycling run.  The word lives in one bytearray with
    a moving head, so a step costs amortized O(production length).
    """
    if min(max_steps, max_length) < 0:
        raise ValueError("max_steps, max_length must be >= 0, got %r, %r" % (max_steps, max_length))
    system.validate_word(word)
    if target is not None:
        system.validate_word(target)
    prods = [bytes(int(c) for c in p) for p in system.productions]
    deletion = system.deletion
    buf = bytearray(int(c) for c in word)
    head = 0
    nonzero = sum(1 for b in buf if b)
    target_bytes = bytes(int(c) for c in target) if target is not None else None
    seen: dict[bytes, int] = {}
    seen_bytes = 0
    zero_lengths: list[tuple[int, int]] = []
    trace: list[tuple[int, int, int]] = []
    step = 0
    outcome = None
    cycle_start = cycle_length = None
    while True:
        length = len(buf) - head
        if nonzero == 0:
            zero_lengths.append((step, length))
        if keep_trace:
            trace.append((step, length, buf[head] if length else -1))
        if target_bytes is not None and length == len(target_bytes):
            if buf[head:] == target_bytes:
                outcome = TagOutcome.REACHED_TARGET
                break
        if length < deletion:
            outcome = TagOutcome.HALTED
            break
        if length > max_length:
            outcome = TagOutcome.HIT_LENGTH_LIMIT
            break
        if step >= max_steps:
            outcome = TagOutcome.HIT_STEP_LIMIT
            break
        if seen_bytes <= hash_budget:
            key = bytes(buf[head:])
            prior = seen.get(key)
            if prior is not None:
                outcome = TagOutcome.CYCLED
                cycle_start = prior
                cycle_length = step - prior
                break
            seen[key] = step
            seen_bytes += len(key) + 1
        letter = buf[head]
        for b in buf[head:head + deletion]:
            if b:
                nonzero -= 1
        head += deletion
        prod = prods[letter]
        buf.extend(prod)
        for b in prod:
            if b:
                nonzero += 1
        step += 1
        # One step trades `deletion` letters for one production.
        assert len(buf) - head == length - deletion + len(prod)
        if head > 1 << 16 and head * 2 > len(buf):
            del buf[:head]
            head = 0
    final = "".join(str(b) for b in buf[head:])
    return TagRun(
        system=system,
        initial=word,
        outcome=outcome,
        steps=step,
        final=final,
        zero_lengths=tuple(zero_lengths),
        cycle_start=cycle_start,
        cycle_length=cycle_length,
        trace=tuple(trace) if keep_trace else None,
    )


def collatz_tag_check(n: int, max_steps: int = 10**7) -> bool | None:
    """Whether the all-zero lengths of the run from 0^n equal the halved 3x+1 orbit of n.

    None when a budget ran out first and the check is undecided: the
    orbit did not reach 1 within DEFAULT_LIMITS, or the tag run took
    more than max_steps steps (a run takes about as many steps as the
    orbit's values sum to).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    traj = iterate(t_map(), n, DEFAULT_LIMITS)
    if traj.outcome is not Outcome.REACHED_ONE:
        return None
    run = run_tag(
        collatz_tag(),
        "0" * n,
        max_steps=max_steps,
        max_length=max(16, 4 * traj.peak),
        hash_budget=0,
    )
    if run.outcome is TagOutcome.HIT_STEP_LIMIT:
        return None
    if run.outcome is not TagOutcome.HALTED:
        return False
    return tuple(length for _, length in run.zero_lengths) == traj.values
