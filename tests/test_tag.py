"""Tests for tag systems: validation, the file format, runs, and the 3x+1 link."""

import pytest

from collatz_lab import (
    TagOutcome,
    TagSpecError,
    TagSystem,
    collatz_tag,
    collatz_tag_check,
    format_tag_file,
    parse_tag_file,
    post_tag,
    run_tag,
    tag,
)
from collatz_lab.trajectory import IterationLimits


class TestTagSystem:
    def test_builtin_systems(self):
        post = post_tag()
        assert (post.alphabet_size, post.deletion) == (2, 3)
        assert post.productions == ("00", "1101")
        coll = collatz_tag()
        assert (coll.alphabet_size, coll.deletion) == (3, 2)
        assert coll.productions == ("12", "0", "000")

    def test_rejects_empty_production(self):
        with pytest.raises(TagSpecError):
            TagSystem(2, 2, ("01", ""))

    def test_rejects_letter_outside_alphabet(self):
        with pytest.raises(TagSpecError):
            TagSystem(2, 2, ("01", "12"))

    def test_rejects_wrong_production_count(self):
        with pytest.raises(TagSpecError):
            TagSystem(3, 2, ("0", "1"))

    def test_rejects_bad_sizes(self):
        with pytest.raises(TagSpecError):
            TagSystem(0, 2, ())
        with pytest.raises(TagSpecError):
            TagSystem(2, 0, ("0", "1"))

    def test_validate_word(self):
        post = post_tag()
        post.validate_word("0110")
        with pytest.raises(TagSpecError):
            post.validate_word("012")
        with pytest.raises(TagSpecError):
            post.validate_word("a")


class TestTagFile:
    def test_round_trip(self):
        for system in (post_tag(), collatz_tag()):
            again = parse_tag_file(format_tag_file(system))
            assert again.alphabet_size == system.alphabet_size
            assert again.deletion == system.deletion
            assert again.productions == system.productions

    def test_comments_and_blanks_ignored(self):
        text = "# a classic\n\n2 3\n00\n# note\n1101\n"
        system = parse_tag_file(text)
        assert system.productions == ("00", "1101")

    def test_rejects_malformed(self):
        for bad in ("", "2\n00\n11", "2 3\n00", "x y\n0\n1"):
            with pytest.raises(TagSpecError):
                parse_tag_file(bad)


class TestRunTag:
    def test_post_halts_on_all_zero_words(self):
        run = run_tag(post_tag(), "0000")
        assert run.outcome is TagOutcome.HALTED
        assert run.steps == 2
        assert run.final == "00"
        run8 = run_tag(post_tag(), "00000000")
        assert (run8.outcome, run8.steps, run8.final) == (TagOutcome.HALTED, 6, "00")

    def test_post_cycles_from_1101(self):
        run = run_tag(post_tag(), "1101")
        assert run.outcome is TagOutcome.CYCLED
        assert run.steps == 5
        assert run.cycle_start == 3
        assert run.cycle_length == 2

    def test_post_longer_cycle(self):
        run = run_tag(post_tag(), "10010")
        assert run.outcome is TagOutcome.CYCLED
        assert (run.steps, run.cycle_start, run.cycle_length) == (22, 16, 6)

    def test_cycle_found_past_hash_budget_hits_step_limit(self):
        # With hashing disabled a cycling word can only stop on the step
        # budget; the run must stay within bounded memory and report it.
        run = run_tag(post_tag(), "1101", hash_budget=0, max_steps=500)
        assert run.outcome is TagOutcome.HIT_STEP_LIMIT
        assert run.steps == 500

    def test_collatz_zero_lengths_walk_the_orbit(self):
        run = run_tag(collatz_tag(), "0" * 7, max_steps=10**4)
        assert run.outcome is TagOutcome.HALTED
        lengths = [length for _, length in run.zero_lengths]
        assert lengths == [7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1]

    def test_target_checked_before_halting(self):
        # "0" is shorter than the deletion number, so only the
        # target-first ordering can report it.
        run = run_tag(collatz_tag(), "0" * 5, target="0", max_steps=10**4)
        assert run.outcome is TagOutcome.REACHED_TARGET
        assert run.final == "0"

    def test_target_longer_word(self):
        run = run_tag(collatz_tag(), "0" * 5, target="00", max_steps=10**4)
        assert run.outcome is TagOutcome.REACHED_TARGET
        assert run.final == "00"

    def test_step_limit(self):
        run = run_tag(post_tag(), "00000000", max_steps=3)
        assert run.outcome is TagOutcome.HIT_STEP_LIMIT
        assert run.steps == 3

    def test_length_limit(self):
        run = run_tag(collatz_tag(), "000", max_length=6, max_steps=10**4)
        assert run.outcome is TagOutcome.HIT_LENGTH_LIMIT

    def test_rejects_a_negative_step_budget(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            run_tag(post_tag(), "00000000", max_steps=-5)

    def test_rejects_a_negative_length_budget(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            run_tag(collatz_tag(), "000", max_length=-1)

    def test_trace_records_every_step(self):
        run = run_tag(post_tag(), "0000", keep_trace=True)
        assert run.trace is not None
        assert run.trace[0] == (0, 4, 0)
        assert len(run.trace) == run.steps + 1
        assert run_tag(post_tag(), "0000").trace is None

    def test_word_validated(self):
        with pytest.raises(TagSpecError):
            run_tag(post_tag(), "0120")
        with pytest.raises(TagSpecError):
            run_tag(post_tag(), "00", target="2")

    def test_length_step_relation(self):
        # one step removes `deletion` letters and appends one production
        run = run_tag(post_tag(), "10010", keep_trace=True)
        for (s0, len0, letter), (_, len1, _) in zip(run.trace, run.trace[1:]):
            prod = post_tag().productions[letter]
            assert len1 == len0 - 3 + len(prod)


class TestCollatzTagCheck:
    def test_first_thirty(self):
        assert all(collatz_tag_check(n) for n in range(1, 31))

    def test_twenty_seven(self):
        assert collatz_tag_check(27)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            collatz_tag_check(0)

    def test_step_budget_running_out_is_undecided(self):
        # 27's run takes 40,656 steps; a smaller budget decides nothing.
        assert collatz_tag_check(27, max_steps=1000) is None
        assert collatz_tag_check(27, max_steps=10**5) is True

    def test_orbit_hitting_the_limits_is_undecided(self, monkeypatch):
        monkeypatch.setattr(tag, "DEFAULT_LIMITS", IterationLimits(10, 4096))
        assert collatz_tag_check(27) is None
        assert collatz_tag_check(8) is True
