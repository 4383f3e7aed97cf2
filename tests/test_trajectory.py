"""Tests for exact orbit iteration, cycle detection, and the cycle census."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from collatz_lab import _kernels, trajectory
from collatz_lab import (
    Cycle,
    IterationLimits,
    Outcome,
    UndefinedStepError,
    cycle_census,
    find_cycle,
    iterate,
    permutation_orbit,
)
from collatz_lab.maps import (
    make_3k_map,
    make_general_map,
    parse_map_spec,
    t5_map,
    t_map,
    u_map,
)


class TestIterate:
    def test_orbit_of_27(self):
        traj = iterate(t_map(), 27)
        assert traj.outcome is Outcome.REACHED_ONE
        assert traj.steps == 70
        assert traj.final == 1
        assert traj.peak == 4616
        assert traj.odd_count == 41
        assert traj.values is not None
        assert len(traj.values) == 71
        assert traj.values[0] == 27
        assert traj.values[-1] == 1

    def test_start_of_one_is_zero_steps(self):
        traj = iterate(t_map(), 1)
        assert traj.outcome is Outcome.REACHED_ONE
        assert traj.steps == 0
        assert traj.values == (1,)

    def test_values_omitted_when_not_stored(self):
        traj = iterate(t_map(), 27, store_values=False)
        assert traj.values is None
        assert traj.steps == 70

    def test_stop_at_one_off_finds_trivial_cycle(self):
        traj = iterate(t_map(), 27, stop_at_one=False)
        assert traj.outcome is Outcome.ENTERED_CYCLE
        assert traj.cycle == Cycle.canonical((1, 2))

    def test_unnamed_map_defaults_to_cycle_hunting(self):
        clone = make_general_map(2, [(1, 0), (3, 1)])
        traj = iterate(clone, 7)
        assert traj.outcome is Outcome.ENTERED_CYCLE
        assert traj.cycle.members == (1, 2)

    def test_step_limit(self):
        traj = iterate(t_map(), 27, IterationLimits(max_steps=10, max_bits=4096))
        assert traj.outcome is Outcome.HIT_STEP_LIMIT
        assert traj.steps == 10

    def test_bit_limit(self):
        traj = iterate(t5_map(), 7, IterationLimits(max_steps=10**6, max_bits=64))
        assert traj.outcome is Outcome.HIT_BIT_LIMIT
        assert traj.final.bit_length() > 64

    def test_undefined_step(self):
        part = make_general_map(2, [(1, 1), (3, 1)], allow_partial=True)
        traj = iterate(part, 12)
        assert traj.outcome is Outcome.HIT_UNDEFINED
        assert traj.final == 12
        assert traj.steps == 0

    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            iterate(t_map(), 0)

    @pytest.mark.parametrize("steps, bits", [(-1, 4096), (10, -1), (-1, -1)])
    def test_limits_refuse_a_negative_budget(self, steps, bits):
        with pytest.raises(ValueError, match="must be >= 0"):
            IterationLimits(steps, bits)
        assert IterationLimits(0, 0) == IterationLimits(max_steps=0, max_bits=0)

    def test_peak_tracks_maximum(self):
        traj = iterate(t_map(), 97)
        assert traj.peak == max(traj.values)

    def test_cycle_found_past_hash_budget(self):
        # hash_budget=0 disables value hashing after the first entry;
        # the doubling sentinel in the same stepping loop must still
        # classify the orbit identically.
        a = iterate(t_map(), 27, stop_at_one=False, hash_budget=0)
        b = iterate(t_map(), 27, stop_at_one=False)
        assert a.outcome is b.outcome is Outcome.ENTERED_CYCLE
        assert a.cycle == b.cycle


class TestCycle:
    def test_canonical_rotation(self):
        assert Cycle.canonical((5, 1, 3)).members == (1, 3, 5)
        assert Cycle.canonical((2, 1)).members == (1, 2)

    def test_length_and_odd_count(self):
        c = Cycle.canonical((13, 33, 83, 208, 104, 52, 26))
        assert c.length == 7
        assert c.odd_count == 3


class TestFindCycle:
    def test_trivial_cycle_from_any_small_start(self):
        for n in (1, 2, 27, 100):
            assert find_cycle(t_map(), n).members == (1, 2)

    def test_5x1_known_cycles(self, tight_limits):
        assert find_cycle(t5_map(), 1, tight_limits).members == (1, 3, 8, 4, 2)
        assert find_cycle(t5_map(), 13, tight_limits).members == (
            13, 33, 83, 208, 104, 52, 26,
        )

    def test_5x1_limit_start_reports_none(self, tight_limits):
        assert find_cycle(t5_map(), 7, tight_limits) is None

    def test_brent_agrees_with_hashing(self, tight_limits):
        for map_ in (t5_map(), u_map(), make_3k_map(5)):
            for n in range(1, 51):
                budgeted = find_cycle(map_, n, tight_limits, hash_budget=0)
                hashed = find_cycle(map_, n, tight_limits)
                assert budgeted == hashed

    def test_undefined_step_raises(self):
        part = make_general_map(2, [(1, 1), (3, 1)], allow_partial=True)
        with pytest.raises(UndefinedStepError):
            find_cycle(part, 8)


_AGREEMENT_MAPS = {
    "3x+1": t_map(), "5x+1": t5_map(), "u": u_map(),
    "3x+5": make_3k_map(5), "3x+7": make_3k_map(7),
}
_AGREEMENT_LIMITS = [
    IterationLimits(10_000, 4096), IterationLimits(2000, 256),
    IterationLimits(300, 128), IterationLimits(60, 4096),
]


def _by_find_cycle(map_, n, limits, hash_budget):
    try:
        cycle = find_cycle(map_, n, limits, hash_budget=hash_budget)
    except UndefinedStepError:
        return "undefined"
    return "limit" if cycle is None else cycle.members


def _by_iterate(map_, n, limits, hash_budget):
    traj = iterate(map_, n, limits, stop_at_one=False, store_values=False,
                   hash_budget=hash_budget)
    if traj.outcome is Outcome.ENTERED_CYCLE:
        return traj.cycle.members
    return "undefined" if traj.outcome is Outcome.HIT_UNDEFINED else "limit"


def _by_census(map_, n, limits, hash_budget):
    census = cycle_census(map_, n, n, limits, hash_budget=hash_budget)
    if census.limit_starts:
        return "limit"
    return "undefined" if census.undefined_starts else census.cycles[0].members


@pytest.mark.parametrize("map_name", sorted(_AGREEMENT_MAPS))
@pytest.mark.parametrize("limits", _AGREEMENT_LIMITS,
                         ids=lambda lim: "%d-%d" % (lim.max_steps, lim.max_bits))
def test_one_budget_rule_for_cycles(map_name, limits):
    # find_cycle, iterate and a one-start census must classify every
    # start alike, budget boundaries included: a repeat met at step
    # max_steps still counts, and every step draws on one budget.
    map_ = _AGREEMENT_MAPS[map_name]
    for hash_budget in (0, 64, 1 << 26):
        for n in range(1, 400):
            expected = _by_iterate(map_, n, limits, hash_budget)
            assert _by_find_cycle(map_, n, limits, hash_budget) == expected, (n, hash_budget)
            assert _by_census(map_, n, limits, hash_budget) == expected, (n, hash_budget)


class TestCycleCensus:
    def test_3x1_small_range(self):
        census = cycle_census(t_map(), 1, 1000)
        assert [c.members for c in census.cycles] == [(1, 2)]
        assert census.limit_starts == ()
        assert census.undefined_starts == ()

    def test_5x1_first_hundred(self, tight_limits):
        census = cycle_census(t5_map(), 1, 100, tight_limits)
        members = [c.members for c in census.cycles]
        assert (1, 3, 8, 4, 2) in members
        assert (13, 33, 83, 208, 104, 52, 26) in members
        assert len(census.limit_starts) == 60
        assert 7 in census.limit_starts

    def test_permutation_first_hundred(self, tight_limits):
        census = cycle_census(u_map(), 1, 100, tight_limits)
        members = [c.members for c in census.cycles]
        assert (1,) in members
        assert (2, 3) in members
        assert len(census.limit_starts) == 82

    def test_memo_matches_per_start_classification(self, tight_limits):
        census = cycle_census(t5_map(), 1, 200, tight_limits)
        reached = {}
        for n in range(1, 201):
            c = find_cycle(t5_map(), n, tight_limits)
            if c is None:
                assert n in census.limit_starts
            else:
                reached.setdefault(c.members, []).append(n)
        assert sorted(reached) == sorted(c.members for c in census.cycles)

    def test_partial_map_reports_undefined_starts(self, tight_limits):
        # Odd starts step to (3x+1)/2 and land on an even value within a
        # few steps, so every orbit here ends at the undefined class.
        part = make_general_map(2, [(1, 1), (3, 1)], allow_partial=True)
        census = cycle_census(part, 1, 20, tight_limits)
        assert census.undefined_starts == tuple(range(1, 21))
        assert census.cycles == ()

    def test_census_past_hash_budget(self, tight_limits):
        a = cycle_census(t5_map(), 1, 60, tight_limits, hash_budget=0)
        b = cycle_census(t5_map(), 1, 60, tight_limits)
        assert [c.members for c in a.cycles] == [c.members for c in b.cycles]
        assert a.limit_starts == b.limit_starts


class TestPermutationOrbit:
    def test_orbit_of_eight_is_still_open_at_depth(self):
        traj = permutation_orbit(8, IterationLimits(max_steps=517, max_bits=10**5))
        assert traj.outcome is Outcome.HIT_STEP_LIMIT
        assert traj.final.bit_length() == 41

    def test_small_closed_orbits(self):
        assert permutation_orbit(1).cycle.members == (1,)
        assert permutation_orbit(2).cycle.members == (2, 3)
        assert permutation_orbit(4).cycle.members == (4, 6, 9, 7, 5)


def test_census_credits_an_inherited_cycle_past_the_start_budget():
    # 27 first drops below itself at step 59 and inherits the verdict of
    # a smaller start; its own walk of the cycle runs out of the
    # 60-step budget.  The census keeps the inherited, genuine cycle.
    limits = IterationLimits(60, 4096)
    assert cycle_census(t_map(), 1, 300, limits).limit_starts == ()
    traj = iterate(t_map(), 27, limits, stop_at_one=False)
    assert traj.outcome is Outcome.HIT_STEP_LIMIT


# The census walks starts through the dip kernel and hands the rest to
# _follow; it must equal the oracle that follows every start.
_ORACLE_CASES = [
    ("3x+1", 1, 10**5, None),
    ("3x+1", 777, 60_000, None),
    ("3x+1", 5000, 5000 + _kernels.LANES + 300, None),
    ("3x+5", 1, 10**5, None),
    ("3x+7", 50, 30_000, None),
    ("3x+5", 2, 2 * _kernels.LANES + 10, IterationLimits(60, 4096)),
    ("5x+1", 1, 300, IterationLimits(2000, 256)),
    ("u", 1, 300, IterationLimits(2000, 256)),
    ("5x+1", 1, 3000, IterationLimits(500, 4096)),
    ("5x+1", 100, 2000, IterationLimits(2000, 63)),
    ("5x+1", 100, 2000, IterationLimits(2000, 62)),
    ("u", 1, 2000, IterationLimits(300, 40)),
    ("3x+1", 1, 3000, IterationLimits(1, 4096)),
    ("3x+1", 1, 3000, IterationLimits(2, 63)),
    ("3x+1", 40, 3000, IterationLimits(3, 10)),
    ("3x+1", 1, 3000, IterationLimits(10_000, 12)),
    ("3x+1", 2**60, 2**60 + 300, IterationLimits(2000, 61)),
    ("3x+1", 1, 3000, IterationLimits(0, 4096)),
    ("3x+1", 2**62, 2**62 + 200, IterationLimits(2000, 4096)),
    ("3x+1", 2**63 - 100, 2**63 + 100, IterationLimits(2000, 4096)),
    ("d=3;pairs=(1,0),(4,-1),(4,1)", 1, 5000, IterationLimits(3000, 4096)),
    ("d=2;pairs=(1,1),(3,1);partial=true", 1, 500, None),
    ("d=2;pairs=(2,-2),(2,-2)", 1, _kernels.LANES + 500, None),
]


@pytest.mark.parametrize("spec,lo,hi,limits", _ORACLE_CASES,
                         ids=["%s-%d-%d-%s" % (c[:3] + (
                             "%d-%d" % (c[3].max_steps, c[3].max_bits) if c[3] else "default",))
                              for c in _ORACLE_CASES])
def test_census_equals_the_follow_every_start_oracle(spec, lo, hi, limits):
    map_ = _AGREEMENT_MAPS.get(spec) or parse_map_spec(spec)
    limits = limits or trajectory.DEFAULT_LIMITS
    assert cycle_census(map_, lo, hi, limits) == ref.cycle_census(map_, lo, hi, limits)


def test_census_hands_back_past_a_lowered_int64_guard(monkeypatch):
    # With the kernel's int64 ceiling at 10^4 every lane that would step
    # past it is handed back to _follow, and the census is unchanged.
    limits = IterationLimits(2000, 256)
    want = [ref.cycle_census(m, 1, 3000, limits) for m in (t_map(), make_3k_map(5), u_map())]
    followed = []
    real = trajectory._follow
    monkeypatch.setattr(trajectory, "_follow",
                        lambda map_, n, *args: followed.append(n) or real(map_, n, *args))
    assert cycle_census(t_map(), 1, 3000, limits) == want[0]
    assert followed[:1] == [1] and len(followed) < 100
    monkeypatch.setattr(_kernels, "_INT64_MAX", 10**4)
    del followed[:]
    assert cycle_census(t_map(), 1, 3000, limits) == want[0]
    assert 300 < len(followed) < 3000
    assert cycle_census(make_3k_map(5), 1, 3000, limits) == want[1]
    assert cycle_census(u_map(), 1, 3000, limits) == want[2]


def test_one_start_census_runs_no_kernel(monkeypatch):
    monkeypatch.setattr(_kernels, "dip", None)
    census = cycle_census(t5_map(), 13, 13)
    assert [c.members for c in census.cycles] == [(13, 33, 83, 208, 104, 52, 26)]


@st.composite
def _random_maps(draw):
    d = draw(st.sampled_from([2, 3, 4, 6]))
    partial = draw(st.booleans())
    pairs = []
    for i in range(d):
        a = draw(st.integers(-2, 3 * d))
        b = -i * a + d * draw(st.integers(-3, 3))  # admissible: i*a + b = 0 mod d
        if partial and draw(st.integers(0, 3)) == 0:
            b += draw(st.integers(1, d - 1))
        pairs.append((a, b))
    spec = "d=%d;pairs=%s;partial=%s" % (
        d, ",".join("(%d,%d)" % p for p in pairs), "true" if partial else "false")
    return parse_map_spec(spec)


@settings(max_examples=40, deadline=None)
@given(
    map_=_random_maps(),
    lo=st.integers(1, 300),
    count=st.integers(1, 400),
    max_steps=st.sampled_from([1, 2, 3, 40, 300]),
    max_bits=st.sampled_from([20, 62, 63, 128]),
)
def test_census_of_random_maps_equals_the_oracle(map_, lo, count, max_steps, max_bits):
    limits = IterationLimits(max_steps, max_bits)
    hi = lo + count - 1
    assert cycle_census(map_, lo, hi, limits) == ref.cycle_census(map_, lo, hi, limits)
