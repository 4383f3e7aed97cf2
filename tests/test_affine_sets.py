"""Tests for affine-generated sets: guards, closures, presets, densities."""

import numpy as np
import pytest

import kernel_reference as ref
from collatz_lab import (
    AffineGenerator,
    backward_collatz_generators,
    backward_collatz_set,
    closure_up_to,
    density_profile,
    preset_closure,
)
from collatz_lab import _kernels, stats
from collatz_lab.affine_sets import PRESET_GENERATORS, PRESET_SEEDS
from collatz_lab.trajectory import DEFAULT_LIMITS


class TestAffineGenerator:
    def test_plain_image(self):
        g = AffineGenerator(3, 1)
        assert g.image(5) == 16
        assert g.nondecreasing

    def test_guarded_image(self):
        g = AffineGenerator(2, -1, guard=(2, 3))
        assert g.image(5) == 3  # 5 = 2 mod 3, (10 - 1) / 3
        assert g.image(4) is None
        assert not g.nondecreasing

    def test_guard_must_divide(self):
        with pytest.raises(ValueError):
            AffineGenerator(2, 0, guard=(2, 3))

    def test_guard_range_checked(self):
        with pytest.raises(ValueError):
            AffineGenerator(2, -1, guard=(5, 3))
        with pytest.raises(ValueError):
            AffineGenerator(2, 0, guard=(0, 1))

    def test_coefficient_must_be_positive(self):
        with pytest.raises(ValueError):
            AffineGenerator(0, 5)

    def test_guarded_growth_is_nondecreasing(self):
        assert AffineGenerator(6, 3, guard=(1, 3)).nondecreasing


class TestClosureUpTo:
    def test_single_doubling_generator(self):
        res = closure_up_to([AffineGenerator(2, 0)], [1], 100)
        assert res.members == (1, 2, 4, 8, 16, 32, 64)
        assert res.pruned
        assert res.exact  # monotone, so pruning loses nothing

    def test_unpruned_closure_is_exact(self):
        res = closure_up_to([AffineGenerator(1, 0)], [1, 5], 10)
        assert res.members == (1, 5)
        assert not res.pruned
        assert res.exact

    def test_seed_above_ceiling_ignored(self):
        res = closure_up_to([AffineGenerator(2, 0)], [1, 500], 100)
        assert 500 not in res.members

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            closure_up_to([], [1], 10)
        with pytest.raises(ValueError):
            closure_up_to([AffineGenerator(2, 0)], [0], 10)
        with pytest.raises(ValueError):
            closure_up_to([AffineGenerator(2, 0)], [1], 0)

    def test_shrinking_generator_marks_inexact_when_pruned(self):
        gens = backward_collatz_generators()
        res = closure_up_to(gens, [1], 50)
        assert res.pruned
        assert not res.exact


class TestBackwardSet:
    def test_everything_reachable_with_headroom(self):
        res = backward_collatz_set(1000)
        assert res.members == tuple(range(1, 1001))
        assert res.exact
        assert not res.pruned
        assert res.ceiling == 1000 << 20

    def test_tight_ceiling_excludes_high_flyers(self):
        res = backward_collatz_set(30, ceiling=30)
        assert 27 not in res.members  # its orbit tops out at 4616
        assert 16 in res.members
        assert res.pruned

    def test_agrees_with_generic_closure_at_same_ceiling(self):
        # The breadth-first pass explores chains below the ceiling; the
        # forward orbit test decides the same set, because each value
        # has exactly one generator chain, its reversed orbit.
        for ceiling in (30, 100, 500, 4615, 4616):
            bfs = closure_up_to(backward_collatz_generators(), [1], ceiling)
            fwd = backward_collatz_set(ceiling, ceiling=ceiling)
            assert bfs.members == fwd.members

    @pytest.mark.parametrize("bound,ceiling", [
        (1, 1), (30, 100), (100, 4615), (100, 4616), (500, 10**4), (2000, 10**6),
        (3000, 2**62), (3000, 2**63 - 1), (3000, 2**64),
    ])
    def test_members_are_the_starts_whose_orbit_stays_under_the_ceiling(self, bound, ceiling):
        def orbit_peak(m):
            top = m
            while m != 1:
                m = m // 2 if m % 2 == 0 else (3 * m + 1) // 2
                top = max(top, m)
            return top

        expected = tuple(m for m in range(1, bound + 1) if orbit_peak(m) <= ceiling)
        res = backward_collatz_set(bound, ceiling=ceiling)
        assert res.members == expected
        sigma = ref.scan_exact(bound, DEFAULT_LIMITS, cap=ceiling)[0]
        assert res.members == tuple(np.flatnonzero(sigma >= 0).tolist())
        assert res.pruned == (len(expected) < bound)
        assert res.exact

    @pytest.mark.parametrize("exact_peak,member", [(None, True), (2**70, True), (2**70 + 1, False)])
    def test_capped_peak_is_decided_from_the_exact_peak(self, monkeypatch, exact_peak, member):
        # Under a ceiling beyond int64, a start the scan hands back at the
        # int64 guard is judged by its exact peak.  Lowering the guard
        # hands 27 back; 54, which falls to 27 in one step, follows it.
        descend = stats._descend

        def descend_27(n, limits):
            steps, odd, peak, stop = descend(n, limits)
            if n == 27 and exact_peak is not None:
                peak = exact_peak
            return steps, odd, peak, stop

        monkeypatch.setattr(_kernels, "_OVF", 40)
        monkeypatch.setattr(stats, "_descend", descend_27)
        res = backward_collatz_set(100, ceiling=2**70)
        assert (27 in res.members) is member
        assert set(range(1, 101)) - set(res.members) == (set() if member else {27, 54})
        assert res.pruned is not member

    def test_rejects_ceiling_below_bound(self):
        with pytest.raises(ValueError):
            backward_collatz_set(100, ceiling=50)


class TestPresets:
    def test_s1_small_members(self):
        res = preset_closure("s1", 25)
        assert res.members[:8] == (1, 3, 4, 7, 9, 10, 13, 15)
        assert res.exact

    def test_s1_known_count(self):
        assert len(preset_closure("s1", 10**3).members) == 266

    def test_s2_small_members(self):
        res = preset_closure("s2", 20)
        assert res.members == (1, 2, 4, 5, 8, 9, 10, 14, 15, 16, 17, 18, 20)

    def test_s0_with_default_headroom(self):
        assert preset_closure("s0", 200).members == tuple(range(1, 201))

    def test_closure_property_of_emitted_members(self):
        # any generator image of a member that stays under the bound
        # must itself be a member
        for name in ("s1", "s2"):
            res = preset_closure(name, 300)
            members = set(res.members)
            for x in res.members:
                for g in PRESET_GENERATORS[name]:
                    y = g.image(x)
                    if y is not None and y <= 300:
                        assert y in members

    def test_seeds_are_members(self):
        for name, seeds in PRESET_SEEDS.items():
            members = preset_closure(name, 50).members
            for s in seeds:
                assert s in members

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_closure("s9", 100)


class TestDensityProfile:
    def test_counts_and_densities(self):
        members = preset_closure("s2", 20).members
        rows = density_profile(members, [10, 20])
        assert rows == ((10, 7, 0.7), (20, 13, 0.65))

    def test_s1_density_decreases(self):
        members = preset_closure("s1", 10**4).members
        rows = density_profile(members, [10**2, 10**3, 10**4])
        densities = [d for _, _, d in rows]
        assert densities == sorted(densities, reverse=True)
        assert len(set(densities)) == len(densities)

    def test_rejects_nonpositive_checkpoint(self):
        with pytest.raises(ValueError):
            density_profile([1, 2], [0])
