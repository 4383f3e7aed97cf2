"""Tests for the piecewise-affine map layer: rule tables, named maps, parsing."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_lab.maps import (
    MapSpecError,
    collatz_map,
    collatz_permutation_U,
    collatz_step,
    make_3k_map,
    make_general_map,
    parse_map_spec,
    t5_map,
    t_map,
    t_step,
    u_map,
)


class TestSingleSteps:
    def test_collatz_step(self):
        assert collatz_step(6) == 3
        assert collatz_step(3) == 10
        assert collatz_step(1) == 4

    def test_t_step(self):
        assert t_step(6) == 3
        assert t_step(3) == 5
        assert t_step(1) == 2

    def test_permutation_branches(self):
        assert collatz_permutation_U(8) == 12  # 2n -> 3n
        assert collatz_permutation_U(5) == 4  # 4n+1 -> 3n+1
        assert collatz_permutation_U(7) == 5  # 4n+3 -> 3n+2

    def test_permutation_is_injective_on_prefix(self):
        images = [collatz_permutation_U(x) for x in range(1, 301)]
        assert len(set(images)) == 300


class TestRuleTables:
    def test_t_map_matches_step_function(self):
        m = t_map()
        for x in range(1, 500):
            assert m.apply(x) == t_step(x)

    def test_u_map_matches_permutation(self):
        m = u_map()
        for x in range(1, 500):
            assert m.apply(x) == collatz_permutation_U(x)

    def test_collatz_map_matches_step_function(self):
        m = collatz_map()
        for x in range(1, 200):
            assert m.apply(x) == collatz_step(x)

    def test_inadmissible_class_rejected_when_total(self):
        # residue 0 with pair (1, 1): 0*1+1 is not divisible by 2.
        with pytest.raises(MapSpecError):
            make_general_map(2, [(1, 1), (3, 1)])

    def test_inadmissible_class_kept_when_partial(self):
        m = make_general_map(2, [(1, 1), (3, 1)], allow_partial=True)
        assert m.undefined_residues == frozenset({0})
        assert m.apply(4) is None
        assert m.apply(3) == 5

    def test_wrong_pair_count_rejected(self):
        with pytest.raises(MapSpecError):
            make_general_map(3, [(1, 0), (3, 1)])

    def test_modulus_below_two_rejected(self):
        with pytest.raises(MapSpecError):
            make_general_map(1, [(1, 0)])

    def test_relatively_prime_type(self):
        assert t_map().relatively_prime_type
        assert t5_map().relatively_prime_type
        assert not collatz_map().relatively_prime_type  # 6 shares a factor with 2
        assert not u_map().relatively_prime_type  # 6*3*6*3 shares a factor with 4


class TestFamilies:
    def test_3k_family_includes_t(self):
        assert make_3k_map(1).pairs == t_map().pairs

    def test_3k_family_rejects_even_offset(self):
        with pytest.raises(MapSpecError):
            make_3k_map(4)
        with pytest.raises(MapSpecError):
            make_3k_map(0)

    def test_3k_step_values(self):
        m = make_3k_map(5)
        assert m.apply(1) == 4  # (3+5)/2
        assert m.apply(3) == 7  # (9+5)/2
        assert m.apply(10) == 5


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3x+1", t_map()),
            ("T", t_map()),
            ("collatz", collatz_map()),
            ("5x+1", t5_map()),
            ("U", u_map()),
            ("u", u_map()),
            ("3x+7", make_3k_map(7)),
        ],
    )
    def test_shorthands(self, text, expected):
        assert parse_map_spec(text).pairs == expected.pairs
        assert parse_map_spec(text).d == expected.d

    def test_full_form(self):
        m = parse_map_spec("d=2;pairs=(1,0),(3,1);partial=false")
        assert m.d == 2
        assert m.pairs == ((1, 0), (3, 1))
        assert not m.partial

    def test_full_form_partial_flag(self):
        m = parse_map_spec("d=2;pairs=(1,1),(3,1);partial=true")
        assert m.partial
        assert m.undefined_residues == frozenset({0})

    def test_str_round_trip(self):
        for original in (t_map(), u_map(), t5_map(), make_3k_map(11)):
            parsed = parse_map_spec(str(original))
            assert parsed.d == original.d
            assert parsed.pairs == original.pairs
            assert parsed.partial == original.partial

    def test_negative_coefficients_survive_round_trip(self):
        m = parse_map_spec("d=4;pairs=(6,0),(3,1),(6,0),(3,-1)")
        assert m.pairs == u_map().pairs

    def test_rejects_unknown_selector(self):
        with pytest.raises(MapSpecError):
            parse_map_spec("7x+3")
        with pytest.raises(MapSpecError):
            parse_map_spec("d=3;pairs=(1,0),(3,1)")


@st.composite
def _rule_tables(draw):
    d = draw(st.integers(2, 9))
    partial = draw(st.booleans())
    pairs = []
    for i in range(d):
        a = draw(st.integers(-40, 40) | st.integers(-(2**70), 2**70))
        b = -i * a + d * draw(st.integers(-(2**70), 2**70))
        if partial and draw(st.booleans()):
            b += draw(st.integers(1, d - 1))
        pairs.append((a, b))
    return make_general_map(d, pairs, allow_partial=partial)


@settings(max_examples=300, deadline=None)
@given(map_=_rule_tables(), xs=st.lists(st.integers(-(2**400), 2**400), min_size=1, max_size=8))
def test_fast_step_equals_apply(map_, xs):
    # The step built at construction (mask and shift for a power-of-two
    # modulus) is apply: same values, None on the same classes.
    for x in xs:
        assert map_._step(x) == map_.apply(x)
        assert map_._step(x - 1) == map_.apply(x - 1)


def test_maps_pickle_with_their_step():
    part = make_general_map(2, [(1, 1), (3, 1)], allow_partial=True, name="p")
    for original in (u_map(), part, parse_map_spec("d=3;pairs=(1,0),(4,-1),(4,1)")):
        copy = pickle.loads(pickle.dumps(original))
        assert copy == original and copy.name == original.name
        assert [copy._step(x) for x in range(-9, 30)] == [original.apply(x) for x in range(-9, 30)]
