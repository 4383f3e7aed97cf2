"""Randomized invariants over the whole-number machinery.

Everything here must hold for every input, not just the worked
examples in the other test files, so hypothesis drives the choices.
Integer strategies go far past 64 bits on purpose: the exact paths
must not care about machine word size.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_lab.maps import collatz_step, t_map, t_step, u_map
from collatz_lab.sieve import build_table, k_step, parity_bijection_check
from collatz_lab.stats import (
    gamma,
    one_ratio,
    orbit_summary,
    parity_vector,
    rho,
    stopping_time,
    total_stopping_time,
)
from collatz_lab.tag import collatz_tag, post_tag, run_tag
from collatz_lab.trajectory import IterationLimits, Outcome, iterate
from collatz_lab.util import format_fixed5, log_nat

_TABLE16 = build_table(16)
_U = u_map()


@given(st.integers(min_value=1, max_value=10**40))
def test_conjugacy_with_the_unhalved_rule(x):
    # One halved step is two unhalved steps from an odd point and one
    # from an even point.
    if x & 1:
        assert t_step(x) == collatz_step(collatz_step(x))
    else:
        assert t_step(x) == collatz_step(x)


@given(
    st.integers(min_value=0, max_value=2**128),
    st.integers(min_value=0, max_value=2**16 - 1),
)
def test_k_step_matches_direct_iteration(q, r):
    n = (q << 16) + r
    x = n
    for _ in range(16):
        x = t_step(x)
    assert k_step(_TABLE16, n) == x


@given(
    st.integers(min_value=1, max_value=2**200),
    st.integers(min_value=1, max_value=16),
)
def test_parity_vector_depends_only_on_residue(n, k):
    assert parity_vector(n, k) == parity_vector(n % (1 << k), k)


@given(
    st.integers(min_value=1, max_value=2**200),
    st.integers(min_value=1, max_value=12),
)
def test_parity_vector_tracks_the_orbit(n, k):
    vec = parity_vector(n, k)
    x = n
    for bit in vec:
        assert bit == (x & 1)
        x = t_step(x)


def test_parity_words_are_a_bijection_up_to_16():
    for k in range(1, 17):
        assert parity_bijection_check(k)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_trajectory_bookkeeping(n):
    traj = iterate(t_map(), n, limits=IterationLimits(max_steps=10**6, max_bits=256))
    assert traj.outcome is Outcome.REACHED_ONE
    assert traj.values is not None
    assert len(traj.values) == traj.steps + 1
    assert traj.values[0] == n
    assert traj.values[-1] == 1
    assert traj.peak == max(traj.values)
    assert traj.odd_count == sum(1 for v in traj.values[:-1] if v & 1)


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_total_stopping_time_matches_trajectory(n):
    traj = iterate(t_map(), n)
    assert total_stopping_time(n) == traj.steps


@given(
    st.one_of(st.integers(min_value=1, max_value=600), st.integers(min_value=1, max_value=2**80)),
    st.integers(min_value=0, max_value=100),
    st.integers(min_value=1, max_value=64),
)
@settings(max_examples=300, deadline=None)
def test_single_start_statistics_match_a_plain_orbit(n, max_steps, max_bits):
    # The orbit is listed up to 1, or up to the first iterate that takes
    # more than max_steps steps or has more than max_bits bits.
    limits = IterationLimits(max_steps=max_steps, max_bits=max_bits)
    orbit = [n]
    ran_out = False
    while orbit[-1] != 1 and not ran_out:
        orbit.append(t_step(orbit[-1]))
        ran_out = len(orbit) - 1 > max_steps or orbit[-1].bit_length() > max_bits
    sigma = None if ran_out else len(orbit) - 1
    # The first drop below n counts even on the step that ran out.
    drops = [k for k, x in enumerate(orbit) if x < n]
    stop = math.inf if n == 1 else (drops[0] if drops else None)
    if sigma is None or n == 1:
        ratio = peak_ratio = steps_ratio = None
    else:
        ratio = Fraction(sum(x & 1 for x in orbit[:-1]), sigma)
        peak_ratio = log_nat(max(orbit[1:])) / log_nat(n)
        steps_ratio = sigma / log_nat(n)
    assert total_stopping_time(n, limits) == sigma
    assert stopping_time(n, limits) == stop
    assert one_ratio(n, limits) == ratio
    assert rho(n, limits) == peak_ratio
    assert gamma(n, limits) == steps_ratio
    summary = orbit_summary(n, limits)
    assert (summary.total_steps, summary.stopping_time, summary.odd_ratio,
            summary.rho, summary.gamma) == (sigma, stop, ratio, peak_ratio, steps_ratio)


def test_stopping_time_may_answer_on_the_step_past_the_budget():
    limits = IterationLimits(max_steps=0, max_bits=64)
    assert stopping_time(6, limits) == 1
    assert total_stopping_time(6, limits) is None


@given(st.integers(min_value=1, max_value=10**12))
@settings(max_examples=50)
def test_permutation_is_injective_with_computable_preimage(x):
    y = _U.apply(x)
    assert y is not None
    if y % 3 == 0:
        # Images divisible by 3 come only from the even branch.
        assert _U.apply((2 * y) // 3) == y
    assert _U.apply(x + 1) != y


@given(st.integers(min_value=2, max_value=10**50))
def test_log_nat_agrees_with_math_log(n):
    assert math.isclose(log_nat(n), math.log(n), rel_tol=1e-12)


@given(st.fractions(min_value=0, max_value=1))
def test_format_fixed5_truncates_toward_zero(q):
    shown = Fraction(format_fixed5(q))
    assert shown <= q < shown + Fraction(1, 10**5)


@given(st.text(alphabet="01", min_size=3, max_size=40))
@settings(max_examples=60)
def test_post_tag_single_step_rewrite(word):
    system = post_tag()
    run = run_tag(system, word, max_steps=1)
    produced = system.productions[int(word[0])]
    assert run.steps == 1
    assert run.final == word[system.deletion:] + produced
    assert len(run.final) == len(word) - system.deletion + len(produced)


@given(st.integers(min_value=1, max_value=60))
@settings(max_examples=30, deadline=None)
def test_collatz_tag_sweeps_shadow_the_halved_orbit(n):
    # Between all-zero configurations the three-letter system performs
    # exactly one halved 3x+1 step on the word length.
    run = run_tag(collatz_tag(), "0" * n, max_steps=10**6)
    lengths = [length for _, length in run.zero_lengths]
    assert lengths[0] == n
    if n > 1:
        assert lengths[1] == t_step(n)
