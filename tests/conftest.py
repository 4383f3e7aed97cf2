"""Shared fixtures for the test suite."""

import pytest

from collatz_lab import IterationLimits, build_table


@pytest.fixture(scope="session")
def tight_limits() -> IterationLimits:
    # Small enough that a divergent orbit gives up in milliseconds,
    # large enough that every frozen cycle below is still found.
    return IterationLimits(max_steps=10_000, max_bits=4096)


@pytest.fixture(scope="module")
def limb_tables():
    # The widths the limb-kernel tests cover.  Module scope frees the
    # k=24 table (about 175 MiB) once a module's tests are done.
    return {k: build_table(k) for k in (1, 12, 16, 20, 24)}
