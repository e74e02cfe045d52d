"""Shared fixtures: every test starts with an empty oracle tree cache."""

import pytest

from montyhall import oracle


@pytest.fixture(autouse=True)
def _fresh_oracle_cache():
    """Walk counts and results must not depend on which tests ran first."""
    oracle._conditional_cells.cache_clear()
