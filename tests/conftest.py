"""Fixtures shared by every test module."""

import pytest

from garlands import lattice


@pytest.fixture(autouse=True)
def cold_stage_memo():
    """Each test starts with an empty stage memo, so counts of computations do not depend on test order."""
    lattice._reset_stages()
    yield
