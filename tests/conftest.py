"""Fixtures shared by every test module."""

import pytest

from garlands import lattice


@pytest.fixture(autouse=True)
def cold_lattice_memo():
    """Each test starts with an empty lattice memo, so counts of computations do not depend on test order."""
    lattice._reset_lattices()
    yield
