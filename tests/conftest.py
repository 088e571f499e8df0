"""Shared fixtures: the paper's data, schemas, and seeded RNGs."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.eval.paper import paper_schema, paper_table

# The frozen fit oracle (tests/maxent/dense_ipf.py) serves suites outside
# tests/maxent too.
sys.path.insert(0, str(Path(__file__).parent / "maxent"))


@pytest.fixture
def schema():
    """The paper's smoking/cancer/family-history schema."""
    return paper_schema()


@pytest.fixture
def table():
    """The paper's exact Figure-1 contingency table (N = 3428)."""
    return paper_table()


@pytest.fixture
def rng():
    """A deterministically seeded random generator."""
    return np.random.default_rng(42)
