"""Shared benchmark fixtures.

Every bench regenerates its paper artifact, asserts the shape criteria
(who wins / sign / ranking, stated in each bench's docstring), and writes the rendered
table to ``benchmarks/output/`` so the reproduced artifacts can be read
side by side with the paper.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.eval.paper import paper_table

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def write_report(output_dir):
    def _write(name: str, text: str) -> None:
        (output_dir / name).write_text(text + "\n")

    return _write


@pytest.fixture
def table():
    return paper_table()


@pytest.fixture
def rng():
    return np.random.default_rng(2026)
