"""E6 — Figure 4 ablation: the a-value fitting loop, Newton vs Gevarter.

Benchmarks both solvers on the same constraint system (margins + the
Table-2 cell).  Shape criterion: both converge to the same joint (max
absolute difference < 1e-8).
"""

import numpy as np
import pytest

from repro.eval.harness import reproduce_solver_comparison
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.gevarter import fit_gevarter


@pytest.fixture
def constraints(table):
    constraints = ConstraintSet.first_order(table)
    for subset, values in [
        (("SMOKING", "CANCER"), (0, 0)),
        (("SMOKING", "FAMILY_HISTORY"), (0, 1)),
    ]:
        constraints.add_cell(
            constraints.cell_from_table(table, list(subset), list(values))
        )
    return constraints


def test_bench_figure4_dual(benchmark, constraints, write_report):
    fit = benchmark(fit_dual, constraints)
    assert fit.converged
    _fits, text = reproduce_solver_comparison()
    write_report("figure4_solvers.txt", text)


def test_bench_figure4_gevarter(benchmark, constraints):
    fit = benchmark(fit_gevarter, constraints, record_trace=False)
    assert fit.converged


def test_bench_figure4_agreement(benchmark, constraints):
    def both():
        newton = fit_dual(constraints)
        gevarter = fit_gevarter(constraints, record_trace=False)
        return newton, gevarter

    newton, gevarter = benchmark(both)
    difference = np.abs(newton.model.joint() - gevarter.model.joint()).max()
    assert difference < 1e-8
