"""Chi-square-driven constraint selection: the classical alternative.

Identical control flow to the paper's Figure-3 loop, but the selection
criterion is a per-cell two-sided z test (normal approximation to the
binomial) at a fixed significance level, optionally Bonferroni-corrected
for the number of cells scanned.  Comparing this selector against the MML
selector on planted-correlation data is ablation A1
(:func:`repro.eval.harness.selector_recovery_experiment`,
``benchmarks/bench_selector_recovery.py``): the MML criterion adapts its
threshold to N and to the cell's feasible range, the z test does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.contingency import ContingencyTable
from repro.discovery.trace import DiscoveryResult, ScanRecord
from repro.exceptions import ConstraintError, DataError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.model import MaxEntModel
from repro.significance.chi2 import cell_z_test
from repro.significance.mml import MMLPriors, evaluate_cell


@dataclass(frozen=True)
class Chi2SelectorConfig:
    """Settings for the chi-square selector.

    ``alpha`` is the per-test significance level; with ``bonferroni`` it is
    divided by the number of candidate cells at the current order.
    """

    alpha: float = 0.05
    bonferroni: bool = True
    max_order: int | None = None
    tol: float = 1e-10
    max_sweeps: int = 500
    max_constraints: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")


def discover_chi2(
    table: ContingencyTable, config: Chi2SelectorConfig | None = None
) -> DiscoveryResult:
    """Run the discovery loop with the z/chi-square criterion.

    Returns the same :class:`DiscoveryResult` structure as the MML engine;
    the recorded :class:`CellTest` rows are MML-style evaluations (so the
    two selectors are directly comparable), but the *selection* is by
    z-test p-value.
    """
    config = config or Chi2SelectorConfig()
    if table.total == 0:
        raise DataError("cannot run discovery on an empty table")
    schema = table.schema
    constraints = ConstraintSet.first_order(table)
    model = MaxEntModel.independent(
        schema, {n: constraints.margin(n) for n in schema.names}
    )
    result = DiscoveryResult(table=table, model=model, constraints=constraints)
    priors = MMLPriors.equal()

    highest = min(config.max_order or len(schema), len(schema))
    for order in range(2, highest + 1):
        while True:
            candidates = []
            pool = table.num_cells_of_order(order) - len(
                constraints.cells_of_order(order)
            )
            threshold = config.alpha / pool if config.bonferroni else config.alpha
            tests = []
            for subset, values, observed in table.cells_of_order(order):
                if constraints.has_cell((subset, values)):
                    continue
                tests.append(
                    evaluate_cell(
                        table, model, subset, values, constraints, priors, pool
                    )
                )
                probability = model.probability(dict(zip(subset, values)))
                _z, p_value = cell_z_test(observed, table.total, probability)
                if p_value < threshold:
                    candidates.append((p_value, subset, values))
            capped = (
                config.max_constraints is not None
                and len(constraints.cells) >= config.max_constraints
            )
            if not candidates or capped:
                result.scans.append(ScanRecord(order=order, tests=tests, chosen=None))
                break
            candidates.sort(key=lambda item: item[0])
            _p, subset, values = candidates[0]
            constraint = constraints.cell_from_table(table, subset, values)
            try:
                constraints.add_cell(constraint)
            except ConstraintError:
                result.scans.append(ScanRecord(order=order, tests=tests, chosen=None))
                break
            fit = fit_dual(
                constraints,
                initial=model,
                tol=config.tol,
                max_sweeps=config.max_sweeps,
            )
            model = fit.model
            chosen = next(
                t for t in tests if t.attributes == subset and t.values == values
            )
            result.scans.append(
                ScanRecord(
                    order=order, tests=tests, chosen=chosen, fit_sweeps=fit.sweeps
                )
            )
    result.model = model
    return result
