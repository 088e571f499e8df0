"""Hierarchical log-linear forward selection (the Cheeseman-style comparator).

The paper's cited predecessor (Cheeseman 1983) and the classical
log-linear literature constrain *whole* marginal tables — one factor table
per interaction subset — where the paper constrains single cells.  This
module implements that family: greedy forward selection over attribute
subsets, adding the subset whose observed marginal deviates most from the
current model (by the likelihood-ratio G² test) until nothing is
significant.

Comparing against the paper's cell-based discovery shows the trade-off the
paper's design makes: whole-margin models spend ``(I·J − 1)``-ish
parameters per adopted pair even when a single cell carries all the
signal, while the cell-based model spends exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.contingency import ContingencyTable
from repro.exceptions import DataError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.ipf import fit_ipf
from repro.maxent.model import MaxEntModel
from repro.significance.chi2 import marginal_g2


@dataclass(frozen=True)
class LogLinearConfig:
    """Settings for the log-linear forward selection."""

    alpha: float = 0.01
    max_order: int | None = None
    tol: float = 1e-10
    max_sweeps: int = 500
    max_terms: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DataError(f"alpha must be in (0, 1), got {self.alpha}")


@dataclass
class LogLinearStep:
    """One adopted interaction subset with its test statistics."""

    attributes: tuple[str, ...]
    g2: float
    dof: int
    p_value: float


@dataclass
class LogLinearResult:
    """Outcome of the forward selection."""

    model: MaxEntModel
    constraints: ConstraintSet
    steps: list[LogLinearStep] = field(default_factory=list)

    @property
    def found_subsets(self) -> list[tuple[str, ...]]:
        return [step.attributes for step in self.steps]

    def num_interaction_parameters(self) -> int:
        """Free parameters spent on interactions (cells minus the sums
        already fixed by lower-order margins — the standard log-linear
        dof count for a two-way term is ``(I-1)(J-1)``, etc.)."""
        total = 0
        for names in self.constraints.subset_margins:
            dof = 1
            for name in names:
                dof *= self.model.schema.attribute(name).cardinality - 1
            total += dof
        return total


def discover_loglinear(
    table: ContingencyTable,
    config: LogLinearConfig | None = None,
) -> LogLinearResult:
    """Greedy forward selection of whole-marginal interaction terms.

    At each step, every not-yet-adopted subset at the current order is
    G²-tested against the fitted model; the most significant one (smallest
    p below ``alpha``) is adopted as a full marginal constraint and the
    model refitted.  Orders are processed 2..max like the paper's loop.
    """
    config = config or LogLinearConfig()
    if table.total == 0:
        raise DataError("cannot run discovery on an empty table")
    schema = table.schema
    constraints = ConstraintSet.first_order(table)
    model = MaxEntModel.independent(
        schema, {n: constraints.margin(n) for n in schema.names}
    )
    result = LogLinearResult(model=model, constraints=constraints)

    highest = min(config.max_order or len(schema), len(schema))
    for order in range(2, highest + 1):
        while True:
            if (
                config.max_terms is not None
                and len(constraints.subset_margins) >= config.max_terms
            ):
                break
            best: tuple[float, tuple[str, ...], float, int] | None = None
            for subset in table.subsets_of_order(order):
                if constraints.has_subset_margin(subset):
                    continue
                g2, dof, p_value = marginal_g2(table, model, subset)
                if p_value < config.alpha:
                    if best is None or p_value < best[0]:
                        best = (p_value, subset, g2, dof)
            if best is None:
                break
            p_value, subset, g2, dof = best
            constraints.set_subset_margin(
                subset, constraints.subset_margin_from_table(table, subset)
            )
            fit = fit_ipf(
                constraints,
                initial=model,
                tol=config.tol,
                max_sweeps=config.max_sweeps,
            )
            model = fit.model
            result.steps.append(
                LogLinearStep(
                    attributes=subset, g2=g2, dof=dof, p_value=p_value
                )
            )
    result.model = model
    result.constraints = constraints
    return result
