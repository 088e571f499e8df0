"""BIC greedy selection: the modern model-selection comparator.

Scores each candidate cell constraint by the Bayesian Information
Criterion improvement it would bring: twice the log-likelihood gain of the
refitted model on the observed counts, minus ``ln N`` for the added
parameter.  Greedily adopts the best candidate while any improvement is
positive.  This is how one would attack the paper's problem with standard
log-linear model-selection machinery (cf. bnlearn / pgmpy score-based
structure search); it serves as the third arm of ablation A1.

The exact score requires a refit per candidate, which is the textbook cost
of score-based search; a cheap screening bound (the single-cell likelihood
gain, an upper bound on the full gain) prunes candidates that cannot win.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.exceptions import ConstraintError, DataError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import fit_dual
from repro.maxent.model import MaxEntModel


@dataclass(frozen=True)
class BICSelectorConfig:
    """Settings for the greedy BIC selector."""

    max_order: int | None = None
    tol: float = 1e-10
    max_sweeps: int = 500
    max_constraints: int | None = None
    penalty_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if self.penalty_multiplier <= 0:
            raise DataError(
                f"penalty_multiplier must be positive, got "
                f"{self.penalty_multiplier}"
            )


@dataclass
class BICStep:
    """One adopted constraint with its score improvement."""

    attributes: tuple[str, ...]
    values: tuple[int, ...]
    delta_bic: float


@dataclass
class BICResult:
    """Outcome of the greedy BIC search."""

    model: MaxEntModel
    constraints: ConstraintSet
    steps: list[BICStep]

    @property
    def found(self):
        return self.constraints.cells


def log_likelihood(table: ContingencyTable, model: MaxEntModel) -> float:
    """Multinomial log-likelihood of the table under the model."""
    joint = model.joint()
    counts = table.counts
    mask = counts > 0
    if (joint[mask] <= 0).any():
        return float("-inf")
    return float((counts[mask] * np.log(joint[mask])).sum())


def discover_bic(
    table: ContingencyTable, config: BICSelectorConfig | None = None
) -> BICResult:
    """Greedy BIC forward selection of cell constraints."""
    config = config or BICSelectorConfig()
    if table.total == 0:
        raise DataError("cannot run discovery on an empty table")
    schema = table.schema
    constraints = ConstraintSet.first_order(table)
    model = MaxEntModel.independent(
        schema, {n: constraints.margin(n) for n in schema.names}
    )
    steps: list[BICStep] = []
    penalty = config.penalty_multiplier * log(table.total)
    highest = min(config.max_order or len(schema), len(schema))

    for order in range(2, highest + 1):
        while True:
            if (
                config.max_constraints is not None
                and len(constraints.cells) >= config.max_constraints
            ):
                break
            base_ll = log_likelihood(table, model)
            best = None
            for subset, values, observed in table.cells_of_order(order):
                if constraints.has_cell((subset, values)):
                    continue
                gain = _screening_gain(table, model, subset, values, observed)
                if gain <= penalty / 2.0:
                    continue
                candidate = constraints.copy()
                try:
                    candidate.add_cell(
                        candidate.cell_from_table(table, subset, values)
                    )
                    fit = fit_dual(
                        candidate,
                        initial=model,
                        tol=config.tol,
                        max_sweeps=config.max_sweeps,
                        require_convergence=False,
                    )
                except ConstraintError:
                    continue
                delta = 2.0 * (log_likelihood(table, fit.model) - base_ll) - penalty
                if delta > 0 and (best is None or delta > best[0]):
                    best = (delta, subset, values, candidate, fit.model)
            if best is None:
                break
            delta, subset, values, constraints, model = best
            steps.append(
                BICStep(attributes=subset, values=values, delta_bic=delta)
            )
    return BICResult(model=model, constraints=constraints, steps=steps)


def _screening_gain(table, model, subset, values, observed) -> float:
    """Upper bound on the log-likelihood gain from constraining one cell.

    Moving only the cell's own probability from the model value ``q`` to
    the empirical value ``p`` gains at most ``N * KL(Bern(p) || Bern(q))``
    over the binary partition {cell, complement}, which upper-bounds the
    constrained refit's gain.
    """
    n = table.total
    p = observed / n
    q = model.probability(dict(zip(subset, values)))
    if q <= 0.0 or q >= 1.0:
        return float("inf") if 0.0 < p < 1.0 else 0.0
    gain = 0.0
    if p > 0:
        gain += p * log(p / q)
    if p < 1:
        gain += (1 - p) * log((1 - p) / (1 - q))
    return n * gain
