"""Minimum-message-length significance test (Eqs 35-47).

For every not-yet-constrained marginal cell the paper compares two
hypotheses:

- **H1**: the current maxent model already predicts the cell; message
  length ``m1 = -ln p(H1) - ln Binomial(N_obs; N, p_model)`` (Eq 46).
- **H2**: this cell is the next significant constraint; message length
  ``m2 = -ln p(H2') + ln(cells at this order - M) + ln(range + 1)``
  (Eq 45), where the final term encodes the observed value as uniform over
  its feasible integer range 0..range (Eq 41).  When the cell's value is
  already *determined* by marginals and previously found significant cells,
  ``p(D|H2) = 1`` and the term vanishes.

The cell is significant iff ``m2 - m1 < 0`` (Eq 47), and
``exp(m2 - m1)`` is the posterior likelihood ratio ``p(H1|D)/p(H2|D)``
reported in Table 1's last column.

The feasible range of a cell (Eq 41) is the minimum, over every known
marginal containing the cell, of that marginal's count minus the counts of
already-significant same-subset cells sharing the marginal.  "Known"
marginals are all first-order margins plus any lower-order cells previously
found significant.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import log

from repro.data.contingency import ContingencyTable
from repro.exceptions import DataError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.model import MaxEntModel
from repro.significance.binomial import (
    binomial_mean,
    binomial_sd,
    log_binomial_pmf,
    standard_score,
)
from repro.significance.result import CellTest


@dataclass(frozen=True)
class MMLPriors:
    """Hypothesis priors (Eqs 38-39, 63).

    The paper's default takes ``p(H2') = p(H1)`` so the prior terms cancel
    in ``m2 - m1``; it also discusses 0.6 and 0.8 (which shift the
    difference by -0.40 and -1.39 respectively).
    """

    p_h1: float = 0.5
    p_h2_prime: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.p_h1 < 1.0:
            raise DataError(f"p_h1 must be in (0, 1), got {self.p_h1}")
        if not 0.0 < self.p_h2_prime < 1.0:
            raise DataError(
                f"p_h2_prime must be in (0, 1), got {self.p_h2_prime}"
            )

    @classmethod
    def equal(cls) -> "MMLPriors":
        return cls(0.5, 0.5)

    @property
    def prior_shift(self) -> float:
        """``ln p(H1) - ln p(H2')`` — the prior contribution to m2 - m1."""
        return log(self.p_h1) - log(self.p_h2_prime)


def feasible_range(
    table: ContingencyTable,
    attributes: tuple[str, ...],
    values: tuple[int, ...],
    constraints: ConstraintSet,
) -> tuple[int, bool]:
    """Eq 41: the cell's available integer range and determination flag.

    Returns ``(range, determined)``.  Under H2 the cell's chance value is
    uniform over ``0..range``; when ``determined`` is True every sibling
    cell along some containing marginal is already significant, so the
    value is forced and ``p(D|H2) = 1``.
    """
    schema = table.schema
    order = len(attributes)
    same_subset = [
        cell
        for cell in constraints.cells
        if cell.attributes == attributes and cell.values != values
    ]
    position = {name: i for i, name in enumerate(attributes)}

    def count(names, values) -> int:
        # Every subset read here is canonical: one attribute, or the key of
        # a constraint.  Its count is one read of the cached marginal.
        return int(table.marginal_counts(names)[values])

    bounds: list[int] = []
    determined = False
    for size in range(1, order):
        for combo in combinations(range(order), size):
            t_names = tuple(attributes[i] for i in combo)
            t_values = tuple(values[i] for i in combo)
            if size > 1 and not constraints.has_cell((t_names, t_values)):
                continue
            base = count(t_names, t_values)
            sharing = [
                cell
                for cell in same_subset
                if all(
                    cell.values[position[name]] == value
                    for name, value in zip(t_names, t_values)
                )
            ]
            shared_count = sum(
                count(cell.attributes, cell.values) for cell in sharing
            )
            bounds.append(base - shared_count)
            siblings = 1
            for i in range(order):
                if i not in combo:
                    siblings *= schema.attribute(attributes[i]).cardinality
            siblings -= 1
            if len(sharing) >= siblings:
                determined = True

    cell_range = max(0, min(bounds)) if bounds else table.total
    return cell_range, determined


def evaluate_cell(
    table: ContingencyTable,
    model: MaxEntModel,
    attributes: tuple[str, ...],
    values: tuple[int, ...],
    constraints: ConstraintSet,
    priors: MMLPriors | None = None,
    candidate_pool: int | None = None,
    predicted: float | None = None,
) -> CellTest:
    """Run the MML test on one marginal cell; returns one Table-1 row.

    Parameters
    ----------
    candidate_pool:
        The ``(number of cells at this order − M)`` count of Eq 40/45; when
        omitted it is computed from the table and the constraints found at
        this cell's order.
    predicted:
        The cell's probability under ``model``; when omitted it is computed
        via :meth:`~repro.maxent.model.MaxEntModel.probability`.  Callers
        scanning many cells pass it from a shared marginal so the model
        is factored once per scan, not once per cell.
    """
    priors = priors or MMLPriors.equal()
    order = len(attributes)
    if candidate_pool is None:
        found_at_order = len(constraints.cells_of_order(order))
        candidate_pool = table.num_cells_of_order(order) - found_at_order
    if candidate_pool < 1:
        raise DataError(
            f"candidate pool at order {order} is {candidate_pool}; "
            f"no cells remain to choose from"
        )

    total = table.total
    observed = table.count(dict(zip(attributes, values)))
    if predicted is None:
        predicted = model.probability(dict(zip(attributes, values)))
    predicted = min(max(predicted, 0.0), 1.0)

    m1 = -log(priors.p_h1) - log_binomial_pmf(observed, total, predicted)
    cell_range, determined = feasible_range(
        table, attributes, values, constraints
    )
    m2 = -log(priors.p_h2_prime) + log(candidate_pool)
    if not determined:
        m2 += log(cell_range + 1)

    return CellTest(
        attributes=attributes,
        values=values,
        observed=observed,
        predicted_probability=predicted,
        mean=binomial_mean(total, predicted),
        sd=binomial_sd(total, predicted),
        num_sd=standard_score(observed, total, predicted),
        m1=m1,
        m2=m2,
        determined=determined,
        feasible_range=cell_range,
    )


def scan_order(
    table: ContingencyTable,
    model: MaxEntModel,
    order: int,
    constraints: ConstraintSet,
    priors: MMLPriors | None = None,
) -> list[CellTest]:
    """Evaluate every not-yet-constrained cell at the given order.

    The returned list covers all attribute subsets of the order (the
    paper's "16 second order cells" for the smoking example), excluding
    cells already adopted as constraints.  Since the kernel layer landed
    this delegates to the vectorized
    :class:`~repro.significance.kernels.OrderScanKernel`, whose output is
    bit-identical to the scalar reference
    (:func:`reference_scan_order`); callers that scan repeatedly between
    adoptions (the discovery engine) hold a kernel directly so data-side
    statistics survive across rounds.
    """
    from repro.significance.kernels import OrderScanKernel

    return OrderScanKernel(table, order, constraints, priors).scan(model)


def reference_scan_order(
    table: ContingencyTable,
    model: MaxEntModel,
    order: int,
    constraints: ConstraintSet,
    priors: MMLPriors | None = None,
) -> list[CellTest]:
    """The scalar oracle scan: one :func:`evaluate_cell` per candidate.

    This is the original cell-by-cell implementation, kept as the
    reference the vectorized kernel is property-tested against (and as
    the baseline the scan benchmark measures).  The model is factored
    once for the whole scan (:meth:`~repro.maxent.model.MaxEntModel.factored`)
    and each subset's marginal is taken from the constraint-graph
    components it touches — the same numbers
    :meth:`~repro.maxent.model.MaxEntModel.probability` would produce
    cell by cell, at a fraction of the cost, and without the ``2^n``
    joint.
    """
    priors = priors or MMLPriors.equal()
    found_at_order = len(constraints.cells_of_order(order))
    pool = table.num_cells_of_order(order) - found_at_order
    factors = model.factored()
    marginals: dict[tuple[str, ...], object] = {}
    tests = []
    for subset, values, _count in table.cells_of_order(order):
        if constraints.has_cell((subset, values)):
            continue
        marginal = marginals.get(subset)
        if marginal is None:
            marginal = factors.marginal(subset)
            marginals[subset] = marginal
        tests.append(
            evaluate_cell(
                table,
                model,
                subset,
                values,
                constraints,
                priors,
                pool,
                predicted=float(marginal[values]),
            )
        )
    return tests


def most_significant(tests: list[CellTest]) -> CellTest | None:
    """The significant test with the most negative ``m2 - m1``, if any."""
    significant = [t for t in tests if t.significant]
    if not significant:
        return None
    return min(significant, key=lambda t: t.delta)
