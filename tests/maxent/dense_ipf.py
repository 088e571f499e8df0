"""Frozen dense IPF: the oracle the factored fit is tested against.

This is the fit as it ran before :func:`repro.maxent.ipf.fit_ipf` learned
to sweep per connected component of the constraint graph: every sweep
works on the dense ``2^n`` joint.  It is kept verbatim, test-only, in the
role :func:`repro.significance.mml.reference_scan_order` plays for scans:
the factored fit must adopt the same constraints, run the same sweeps and
land within 1e-12 of this one.  Do not optimize it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConstraintError, ConvergenceError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.ipf import FitResult
from repro.maxent.model import MaxEntModel

_CELL_TARGET_CEILING = 1.0 - 1e-12


def dense_fit_ipf(
    constraints: ConstraintSet,
    initial: MaxEntModel | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 500,
    record_trace: bool = False,
    require_convergence: bool = True,
) -> FitResult:
    """Fit the maxent model satisfying ``constraints`` by IPF sweeps.

    Parameters
    ----------
    constraints:
        Complete constraint set (every attribute must have a margin).
    initial:
        Warm-start model; defaults to the all-ones factor model.  Warm
        starts make the discovery loop's repeated refits cheap, mirroring
        the paper's "starting with the last previously calculated a values".
        When re-fitting after the constraint *set* changed (not just its
        targets), build the initial model with :func:`warm_start_model` so
        stale factors cannot shift the fixed point.
    tol:
        Convergence threshold on the max absolute constraint violation.
    max_sweeps:
        Sweep budget.
    record_trace:
        If True, snapshot all ``a`` values after every sweep.
    require_convergence:
        If True (default) raise :class:`ConvergenceError` when the budget is
        exhausted; otherwise return the best-effort result.
    """
    constraints.validate_complete()
    schema = constraints.schema
    for cell in constraints.cells:
        if cell.probability >= _CELL_TARGET_CEILING:
            raise ConstraintError(
                f"cell constraint {cell.key} has target ~1; degenerate "
                f"constraints must be expressed through margins"
            )

    model = initial.copy() if initial is not None else MaxEntModel(schema)
    for cell in constraints.cells:
        model.cell_factors.setdefault(cell.key, 1.0)
    for names, target in constraints.subset_margins.items():
        if names not in model.table_factors:
            model.table_factors[names] = np.ones(target.shape)

    # The working tensor is allocated once; every subsequent scaling is an
    # in-place broadcast multiply.
    tensor = model.unnormalized()
    tensor *= model.a0
    total = tensor.sum()
    if total <= 0:
        raise ConstraintError("initial model has zero total mass")
    model.a0 /= total
    tensor /= total

    cell_slicers = {
        cell.key: _slicer(schema, cell.attributes, cell.values)
        for cell in constraints.cells
    }

    history: list[float] = []
    trace: list[dict[str, float]] = []
    converged = False
    sweeps = 0
    violation, lead_sums = _max_violation(
        tensor, constraints, cell_slicers, schema
    )
    for sweeps in range(1, max_sweeps + 1):
        _margin_sweep(tensor, constraints, model, schema, lead_sums)
        _subset_margin_sweep(tensor, constraints, model, schema)
        _cell_sweep(tensor, constraints, model, cell_slicers)
        violation, lead_sums = _max_violation(
            tensor, constraints, cell_slicers, schema
        )
        history.append(violation)
        if record_trace:
            trace.append(model.a_values())
        if violation < tol:
            converged = True
            break

    if not converged and require_convergence:
        raise ConvergenceError(
            f"IPF did not converge in {max_sweeps} sweeps "
            f"(max violation {violation:.3g}, tol {tol:.3g})"
        )
    model.normalize()
    return FitResult(
        model=model,
        converged=converged,
        sweeps=sweeps,
        max_violation=violation,
        history=history,
        trace=trace,
    )


def _slicer(schema, names, values) -> tuple:
    slicer: list[slice | int] = [slice(None)] * len(schema)
    for name, value in zip(names, values):
        slicer[schema.axis(name)] = value
    return tuple(slicer)


def _margin_sweep(
    tensor, constraints, model, schema, lead_sums=None
) -> None:
    """One in-place pass over the first-order margins.

    ``lead_sums`` is the leading axis's raw margin sums as last measured
    by :func:`_max_violation`; the tensor has not changed since, so the
    reduction is reused instead of recomputed.  Later axes always
    recompute — the tensor changes under them during the sweep.
    """
    for axis, attribute in enumerate(schema):
        target = constraints.margin(attribute.name)
        if axis == 0 and lead_sums is not None:
            current = lead_sums
        else:
            other_axes = tuple(a for a in range(len(schema)) if a != axis)
            current = tensor.sum(axis=other_axes)
        ratio = np.ones_like(current)
        positive = current > 0
        ratio[positive] = target[positive] / current[positive]
        infeasible = (~positive) & (target > 0)
        if infeasible.any():
            value = int(np.flatnonzero(infeasible)[0])
            raise ConstraintError(
                f"margin target P({attribute.name}={value}) > 0 but the "
                f"model assigns it zero mass (structural conflict)"
            )
        ratio[~positive] = 0.0
        shape = [1] * len(schema)
        shape[axis] = attribute.cardinality
        tensor *= ratio.reshape(shape)
        model.margin_factors[attribute.name] *= ratio


def _subset_margin_sweep(tensor, constraints, model, schema) -> None:
    for names, target in constraints.subset_margins.items():
        axes = schema.axes(names)
        other_axes = tuple(a for a in range(len(schema)) if a not in axes)
        current = tensor.sum(axis=other_axes)
        ratio = np.ones_like(current)
        positive = current > 0
        ratio[positive] = target[positive] / current[positive]
        infeasible = (~positive) & (target > 0)
        if infeasible.any():
            raise ConstraintError(
                f"subset margin for {names} puts mass on a cell the model "
                f"assigns zero (structural conflict)"
            )
        ratio[~positive] = 0.0
        shape = [1] * len(schema)
        for axis in axes:
            shape[axis] = schema.attributes[axis].cardinality
        tensor *= ratio.reshape(shape)
        model.table_factors[names] = model.table_factors[names] * ratio


def _cell_sweep(tensor, constraints, model, cell_slicers) -> None:
    for cell in constraints.cells:
        slicer = cell_slicers[cell.key]
        mass = float(tensor[slicer].sum())
        target = cell.probability
        total = float(tensor.sum())
        share = mass / total
        if share >= 1.0:
            # Nothing is left outside the cell to carry 1 - target.
            raise ConstraintError(
                f"cell target {cell.key} = {target} < 1 but the model "
                f"puts all its mass in that cell (structural conflict)"
            )
        if target == 0.0:
            if share > 0.0:
                tensor[slicer] = 0.0
                model.cell_factors[cell.key] = 0.0
                rescale = 1.0 / (1.0 - share)
                tensor *= rescale
                model.a0 *= rescale
            continue
        if share <= 0.0:
            raise ConstraintError(
                f"cell target {cell.key} = {target} > 0 but the model "
                f"assigns it zero mass (structural conflict)"
            )
        ratio_in = target / share
        ratio_out = (1.0 - target) / (1.0 - share)
        tensor *= ratio_out
        tensor[slicer] *= ratio_in / ratio_out
        model.cell_factors[cell.key] *= ratio_in / ratio_out
        model.a0 *= ratio_out


def _max_violation(
    tensor, constraints, cell_slicers, schema
) -> tuple[float, np.ndarray]:
    """Max absolute constraint violation, plus the leading axis's raw sums.

    The returned sums let the next :func:`_margin_sweep` skip its first
    reduction (the tensor is untouched between the check and the sweep).
    """
    total = float(tensor.sum())
    worst = abs(total - 1.0)
    lead_sums = None
    for axis, attribute in enumerate(schema):
        target = constraints.margin(attribute.name)
        other_axes = tuple(a for a in range(len(schema)) if a != axis)
        raw = tensor.sum(axis=other_axes)
        if axis == 0:
            lead_sums = raw
        current = raw / total
        worst = max(worst, float(np.abs(current - target).max()))
    for names, target in constraints.subset_margins.items():
        axes = schema.axes(names)
        other_axes = tuple(a for a in range(len(schema)) if a not in axes)
        current = tensor.sum(axis=other_axes) / total
        worst = max(worst, float(np.abs(current - target).max()))
    for cell in constraints.cells:
        share = float(tensor[cell_slicers[cell.key]].sum()) / total
        worst = max(worst, abs(share - cell.probability))
    return worst, lead_sums
