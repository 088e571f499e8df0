"""Frozen lockstep IPF: the bit-identity oracle for the fit.

This is :func:`repro.maxent.ipf.fit_ipf` as it ran before it learned to
skip components at a bitwise fixed point: every sweep visits every
connected component of the constraint graph, phase by phase, and every
margin, subset-margin and cell update multiplies even when its ratio is
exactly 1.  It is kept verbatim, test-only, in the role
:mod:`dense_ipf` plays for the 1e-12 contract: the current fit must
produce byte-equal factors, ``a0``, sweeps, history and violation, and
raise the same error for the same constraint.  Do not optimize it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConstraintError, ConvergenceError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.ipf import FitResult
from repro.maxent.model import MaxEntModel

_CELL_TARGET_CEILING = 1.0 - 1e-12


def lockstep_fit_ipf(
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
        targets), build the initial model with
        :func:`repro.maxent.ipf.warm_start_model` so stale factors cannot
        shift the fixed point.
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

    components = [
        _Component(part, constraints) for part in model.component_models()
    ]
    masses = [float(component.tensor.sum()) for component in components]
    total = model.a0 * math.prod(masses)
    if total <= 0:
        raise ConstraintError("initial model has zero total mass")
    for component, mass in zip(components, masses):
        component.tensor /= mass
    scale = model.a0 / total

    # Where each constraint sits in the dense sweep's visiting order.
    positions = {name: axis for axis, name in enumerate(schema.names)}
    positions.update(
        (names, i) for i, names in enumerate(constraints.subset_margins)
    )
    positions.update((cell.key, i) for i, cell in enumerate(constraints.cells))

    history: list[float] = []
    trace: list[dict[str, float]] = []
    converged = False
    sweeps = 0
    violation = _lockstep_violation(components)
    for sweeps in range(1, max_sweeps + 1):
        _lockstep(components, positions, _Component.margin_sweep)
        _lockstep(components, positions, _Component.subset_margin_sweep)
        _lockstep(components, positions, _Component.cell_sweep)
        violation = _lockstep_violation(components)
        history.append(violation)
        if record_trace:
            _write_back(model, components)
            model.a0 = scale * math.prod(c.model.a0 for c in components)
            trace.append(model.a_values())
        if violation < tol:
            converged = True
            break

    if not converged and require_convergence:
        raise ConvergenceError(
            f"IPF did not converge in {max_sweeps} sweeps "
            f"(max violation {violation:.3g}, tol {tol:.3g})"
        )
    _write_back(model, components)
    for component in components:
        component.model.normalize()
    model.a0 = math.prod(component.model.a0 for component in components)
    return FitResult(
        model=model,
        converged=converged,
        sweeps=sweeps,
        max_violation=violation,
        history=history,
        trace=trace,
        sweep_cells=sum(component.tensor.size for component in components),
    )


class _Component:
    """One connected component of the constraint graph.

    Holds the component's sub-model (from
    :meth:`~repro.maxent.model.MaxEntModel.component_models`: its share of
    the factors, with ``a0`` starting at 1 to collect the component's
    complement scalings), its share of the constraints and its tensor.
    """

    def __init__(self, model, constraints):
        schema = model.schema
        self.schema = schema
        self.model = model
        self.constraints = constraints.restricted(schema)
        self.tensor = model.unnormalized()
        self.slicers = {
            cell.key: _slicer(schema, cell.attributes, cell.values)
            for cell in self.constraints.cells
        }
        self.lead_sums = None

    def margin_sweep(self) -> None:
        _margin_sweep(
            self.tensor,
            self.constraints,
            self.model,
            self.schema,
            self.lead_sums,
        )

    def subset_margin_sweep(self) -> None:
        _subset_margin_sweep(self.tensor, self.constraints, self.model, self.schema)

    def cell_sweep(self) -> None:
        _cell_sweep(self.tensor, self.constraints, self.model, self.slicers)

    def violation(self) -> float:
        """This component's max violation; keeps its leading-axis sums."""
        violation, self.lead_sums = _max_violation(
            self.tensor, self.constraints, self.slicers, self.schema
        )
        return violation


def _lockstep(components, positions, sweep) -> None:
    """Run one sweep phase on every component.

    A structural conflict stops the fit.  If several components hit one,
    the conflict the dense sweep visits first is raised, so the error
    names the same constraint.
    """
    conflicts = []
    for component in components:
        try:
            sweep(component)
        except ConstraintError as error:
            conflicts.append(error)
    if conflicts:
        raise min(conflicts, key=lambda error: positions[error.constraint])


def _lockstep_violation(components) -> float:
    """Worst component violation, or the joint's mass error if bigger.

    A single component's violation already covers its mass.
    """
    worst = max(component.violation() for component in components)
    if len(components) > 1:
        mass = math.prod(float(c.tensor.sum()) for c in components)
        worst = max(worst, abs(mass - 1.0))
    return worst


def _write_back(model, components) -> None:
    """Copy the components' factors into ``model``'s existing keys."""
    for component in components:
        model.margin_factors.update(component.model.margin_factors)
        model.cell_factors.update(component.model.cell_factors)
        model.table_factors.update(component.model.table_factors)


def _conflict(message: str, constraint) -> ConstraintError:
    """A structural-conflict error tagged with the constraint it names."""
    error = ConstraintError(message)
    error.constraint = constraint
    return error


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
            raise _conflict(
                f"margin target P({attribute.name}={value}) > 0 but the "
                f"model assigns it zero mass (structural conflict)",
                attribute.name,
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
            raise _conflict(
                f"subset margin for {names} puts mass on a cell the model "
                f"assigns zero (structural conflict)",
                names,
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
            raise _conflict(
                f"cell target {cell.key} = {target} < 1 but the model "
                f"puts all its mass in that cell (structural conflict)",
                cell.key,
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
            raise _conflict(
                f"cell target {cell.key} = {target} > 0 but the model "
                f"assigns it zero mass (structural conflict)",
                cell.key,
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
