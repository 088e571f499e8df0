"""Iterative proportional fitting of the factored maxent model.

One sweep applies, for every constraint, the exact multiplicative update
that makes the model satisfy that constraint while leaving its factored
form intact:

- a first-order margin scales each value slice by ``target / current``
  (classic IPF; total mass is preserved because targets sum to 1);
- a cell constraint scales the cell slice by ``p / s`` and the complement
  by ``(1 - p) / (1 - s)`` — the IPF step for the binary partition
  {cell, complement}, which is the cell's indicator feature plus
  normalization.

Factor bookkeeping keeps the paper's ``a`` values exact: every slice scaling
multiplies the corresponding ``a`` factor, and complement scalings are
absorbed into ``a0``.  This converges to the same fixed point as the paper's
Gauss–Seidel scheme (:mod:`repro.maxent.gevarter`); the tests assert so.

The fit runs per connected component of the *constraint graph*
(:meth:`~repro.maxent.model.MaxEntModel.components`): attributes are its
nodes, and every cell or table factor the model carries (each cell
constraint and subset margin has one) joins the attributes it names.  By
the product form (Eq 12), attributes in different components are
independent factors — the observation the paper's Appendix B recursion
exploits — so the joint is the outer product of one small tensor per
component, and each update touches only its own component's tensor.  Every
component tensor is scaled to mass 1 up front (the scale goes to ``a0``,
as the joint's normalization would put it) and every update keeps it
there, so a component's sums equal the joint's marginal sums and the
``2^n`` joint is never built.  A connected constraint set is one component:
the plain dense sweep.

Components sweep in lockstep, phase by phase: first-order margins, subset
margins, cells, then the convergence check.  The global violation is the
worst component violation or ``|prod(component masses) - 1|``, whichever
is bigger, so ``sweeps``, ``history``, convergence and
:class:`ConvergenceError` mean what they mean on the dense joint.  When
several components hit a structural conflict in one phase, the one the
dense sweep would have met first is raised.

Only components that move are swept.  A margin or subset ratio of exactly
1 everywhere, or a cell whose inside and outside ratios are both exactly
1, skips its multiply: multiplying by 1.0 is the identity in IEEE-754.  A
sweep is a deterministic function of the component's tensor and
constraints (its leading-axis sums come from that same tensor), so a
component whose whole sweep multiplied nothing would repeat that
forever: it is *frozen* for the rest of the fit.  Later sweeps skip it and
the convergence check reuses its last violation and mass; it cannot raise
a conflict, having already swept once from the same state without one.
The fit is therefore bit-identical to sweeping every component every time
(a frozen lockstep oracle in the tests holds it to that), and the
single-attribute components that reach their margins in the first sweep
stop costing anything while the coupled ones converge.

The fit contract, tested against a frozen dense oracle:

- adopted constraints and sweep counts are identical across the scenario
  fleet;
- the fitted joint is within 1e-12 of the dense fit's;
- fits are deterministic across processes.  Every loop runs in insertion
  order (margins in schema order, cells and subset margins in dict order)
  and never over a set, since float products do not reassociate and a
  set's order follows ``PYTHONHASHSEED``.

Sweeps are allocation-lean: each component tensor is created once and every
scaling happens in place.  The first-order sums the convergence check
measures on a component's leading axis are handed to the next sweep, whose
leading axis would otherwise recompute them on the unchanged tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConstraintError, ConvergenceError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.model import MaxEntModel

_CELL_TARGET_CEILING = 1.0 - 1e-12


@dataclass
class FitResult:
    """Outcome of an iterative fit.

    Attributes
    ----------
    model:
        The fitted model (normalized).
    converged:
        True if the max constraint violation dropped below tolerance.
    sweeps:
        Number of full sweeps performed; Newton iterations for
        :func:`~repro.maxent.dual.fit_dual`.
    max_violation:
        Final maximum absolute constraint violation.
    history:
        Max violation after each sweep.
    trace:
        Optional per-sweep snapshots of all named ``a`` values (Table-2
        style); empty unless tracing was requested.
    sweep_cells:
        Tensor cells one sweep works on: the summed size of the
        per-component tensors (the whole joint when the constraint graph
        is connected).  0 from solvers that do not report it.
    cells_swept:
        Tensor cells the sweeps actually worked on: each sweep adds the
        sizes of the components it ran, so a component frozen at a fixed
        point stops counting.  For :func:`~repro.maxent.dual.fit_dual`
        each Newton iteration adds its components' sizes and each
        closed-form component adds its size once.  0 from solvers that do
        not report it.
    """

    model: MaxEntModel
    converged: bool
    sweeps: int
    max_violation: float
    history: list[float] = field(default_factory=list)
    trace: list[dict[str, float]] = field(default_factory=list)
    sweep_cells: int = 0
    cells_swept: int = 0


def warm_start_model(
    constraints: ConstraintSet, previous: MaxEntModel
) -> MaxEntModel:
    """Initial model for re-fitting ``constraints`` from an earlier fit.

    Keeps the previous margin factors and every cell/table factor that is
    backed by a constraint in the new set, and *drops* the rest.  The drop
    matters: the iterative solvers only update factors their constraints
    name, so a leftover factor from a constraint that is no longer imposed
    would survive the fit untouched and pull the fixed point away from the
    constraint set's maximum-entropy solution (IPF converges to the
    I-projection of its *starting* distribution).  Restricted this way, the
    warm start changes only the convergence speed, never the answer —
    which is what makes the incremental ``update()`` path equivalent to a
    cold refit.
    """
    model = previous.copy()
    keys = constraints.cell_keys()
    model.cell_factors = {
        key: factor
        for key, factor in model.cell_factors.items()
        if key in keys
    }
    subsets = set(constraints.subset_margins)
    model.table_factors = {
        names: array
        for names, array in model.table_factors.items()
        if names in subsets
    }
    return model


def fit_ipf(
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
    cells_swept = 0
    violation = _lockstep_violation(components)
    for sweeps in range(1, max_sweeps + 1):
        active = [component for component in components if not component.frozen]
        _lockstep(active, positions, _Component.margin_sweep)
        _lockstep(active, positions, _Component.subset_margin_sweep)
        _lockstep(active, positions, _Component.cell_sweep)
        for component in active:
            component.frozen = not component.moved
            cells_swept += component.tensor.size
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
        cells_swept=cells_swept,
    )


class _Component:
    """One connected component of the constraint graph.

    Holds the component's sub-model (from
    :meth:`~repro.maxent.model.MaxEntModel.component_models`: its share of
    the factors, with ``a0`` starting at 1 to collect the component's
    complement scalings), its tensor, and its sweep plan: per margin and
    subset margin the target, the axes summed away and the ratio's
    broadcast shape; per cell its slicer.  ``moved`` says whether the
    current sweep changed anything; ``frozen`` marks a component whose
    last sweep did not (see the module docstring).
    """

    def __init__(self, model, constraints):
        schema = model.schema
        constraints = constraints.restricted(schema)
        self.model = model
        self.tensor = model.unnormalized()
        self.margins = [
            _plan(schema, (axis,), attribute.name, constraints.margin(attribute.name))
            for axis, attribute in enumerate(schema)
        ]
        self.subsets = [
            _plan(schema, schema.axes(names), names, target)
            for names, target in constraints.subset_margins.items()
        ]
        self.cells = [
            (cell, _slicer(schema, cell.attributes, cell.values))
            for cell in constraints.cells
        ]
        self.lead_sums = None
        self.last_violation = self.mass = 0.0
        self.moved = self.frozen = False

    def margin_sweep(self) -> None:
        self.moved = _margin_sweep(
            self.tensor, self.margins, self.model, self.lead_sums
        )

    def subset_margin_sweep(self) -> None:
        self.moved |= _subset_margin_sweep(self.tensor, self.subsets, self.model)

    def cell_sweep(self) -> None:
        self.moved |= _cell_sweep(self.tensor, self.cells, self.model)

    def violation(self) -> float:
        """This component's max violation; keeps its leading-axis sums.

        A frozen component's tensor is the one its last check measured,
        so that check's violation and mass stand.
        """
        if not self.frozen:
            self.last_violation, self.lead_sums, self.mass = _max_violation(
                self.tensor, self.margins, self.subsets, self.cells
            )
        return self.last_violation


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
        mass = math.prod(component.mass for component in components)
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


def _plan(schema, axes, key, target) -> tuple:
    """``(key, target, other_axes, shape)`` for a margin over ``axes``."""
    other_axes = tuple(a for a in range(len(schema)) if a not in axes)
    shape = [1] * len(schema)
    for axis in axes:
        shape[axis] = schema.attributes[axis].cardinality
    return key, target, other_axes, tuple(shape)


def _ratio(target, current):
    """``target / current`` where ``current`` is positive, else 0.

    ``None`` when a positive target meets zero mass: a structural
    conflict, which the caller raises.
    """
    positive = current > 0
    if positive.all():
        return target / current
    if (target[~positive] > 0).any():
        return None
    ratio = np.zeros_like(current)
    ratio[positive] = target[positive] / current[positive]
    return ratio


def _margin_sweep(tensor, margins, model, lead_sums) -> bool:
    """One in-place pass over the first-order margins; True if it moved.

    ``lead_sums`` is the leading axis's raw margin sums as last measured
    by :func:`_max_violation`; the tensor has not changed since, so the
    reduction is reused instead of recomputed.  Later axes always
    recompute — the tensor changes under them during the sweep.  A ratio
    of exactly 1 everywhere skips its multiply, an identity in IEEE-754.
    """
    moved = False
    for axis, (name, target, other_axes, shape) in enumerate(margins):
        if axis == 0 and lead_sums is not None:
            current = lead_sums
        else:
            current = tensor.sum(axis=other_axes)
        ratio = _ratio(target, current)
        if ratio is None:
            value = int(np.flatnonzero(~(current > 0) & (target > 0))[0])
            raise _conflict(
                f"margin target P({name}={value}) > 0 but the "
                f"model assigns it zero mass (structural conflict)",
                name,
            )
        if (ratio == 1.0).all():
            continue
        tensor *= ratio.reshape(shape)
        model.margin_factors[name] *= ratio
        moved = True
    return moved


def _subset_margin_sweep(tensor, subsets, model) -> bool:
    moved = False
    for names, target, other_axes, shape in subsets:
        ratio = _ratio(target, tensor.sum(axis=other_axes))
        if ratio is None:
            raise _conflict(
                f"subset margin for {names} puts mass on a cell the model "
                f"assigns zero (structural conflict)",
                names,
            )
        if (ratio == 1.0).all():
            continue
        tensor *= ratio.reshape(shape)
        model.table_factors[names] = model.table_factors[names] * ratio
        moved = True
    return moved


def _cell_sweep(tensor, cells, model) -> bool:
    moved = False
    for cell, slicer in cells:
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
                moved = True
            continue
        if share <= 0.0:
            raise _conflict(
                f"cell target {cell.key} = {target} > 0 but the model "
                f"assigns it zero mass (structural conflict)",
                cell.key,
            )
        ratio_in = target / share
        ratio_out = (1.0 - target) / (1.0 - share)
        if ratio_in == 1.0 and ratio_out == 1.0:
            continue
        tensor *= ratio_out
        tensor[slicer] *= ratio_in / ratio_out
        model.cell_factors[cell.key] *= ratio_in / ratio_out
        model.a0 *= ratio_out
        moved = True
    return moved


def _max_violation(tensor, margins, subsets, cells) -> tuple:
    """Max absolute constraint violation, the leading axis's raw sums and
    the tensor's mass.

    The returned sums let the next :func:`_margin_sweep` skip its first
    reduction (the tensor is untouched between the check and the sweep).
    """
    total = float(tensor.sum())
    worst = abs(total - 1.0)
    lead_sums = None
    for axis, (_, target, other_axes, _) in enumerate(margins):
        raw = tensor.sum(axis=other_axes)
        if axis == 0:
            lead_sums = raw
        current = raw / total
        worst = max(worst, float(np.abs(current - target).max()))
    for _, target, other_axes, _ in subsets:
        current = tensor.sum(axis=other_axes) / total
        worst = max(worst, float(np.abs(current - target).max()))
    for cell, slicer in cells:
        share = float(tensor[slicer].sum()) / total
        worst = max(worst, abs(share - cell.probability))
    return worst, lead_sums, total
