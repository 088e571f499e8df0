"""Damped Newton on the maximum-entropy dual: the library's fit.

The maxent problem the paper solves by fixed-point iteration has a convex
dual.  With one multiplier ``θ_j`` per constraint (Eq 8's ``w``'s, up to
sign) and the starting model ``q`` as base measure, the distribution is
``p(x) ∝ q(x) exp(Σ_j θ_j f_j(x))``, where ``f_j`` is constraint ``j``'s
indicator, and the optimal multipliers minimize

    D(θ) = log Z(θ) − θ·b ,

whose gradient ``Fᵀp − b`` is exactly the constraint violations and whose
Hessian ``Fᵀdiag(p)F − (Fᵀp)(Fᵀp)ᵀ`` is the model covariance of the
indicators (``F`` is the cells × constraints indicator matrix).  The
paper's Gauss–Seidel iteration (:mod:`repro.maxent.gevarter`) converges
linearly, as IPF does; Newton with a line search converges quadratically,
so a refit takes a handful of steps where they take dozens of sweeps.

:func:`fit_dual` returns a :class:`FitResult`:

- It fits per connected component of the constraint graph
  (:meth:`~repro.maxent.model.MaxEntModel.components`), each started from
  the ``initial`` factors: Figure 4's warm start.  A component that holds
  only a margin is set in closed form.
- Zero targets and structural conflicts are settled before any step (see
  :func:`fit_dual`).  The zeroed cells leave the problem; the features are
  the indicators of the remaining positive targets.  The last positive
  value of each margin and entry of each subset margin is implied by
  normalization, so it is only checked, never solved for.
- Before the first step, :func:`_check_feasible` rejects cell targets
  that no fit can meet under the margins; such a set would otherwise
  spend the whole budget before failing.
- The step solves the Newton system with a tiny ridge (covering features
  that coincide on the support), then backtracks until the dual meets the
  Armijo condition or the max violation halves.  The second rule keeps
  the last steps going where the dual's decrease is below float rounding.
- Once the max violation drops below ``tol`` the component takes one more
  step (unless it is already below ``tol / 1000``), which lands the fitted
  marginals within ~1e-13 of the exact solution.
- Each ``a`` factor is multiplied by ``exp(θ)`` and ``a0`` normalizes.
  The factors' gauge is not Gevarter's; the joint is the same.
- Running out of budget raises :class:`ConvergenceError`.

``max_sweeps`` budgets Newton iterations; ``FitResult.sweeps`` counts them
(components step in lockstep, so it is the most any component took).  The
indicator matrix is never held whole beyond :data:`_BLOCK` cells: larger
components rebuild it block by block, so the fit's memory beyond the
component tensor is ``O(block · k + k²)`` for ``k`` constraints.  Loops
run in insertion order, never over a set, so fits repeat across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConstraintError, ConvergenceError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.model import MaxEntModel

#: Cell targets at or above this are degenerate: they belong in margins.
_CELL_TARGET_CEILING = 1.0 - 1e-12

#: Most component cells one indicator block covers.
_BLOCK = 1 << 14

#: Ridge added to the Newton system, relative to its largest diagonal entry.
_RIDGE = 1e-13

#: Armijo's sufficient-decrease constant, and the line search's budget.
_ARMIJO = 1e-4
_HALVINGS = 40

#: Below ``tol`` times this, a component needs no polishing step.
_POLISH_FLOOR = 1e-3

#: Largest multiplier a step may reach.  Only an infeasible set's get near
#: it (a solution on the support's boundary meets ``tol = 1e-13`` near 30);
#: past it their ``exp`` factors would soon overflow.
_THETA_LIMIT = 100.0


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
        Newton iterations for :func:`fit_dual`; full sweeps for
        :func:`~repro.maxent.gevarter.fit_gevarter`.
    max_violation:
        Final maximum absolute constraint violation.
    history:
        Max violation after each iteration.
    trace:
        Optional per-sweep snapshots of all named ``a`` values (Table-2
        style); empty unless tracing was requested.
    sweep_cells:
        Tensor cells one iteration works on: the summed size of the
        per-component tensors (the whole joint when the constraint graph
        is connected).  0 from solvers that do not report it.
    cells_swept:
        Tensor cells the fit worked on: each Newton iteration adds its
        stepping components' sizes and each closed-form component adds its
        size once.  0 from solvers that do not report it.
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
    matters: the fits only update factors their constraints name, so a
    leftover factor from a constraint that is no longer imposed would
    survive the fit untouched and pull the fixed point away from the
    constraint set's maximum-entropy solution (the fit is the I-projection
    of its *starting* distribution).  Restricted this way, the warm start
    changes only the convergence speed, never the answer — which is what
    makes the incremental ``update()`` path equivalent to a cold refit.
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


def fit_dual(
    constraints: ConstraintSet,
    initial: MaxEntModel | None = None,
    tol: float = 1e-10,
    max_sweeps: int = 500,
    require_convergence: bool = True,
) -> FitResult:
    """Fit the maxent model satisfying ``constraints`` by Newton's method.

    Zero targets come first.  The factor behind each zero target (a margin
    value, a subset-margin entry, a cell) is set to exactly 0, and so is
    every cell it covers; the fit keeps them there.  The targets are then
    visited twice in dense IPF's order, margins in schema order, then
    subset margins, then cells: the first visit zeroes as it goes, the
    second sees every zero.  The first positive target met with no mass
    left under it, or a cell met holding all the mass that is left,
    raises :class:`ConstraintError` naming it.  Those are the conflicts,
    in that precedence, that IPF's first two sweeps meet.

    Parameters
    ----------
    constraints:
        Complete constraint set (every attribute must have a margin).
    initial:
        Warm-start model; defaults to the all-ones factor model.  Warm
        starts make the discovery loop's repeated refits cheap, mirroring
        the paper's "starting with the last previously calculated a
        values".  Build it with :func:`warm_start_model` when the
        constraint set changed, so stale factors cannot shift the fixed
        point.
    tol:
        Convergence threshold on the max absolute constraint violation.
    max_sweeps:
        Newton-iteration budget.
    require_convergence:
        If True (default) raise :class:`ConvergenceError` when the budget is
        exhausted or the steps stall (the line search finds no descent,
        or a multiplier passes :data:`_THETA_LIMIT`); otherwise return the
        best-effort result.
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

    parts, tensors = _split(model)
    if model.a0 * math.prod(float(t.sum()) for t in tensors) <= 0:
        raise ConstraintError("initial model has zero total mass")
    if _settle_zeros(model, parts, tensors, constraints):
        parts, tensors = _split(model)
    _check_feasible(constraints, tol)

    violation = 0.0
    cells_swept = 0
    shares = [1.0] * len(parts)  # each component's share of a0
    components = []
    homes = []  # the position of each coupled component in parts
    for index, (part, tensor) in enumerate(zip(parts, tensors)):
        if _is_single(part):
            shares[index], margin_violation = _set_margin(
                model, part[0][0], constraints
            )
            violation = max(violation, margin_violation)
            cells_swept += tensor.size
        else:
            components.append(_Component(model, part, tensor, constraints, tol))
            homes.append(index)

    history: list[float] = []
    sweeps = 0
    active = [component for component in components if not component.done]
    while active and sweeps < max_sweeps:
        sweeps += 1
        for component in active:
            component.step()
            cells_swept += component.size
        history.append(
            max([violation] + [c.point.violation for c in components])
        )
        active = [component for component in active if not component.done]
    violation = max([violation] + [c.point.violation for c in components])
    converged = violation < tol
    if not converged and require_convergence:
        stalled = any(component.stalled for component in components)
        raise ConvergenceError(
            f"Newton fit did not converge "
            f"{'(stalled) ' if stalled else ''}"
            f"in {sweeps} iterations (max violation {violation:.3g}, "
            f"tol {tol:.3g})"
        )

    for index, component in zip(homes, components):
        shares[index] = component.write_factors()
    model.a0 = math.prod(shares)
    return FitResult(
        model=model,
        converged=converged,
        sweeps=sweeps,
        max_violation=violation,
        history=history,
        sweep_cells=sum(tensor.size for tensor in tensors),
        cells_swept=cells_swept,
    )


def _split(model: MaxEntModel):
    """``(names, cell factors, table factors)`` per constraint-graph
    component of ``model``, and each one's unnormalized tensor.

    The factors are ``model``'s own, which the fit writes in place.  A
    one-attribute component's tensor is its margin factor."""
    parts = model._split()
    tensors = [
        model.margin_factors[part[0][0]]
        if _is_single(part)
        else model._product(*part)
        for part in parts
    ]
    return parts, tensors


def _settle_zeros(model, parts, tensors, constraints) -> bool:
    """Zero the factor behind every zero target and raise the structural
    conflicts, in :func:`fit_dual`'s precedence; True if a component
    tensor now holds a zero cell.

    Works on each component's support (its cells of positive mass).  Only
    a component holding a zero cell can hold a conflict, so without zeros
    this costs one comparison per target.
    """
    supports = [tensor > 0 for tensor in tensors]
    full = [bool(support.all()) for support in supports]
    home = {}  # attribute -> (component, axis)
    for index, (names, _, _) in enumerate(parts):
        home.update((name, (index, axis)) for axis, name in enumerate(names))
    schema = constraints.schema
    # Margins, then subset margins: each a table over its names.
    tables = [((name,), constraints.margin(name)) for name in schema.names]
    tables.extend(constraints.subset_margins.items())
    for _ in range(2):
        for position, (names, target) in enumerate(tables):
            index = home[names[0]][0]
            if full[index] and target.all():
                continue
            zero = target == 0
            support = supports[index]
            axes = [home[name][1] for name in names]
            others = tuple(a for a in range(support.ndim) if a not in axes)
            if not full[index]:
                empty = ~support.any(axis=others) & ~zero
                if empty.any() and position < len(schema):
                    raise ConstraintError(
                        f"margin target P({names[0]}={np.flatnonzero(empty)[0]}) > 0 "
                        f"but the model assigns it zero mass (structural conflict)"
                    )
                if empty.any():
                    raise ConstraintError(
                        f"subset margin for {names} puts mass on a cell the "
                        f"model assigns zero (structural conflict)"
                    )
            if zero.any():
                if position < len(schema):
                    model.margin_factors[names[0]][zero] = 0.0
                else:
                    model.table_factors[names] = np.where(
                        zero, 0.0, model.table_factors[names]
                    )
                support &= ~np.expand_dims(zero, others)
                full[index] = False
        for cell in constraints.cells:
            index = home[cell.attributes[0]][0]
            target = cell.probability
            if full[index] and target > 0.0:
                continue
            support = supports[index]
            at = {home[n][1]: v for n, v in zip(cell.attributes, cell.values)}
            slicer = tuple(at.get(a, slice(None)) for a in range(support.ndim))
            if not full[index]:
                count = np.count_nonzero(support[slicer])
                if count == np.count_nonzero(support):
                    # Nothing is left outside the cell to carry 1 - target.
                    raise ConstraintError(
                        f"cell target {cell.key} = {target} < 1 but the model "
                        f"puts all its mass in that cell (structural conflict)"
                    )
                if target > 0.0 and not count:
                    raise ConstraintError(
                        f"cell target {cell.key} = {target} > 0 but the model "
                        f"assigns it zero mass (structural conflict)"
                    )
            if target == 0.0:
                model.cell_factors[cell.key] = 0.0
                support[slicer] = False
                full[index] = False
        if all(full):
            return False
    return True


def _check_feasible(constraints: ConstraintSet, tol: float) -> None:
    """Raise :class:`ConstraintError` when the cells' targets cannot fit
    under the margins, before any Newton step is spent on them.

    A cell is contained in the margin value of each of its attributes, and
    it contains all but the complements of those values: for ``k``
    attributes its probability is at least ``Σᵢ P(Aᵢ=vᵢ) − (k−1)``, the
    Fréchet bound.  Cells on one attribute set that share a value of one
    attribute are disjoint events inside that value.  A fit meeting every
    target to within ``tol`` misses each bound by at most ``tol`` for each
    target in it, so an excess beyond that float tolerance means no fit
    can converge.  One pass over the cells.
    """
    groups: dict[tuple, list] = {}  # (attributes, name, value) -> [margin, sum, keys]
    for cell in constraints.cells:
        target = cell.probability
        lowest = 1.0 - len(cell.attributes)
        for name, value in zip(cell.attributes, cell.values):
            margin = float(constraints.margin(name)[value])
            if target - margin > 2 * tol:
                raise ConstraintError(
                    f"cell constraint {cell.key} has target "
                    f"{target:.6g}, above the margin "
                    f"P({name}={value}) = {margin:.6g} that contains it"
                )
            lowest += margin
            group = groups.setdefault((cell.attributes, name, value), [margin, 0.0, []])
            group[1] += target
            group[2].append(cell.key)
        if lowest - target > (len(cell.attributes) + 1) * tol:
            raise ConstraintError(
                f"cell constraint {cell.key} has target {target:.6g}, "
                f"below {lowest:.6g}, the least its margins leave it "
                f"(Fréchet bound)"
            )
    for (_, name, value), (margin, total, keys) in groups.items():
        if total - margin > (len(keys) + 1) * tol:
            raise ConstraintError(
                f"cell constraints {keys} share {name}={value} but their "
                f"targets sum to {total:.6g}, above its margin {margin:.6g}"
            )


def _is_single(part) -> bool:
    """Whether a component holds one attribute and no other factor."""
    names, cells, tables = part
    return len(names) == 1 and not cells and not tables


def _set_margin(model, name, constraints) -> tuple[float, float]:
    """Fit a one-attribute component in closed form: its ``a0`` share and
    max violation."""
    target = constraints.margin(name)
    model.margin_factors[name] = target.copy()
    total = float(target.sum())
    return 1.0 / total, float(np.abs(target / total - target).max())


class _Point:
    """The dual, the fitted distribution and the violations at ``theta``."""

    __slots__ = ("theta", "dual", "p", "expected", "gradient", "violation")

    def __init__(self, theta, dual, p, expected, gradient):
        self.theta = theta
        self.dual = dual
        self.p = p
        self.expected = expected
        self.gradient = gradient
        self.violation = float(np.abs(gradient).max()) if len(gradient) else 0.0


class _Component:
    """Newton's state for one coupled component of the constraint graph.

    ``part`` is the component's ``(names, cell factors, table factors)``
    in ``model``, whose factors the fit writes in place.  The base measure
    is the component's (zeroed) starting tensor, normalized, on its
    support.  ``features`` lists, per positive target, the factor it
    scales, the ``(axis, value)`` pairs of the cells it covers and the
    target; the first ``free`` of them are solved for, the rest only
    checked.
    """

    def __init__(self, model, part, tensor, constraints, tol):
        self.model = model
        self.names, self.cells, self.tables = part
        self.size = tensor.size
        self.shape = tensor.shape
        self.mass = float(tensor.sum())
        flat = tensor.ravel()
        self.support = np.flatnonzero(flat > 0)
        base = flat[self.support]
        self.log_base = np.log(base / base.sum())

        axis_of = {name: axis for axis, name in enumerate(self.names)}
        free: list[tuple] = []
        checked: list[tuple] = []
        for name, axis in axis_of.items():
            target = constraints.margin(name).tolist()
            values = [value for value, share in enumerate(target) if share > 0]
            for value in values:
                feature = (("margin", name, value), ((axis, value),), target[value])
                (free if value != values[-1] else checked).append(feature)
        for names, target in constraints.subset_margins.items():
            if names[0] not in axis_of:
                continue
            axes = [axis_of[name] for name in names]
            entries = [tuple(entry) for entry in np.argwhere(target > 0).tolist()]
            for entry in entries:
                feature = (
                    ("table", names, entry),
                    tuple(zip(axes, entry)),
                    float(target[entry]),
                )
                (free if entry != entries[-1] else checked).append(feature)
        for cell in constraints.cells:
            if cell.probability > 0.0 and cell.attributes[0] in axis_of:
                names, values = cell.key
                pairs = tuple(zip([axis_of[name] for name in names], values))
                free.append((("cell", cell.key, None), pairs, cell.probability))
        self.features = free + checked
        self.free = len(free)
        self.targets = np.array([target for _, _, target in self.features])
        # Each feature's (axis, value) pairs, padded to a common width with
        # a pair on an extra all-zero coordinate, which every cell meets.
        width = max(len(pairs) for _, pairs, _ in self.features)
        pad = ((len(self.shape), 0),)
        pairs = np.array(
            [pairs + pad * (width - len(pairs)) for _, pairs, _ in self.features]
        )
        self.pair_axes = pairs[:, :, 0]
        self.pair_values = pairs[:, :, 1:]
        self.bounds = [
            (start, min(start + _BLOCK, len(self.support)))
            for start in range(0, len(self.support), _BLOCK)
        ]
        self._single = (
            self._indicators(0, len(self.support))
            if len(self.bounds) == 1
            else None
        )
        self.tol = tol
        self.point = self._evaluate(np.zeros(len(self.features)))
        self.stalled = False
        self.done = self.point.violation < _POLISH_FLOOR * tol

    def _indicators(self, start, stop) -> np.ndarray:
        """The indicators of support cells ``start:stop``, one row per
        feature (``Fᵀ``'s columns ``start:stop``)."""
        coords = np.zeros((len(self.shape) + 1, stop - start), dtype=np.intp)
        coords[:-1] = np.unravel_index(self.support[start:stop], self.shape)
        inside = coords[self.pair_axes] == self.pair_values
        return inside.all(axis=1).astype(float)

    def _blocks(self):
        for start, stop in self.bounds:
            if self._single is not None:
                yield start, stop, self._single
            else:
                yield start, stop, self._indicators(start, stop)

    def _evaluate(self, theta) -> _Point:
        scores = self.log_base.copy()
        for start, stop, block in self._blocks():
            scores[start:stop] += theta @ block
        shift = scores.max()
        weights = np.exp(scores - shift)
        total = weights.sum()
        p = weights / total
        expected = np.zeros(len(self.features))
        for start, stop, block in self._blocks():
            expected += block @ p[start:stop]
        dual = float(shift + math.log(total) - theta @ self.targets)
        return _Point(theta, dual, p, expected, expected - self.targets)

    def _hessian(self) -> np.ndarray:
        free = self.free
        point = self.point
        hessian = np.zeros((free, free))
        for start, stop, block in self._blocks():
            block = block[:free]
            hessian += (block * point.p[start:stop]) @ block.T
        mean = point.expected[:free]
        hessian -= np.outer(mean, mean)
        return hessian

    def step(self) -> None:
        """One damped Newton step; updates ``point``, ``done`` and
        ``stalled``."""
        point = self.point
        below = point.violation < self.tol
        direction = None
        if self.free:
            hessian = self._hessian()
            hessian.flat[:: self.free + 1] += _RIDGE * hessian.diagonal().max()
            try:
                direction = np.linalg.solve(hessian, -point.gradient[: self.free])
            except np.linalg.LinAlgError:
                direction = None
        if direction is None or not np.isfinite(direction).all():
            self.stalled = self.done = True
            return
        slope = float(point.gradient[: self.free] @ direction)
        alpha = 1.0
        for _ in range(_HALVINGS):
            theta = point.theta.copy()
            theta[: self.free] += alpha * direction
            trial = self._evaluate(theta)
            if (
                trial.dual <= point.dual + _ARMIJO * alpha * slope
                or trial.violation <= 0.5 * point.violation
            ):
                break
            alpha *= 0.5
        else:
            trial = None
        if trial is None or np.abs(trial.theta).max() > _THETA_LIMIT:
            # No descent, or diverging: a set with no fit; factors stay finite.
            self.stalled = self.done = True
            return
        self.point = trial
        violation = self.point.violation
        self.done = violation < _POLISH_FLOOR * self.tol or (
            below and violation < self.tol
        )

    def write_factors(self) -> float:
        """Multiply each solved-for factor by ``exp(θ)``; return the
        component's share of ``a0`` (one over its mass)."""
        model = self.model
        if not self.point.theta.any():
            # Nothing moved: the starting mass stands.
            return 1.0 / self.mass
        scales = np.exp(self.point.theta)
        for ((kind, key, index), _, _), scale in zip(
            self.features[: self.free], scales
        ):
            if kind == "margin":
                model.margin_factors[key][index] *= scale
            elif kind == "table":
                model.table_factors[key][index] *= scale
            else:
                model.cell_factors[key] *= float(scale)
        cells = {key: model.cell_factors[key] for key in self.cells}
        mass = float(model._product(self.names, cells, self.tables).sum())
        if mass <= 0:
            raise ConstraintError("model has zero total mass")
        return 1.0 / mass
