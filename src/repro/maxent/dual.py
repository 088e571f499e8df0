"""Convex dual solver: L-BFGS on the maximum-entropy dual.

The maxent problem the paper solves by fixed-point iteration has a convex
dual: with one Lagrange multiplier λ per constraint (Eq 8's ``w``'s, up to
sign), the distribution is ``p(x) ∝ exp(Σ λ_c f_c(x))`` and the optimal
multipliers minimize

    D(λ) = log Z(λ) − Σ_c λ_c b_c ,

whose gradient is ``E_p[f_c] − b_c`` — exactly the constraint violations.
Minimizing D with a quasi-Newton method (scipy's L-BFGS-B) therefore
reaches the same fixed point as IPF / the paper's Gauss–Seidel, usually in
far fewer function evaluations on ill-conditioned systems.  scipy is
imported when :func:`fit_dual` runs, not with the package: discovery never
calls this solver, and the library needs only numpy.

The recovered multipliers map directly onto the paper's ``a`` values:
``a_c = exp(λ_c)`` and ``a0 = 1/Z`` — so the result is returned as a
regular :class:`~repro.maxent.model.MaxEntModel`.

Limitations: zero-probability targets push multipliers to −∞; such
degenerate constraints are rejected here (fit them with
:func:`repro.maxent.ipf.fit_ipf`, whose multiplicative updates reach the
boundary exactly).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import (
    ConstraintError,
    ConvergenceError,
    MissingDependencyError,
)
from repro.maxent.constraints import ConstraintSet
from repro.maxent.ipf import FitResult
from repro.maxent.model import MaxEntModel


def fit_dual(
    constraints: ConstraintSet,
    tol: float = 1e-10,
    max_iterations: int = 500,
    require_convergence: bool = True,
) -> FitResult:
    """Fit the maxent model by minimizing the dual with L-BFGS-B.

    Parameters mirror :func:`repro.maxent.ipf.fit_ipf` where applicable;
    ``tol`` bounds the final maximum constraint violation (the gradient's
    infinity norm).  Raises :class:`MissingDependencyError` when scipy is
    not installed.
    """
    try:
        import scipy.optimize as optimize
    except ImportError as error:
        raise MissingDependencyError(
            "fit_dual needs scipy (scipy.optimize's L-BFGS-B), which is not "
            "installed; install scipy or fit with fit_ipf"
        ) from error
    constraints.validate_complete()
    schema = constraints.schema
    _reject_degenerate_targets(constraints)
    features, targets = _feature_masks(constraints)

    flat_features = features.reshape(features.shape[0], -1)

    def dual_and_gradient(lam: np.ndarray):
        scores = lam @ flat_features
        shift = scores.max()
        weights = np.exp(scores - shift)
        z = weights.sum()
        p = weights / z
        expectations = flat_features @ p
        # log Z(λ) = shift + log(sum exp(scores - shift)).
        value = shift + np.log(z) - lam @ targets
        gradient = expectations - targets
        return value, gradient

    initial = np.zeros(features.shape[0])
    result = optimize.minimize(
        dual_and_gradient,
        initial,
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": max_iterations,
            "ftol": 1e-16,
            "gtol": tol / 10.0,
        },
    )
    _value, gradient = dual_and_gradient(result.x)
    violation = float(np.abs(gradient).max())
    converged = violation < tol
    if not converged and require_convergence:
        raise ConvergenceError(
            f"dual solver did not reach tol {tol:.3g} "
            f"(violation {violation:.3g} after {result.nit} iterations)"
        )

    model = _model_from_multipliers(schema, constraints, result.x)
    return FitResult(
        model=model,
        converged=converged,
        sweeps=int(result.nit),
        max_violation=violation,
        history=[violation],
        trace=[],
    )


def _reject_degenerate_targets(constraints: ConstraintSet) -> None:
    """Boundary targets drive multipliers to ±∞; route them to fit_ipf."""
    message = (
        "the dual solver requires all constraint targets strictly inside "
        "(0, 1); fit degenerate targets with fit_ipf"
    )
    for name in constraints.schema.names:
        margin = constraints.margin(name)
        if (margin <= 0.0).any() or (margin >= 1.0).any():
            raise ConstraintError(message)
    for cell in constraints.cells:
        if not 0.0 < cell.probability < 1.0:
            raise ConstraintError(message)
    for table in constraints.subset_margins.values():
        if (table <= 0.0).any() or (table >= 1.0).any():
            raise ConstraintError(message)


def _feature_masks(
    constraints: ConstraintSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Indicator tensor per constraint and the target vector.

    For each attribute, all but the last value get a feature (the last is
    implied by normalization — keeping it would make the dual singular
    without changing the optimum).  Cell constraints and subset-margin
    cells get one feature each (subset margins likewise drop one cell).
    """
    schema = constraints.schema
    masks: list[np.ndarray] = []
    targets: list[float] = []
    for attribute in schema:
        margin = constraints.margin(attribute.name)
        axis = schema.axis(attribute.name)
        for value in range(attribute.cardinality - 1):
            mask = np.zeros(schema.shape)
            slicer: list[slice | int] = [slice(None)] * len(schema)
            slicer[axis] = value
            mask[tuple(slicer)] = 1.0
            masks.append(mask)
            targets.append(float(margin[value]))
    for cell in constraints.cells:
        mask = np.zeros(schema.shape)
        slicer = [slice(None)] * len(schema)
        for name, value in zip(cell.attributes, cell.values):
            slicer[schema.axis(name)] = value
        mask[tuple(slicer)] = 1.0
        masks.append(mask)
        targets.append(cell.probability)
    for names, table in constraints.subset_margins.items():
        axes = schema.axes(names)
        cells = list(np.ndindex(table.shape))
        for index in cells[:-1]:
            mask = np.zeros(schema.shape)
            slicer = [slice(None)] * len(schema)
            for axis, value in zip(axes, index):
                slicer[axis] = value
            mask[tuple(slicer)] = 1.0
            masks.append(mask)
            targets.append(float(table[index]))
    return np.stack(masks), np.array(targets)


def _model_from_multipliers(
    schema, constraints: ConstraintSet, lam: np.ndarray
) -> MaxEntModel:
    """Map dual multipliers back onto the paper's ``a`` factors."""
    position = 0
    margin_factors: dict[str, np.ndarray] = {}
    for attribute in schema:
        factors = np.ones(attribute.cardinality)
        for value in range(attribute.cardinality - 1):
            factors[value] = np.exp(lam[position])
            position += 1
        margin_factors[attribute.name] = factors
    cell_factors = {}
    for cell in constraints.cells:
        cell_factors[cell.key] = float(np.exp(lam[position]))
        position += 1
    table_factors: dict[tuple[str, ...], np.ndarray] = {}
    for names, table in constraints.subset_margins.items():
        array = np.ones(table.shape)
        cells = list(np.ndindex(table.shape))
        for index in cells[:-1]:
            array[index] = np.exp(lam[position])
            position += 1
        table_factors[names] = array
    model = MaxEntModel(
        schema, margin_factors, cell_factors, 1.0, table_factors
    )
    model.normalize()
    return model
