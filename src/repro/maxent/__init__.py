"""Maximum-entropy engine: factored model, constraints, solvers, queries."""

from repro.maxent.constraints import CellConstraint, ConstraintSet
from repro.maxent.dual import FitResult, fit_dual
from repro.maxent.gevarter import fit_gevarter
from repro.maxent.model import FactoredJoint, MaxEntModel

__all__ = [
    "CellConstraint",
    "ConstraintSet",
    "FactoredJoint",
    "FitResult",
    "MaxEntModel",
    "fit_dual",
    "fit_gevarter",
]
