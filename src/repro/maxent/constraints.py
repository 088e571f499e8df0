"""Probability constraints for the maximum-entropy model.

The paper distinguishes two kinds of constraints:

- **First-order margins** (Eq 48): the full probability vector of each
  attribute, ``p_i^A = N_i^A / N``.  These are always imposed.
- **Cell constraints**: single cells of higher-order marginals found
  significant, e.g. ``p^AC(A=1, C=2) = N^AC_12 / N = .219``.  Each adds one
  multiplicative ``a`` factor to the model (Eq 12); insignificant cells keep
  ``a = 1`` (Eq 116).

A :class:`ConstraintSet` bundles both and validates consistency.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.contingency import ContingencyTable
from repro.data.schema import Schema
from repro.exceptions import ConstraintError

#: Key identifying a cell constraint: (canonical subset names, value indices).
CellKey = tuple[tuple[str, ...], tuple[int, ...]]


def cellkey_to_dict(key: CellKey) -> dict:
    """JSON-ready form of a cell key; the one encoding every format uses."""
    names, values = key
    return {"attributes": list(names), "values": list(values)}


def cellkey_from_dict(data: dict) -> CellKey:
    """Inverse of :func:`cellkey_to_dict`."""
    return (
        tuple(data["attributes"]),
        tuple(int(value) for value in data["values"]),
    )


@dataclass(frozen=True)
class CellConstraint:
    """One marginal-cell probability constraint.

    Parameters
    ----------
    attributes:
        Attribute names of the marginal, in canonical (schema) order.
    values:
        Value indices, aligned with ``attributes``.
    probability:
        Target marginal probability in ``[0, 1]``.
    """

    attributes: tuple[str, ...]
    values: tuple[int, ...]
    probability: float

    def __post_init__(self) -> None:
        if len(self.attributes) != len(self.values):
            raise ConstraintError(
                f"attributes {self.attributes} and values {self.values} "
                f"have different lengths"
            )
        if len(self.attributes) < 2:
            raise ConstraintError(
                "cell constraints are for order >= 2; first-order margins "
                "are handled as whole vectors"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConstraintError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    @property
    def order(self) -> int:
        """Number of attributes in the constrained marginal."""
        return len(self.attributes)

    @property
    def key(self) -> CellKey:
        """Hashable identity of the constrained cell."""
        return (self.attributes, self.values)

    def matches(self, schema: Schema, index: tuple[int, ...]) -> bool:
        """True if joint cell ``index`` (full tensor index) lies in this cell."""
        for name, value in zip(self.attributes, self.values):
            if index[schema.axis(name)] != value:
                return False
        return True

    def describe(self, schema: Schema) -> str:
        """Human-readable form, e.g. ``P(SMOKING=smoker, FH=no) = 0.219``."""
        parts = ", ".join(
            f"{name}={schema.attribute(name).value_at(value)}"
            for name, value in zip(self.attributes, self.values)
        )
        return f"P({parts}) = {self.probability:.4f}"


class ConstraintSet:
    """First-order margins plus cell and/or subset-marginal constraints.

    Margins are stored per attribute as probability vectors summing to 1.
    Cell constraints are kept in insertion order (the discovery engine adds
    them most-significant first, and the Gevarter solver visits them in that
    order).

    Subset-marginal constraints fix a *whole* marginal table over an
    attribute subset (Cheeseman's 1983 parameterization, the classical
    log-linear model family) rather than the paper's single cells; they are
    used by the :mod:`repro.baselines.loglinear` comparator.
    """

    def __init__(self, schema: Schema):
        self.schema = schema
        self._margins: dict[str, np.ndarray] = {}
        self._cells: dict[CellKey, CellConstraint] = {}
        self._subset_margins: dict[tuple[str, ...], np.ndarray] = {}

    # -- construction -------------------------------------------------------------

    @classmethod
    def first_order(cls, table: ContingencyTable) -> "ConstraintSet":
        """Margins taken from a table's first-order probabilities (Eq 48)."""
        constraints = cls(table.schema)
        for attribute in table.schema:
            constraints.set_margin(
                attribute.name, table.first_order_probabilities(attribute.name)
            )
        return constraints

    def set_margin(self, name: str, probabilities: Sequence[float]) -> None:
        """Impose the full first-order probability vector of an attribute."""
        attribute = self.schema.attribute(name)
        vector = np.asarray(probabilities, dtype=float)
        if vector.shape != (attribute.cardinality,):
            raise ConstraintError(
                f"margin for {name!r} must have length "
                f"{attribute.cardinality}, got shape {vector.shape}"
            )
        if (vector < 0).any():
            raise ConstraintError(f"margin for {name!r} has negative entries")
        total = vector.sum()
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ConstraintError(
                f"margin for {name!r} must sum to 1, sums to {total}"
            )
        self._margins[name] = vector

    def add_cell(self, constraint: CellConstraint) -> None:
        """Add a cell constraint, validating subset and value ranges."""
        canonical = self.schema.canonical_subset(constraint.attributes)
        if canonical != constraint.attributes:
            raise ConstraintError(
                f"cell constraint attributes {constraint.attributes} are not "
                f"in canonical schema order {canonical}"
            )
        for name, value in zip(constraint.attributes, constraint.values):
            attribute = self.schema.attribute(name)
            if not 0 <= value < attribute.cardinality:
                raise ConstraintError(
                    f"value index {value} out of range for {name!r}"
                )
        if constraint.key in self._cells:
            raise ConstraintError(
                f"duplicate cell constraint for {constraint.key}"
            )
        self._check_cell_consistency(constraint)
        self._cells[constraint.key] = constraint

    def cell_from_table(
        self,
        table: ContingencyTable,
        attributes: Sequence[str],
        values: Sequence[int],
    ) -> CellConstraint:
        """Build a cell constraint whose target is the table's observed value.

        This is the discovery loop's move: a significant observed ``N`` cell
        becomes the constraint ``p = N_cell / N``.
        """
        names = self.schema.canonical_subset(attributes)
        order = {n: i for i, n in enumerate(attributes)}
        ordered_values = tuple(values[order[n]] for n in names)
        marginal = table.marginal(names)
        probability = float(marginal[ordered_values]) / table.total
        return CellConstraint(names, ordered_values, probability)

    def set_subset_margin(
        self, names: Sequence[str], probabilities: np.ndarray
    ) -> None:
        """Impose the full marginal table over an attribute subset.

        The array must be laid out in schema order over the subset's axes
        and sum to 1.  Its own single-attribute sums must agree with any
        first-order margins already set (otherwise the constraint system is
        inconsistent and no distribution satisfies it).
        """
        ordered = self.schema.canonical_subset(names)
        if len(ordered) < 2:
            raise ConstraintError(
                "subset margins are for order >= 2; use set_margin for "
                "single attributes"
            )
        expected_shape = tuple(
            self.schema.attribute(n).cardinality for n in ordered
        )
        array = np.asarray(probabilities, dtype=float)
        if array.shape != expected_shape:
            raise ConstraintError(
                f"subset margin for {ordered} must have shape "
                f"{expected_shape}, got {array.shape}"
            )
        if (array < 0).any():
            raise ConstraintError(
                f"subset margin for {ordered} has negative entries"
            )
        if not np.isclose(array.sum(), 1.0, atol=1e-9):
            raise ConstraintError(
                f"subset margin for {ordered} must sum to 1, "
                f"sums to {array.sum()}"
            )
        for axis, name in enumerate(ordered):
            if name not in self._margins:
                continue
            other_axes = tuple(a for a in range(len(ordered)) if a != axis)
            implied = array.sum(axis=other_axes)
            if not np.allclose(implied, self._margins[name], atol=1e-6):
                raise ConstraintError(
                    f"subset margin for {ordered} implies a first-order "
                    f"margin for {name!r} inconsistent with the one set"
                )
        if ordered in self._subset_margins:
            raise ConstraintError(f"duplicate subset margin for {ordered}")
        self._subset_margins[ordered] = array

    def subset_margin_from_table(
        self, table: ContingencyTable, names: Sequence[str]
    ) -> np.ndarray:
        """The observed marginal probabilities over a subset."""
        ordered = self.schema.canonical_subset(names)
        return table.marginal(ordered) / table.total

    # -- access -------------------------------------------------------------------

    @property
    def margin_names(self) -> tuple[str, ...]:
        return tuple(self._margins)

    @property
    def subset_margins(self) -> dict[tuple[str, ...], np.ndarray]:
        return dict(self._subset_margins)

    def has_subset_margin(self, names: Sequence[str]) -> bool:
        return self.schema.canonical_subset(names) in self._subset_margins

    def margin(self, name: str) -> np.ndarray:
        try:
            return self._margins[name]
        except KeyError:
            raise ConstraintError(f"no margin set for attribute {name!r}") from None

    def has_margin(self, name: str) -> bool:
        return name in self._margins

    @property
    def cells(self) -> tuple[CellConstraint, ...]:
        return tuple(self._cells.values())

    def cell_keys(self) -> set[CellKey]:
        return set(self._cells)

    def has_cell(self, key: CellKey) -> bool:
        return key in self._cells

    def cells_of_order(self, order: int) -> tuple[CellConstraint, ...]:
        return tuple(c for c in self._cells.values() if c.order == order)

    def __len__(self) -> int:
        return len(self._margins) + len(self._cells)

    def __iter__(self) -> Iterator[CellConstraint]:
        return iter(self._cells.values())

    def copy(self) -> "ConstraintSet":
        clone = ConstraintSet(self.schema)
        clone._margins = {k: v.copy() for k, v in self._margins.items()}
        clone._cells = dict(self._cells)
        clone._subset_margins = {
            k: v.copy() for k, v in self._subset_margins.items()
        }
        return clone

    def restricted(self, schema: Schema) -> "ConstraintSet":
        """The constraints that lie wholly inside ``schema``'s attributes.

        ``schema`` is a sub-schema of this set's (see
        :meth:`Schema.subschema`).  Entries keep their insertion order and
        are shared, not re-validated: they were checked when added here.
        """
        names = set(schema.names)
        clone = ConstraintSet(schema)
        clone._margins = {
            k: v for k, v in self._margins.items() if k in names
        }
        clone._cells = {
            k: c
            for k, c in self._cells.items()
            if names.issuperset(c.attributes)
        }
        clone._subset_margins = {
            k: v
            for k, v in self._subset_margins.items()
            if names.issuperset(k)
        }
        return clone

    # -- consistency --------------------------------------------------------------

    def validate_complete(self) -> None:
        """Require every attribute to have a first-order margin."""
        missing = [n for n in self.schema.names if n not in self._margins]
        if missing:
            raise ConstraintError(
                f"first-order margins missing for attributes: {missing}"
            )

    def _check_cell_consistency(self, new: CellConstraint) -> None:
        """Reject a cell whose target exceeds a containing known marginal.

        A cell probability can never exceed the probability of any marginal
        event containing it: ``p(A=i, C=k) <= p(A=i)`` and, if the cell
        ``(A=i, B=j)`` is already constrained and the new cell refines it,
        ``p(A=i, B=j, C=k) <= p(A=i, B=j)``.
        """
        tolerance = 1e-9
        assignment: Mapping[str, int] = dict(zip(new.attributes, new.values))
        for name, value in assignment.items():
            if name in self._margins:
                bound = float(self._margins[name][value])
                if new.probability > bound + tolerance:
                    raise ConstraintError(
                        f"cell target {new.probability:.6f} exceeds margin "
                        f"P({name}={value}) = {bound:.6f}"
                    )
        for existing in self._cells.values():
            if set(existing.attributes) < set(new.attributes):
                if all(
                    assignment[n] == v
                    for n, v in zip(existing.attributes, existing.values)
                ):
                    if new.probability > existing.probability + tolerance:
                        raise ConstraintError(
                            f"cell target {new.probability:.6f} exceeds "
                            f"containing constrained cell "
                            f"{existing.key} = {existing.probability:.6f}"
                        )
