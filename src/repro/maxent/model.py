"""The factored maximum-entropy joint model (Eq 12).

The paper derives, via Lagrange multipliers on the entropy (Eqs 7-13), that
the maxent joint subject to marginal constraints has product form::

    p_ijk... = a0 * a_i^A * a_j^B * a_k^C * ... * a_ij^AB * ...

where one ``a`` factor exists per constraint: a vector factor per
first-order margin and a *scalar* factor per constrained higher-order cell
(insignificant cells keep ``a = 1``, Eq 116).

:class:`MaxEntModel` stores exactly these factors.  Its *constraint graph*
has the attributes as nodes, and every cell or table factor joins the
attributes it names.  By the product form, attributes in different
connected components are independent factors, so the joint is the outer
product of one small tensor per component: :meth:`MaxEntModel.factored`
builds those tensors as a :class:`FactoredJoint`, and every model-side
marginal — :meth:`MaxEntModel.marginal`, :meth:`MaxEntModel.probability`,
the discovery scans, the per-component fit — is answered from them without
building the ``2^n`` joint.  :meth:`MaxEntModel.joint` still materializes
the dense tensor for the consumers that want all of it (query backends,
validation, entropy); :mod:`repro.maxent.elimination` provides the
factored Appendix-B evaluation for wide schemas.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.data.schema import Schema
from repro.exceptions import ConstraintError, QueryError
from repro.maxent.constraints import CellKey


class MaxEntModel:
    """A joint distribution in the paper's ``a0 * prod(a)`` product form.

    Parameters
    ----------
    schema:
        Attribute schema fixing the tensor layout.
    margin_factors:
        Per-attribute factor vectors ``a_i^A``; missing attributes default
        to all-ones.
    cell_factors:
        Scalar factor per constrained marginal cell, keyed by
        ``(subset names, value indices)``.
    table_factors:
        Full factor *tables* over attribute subsets (one entry per
        constrained whole marginal — the Cheeseman/log-linear
        parameterization used by the baselines).  Keyed by canonical
        subset names; arrays laid out over the subset's axes.
    a0:
        Global normalization factor (Eq 13's ``e^-w0``).
    """

    def __init__(
        self,
        schema: Schema,
        margin_factors: Mapping[str, np.ndarray] | None = None,
        cell_factors: Mapping[CellKey, float] | None = None,
        a0: float = 1.0,
        table_factors: Mapping[tuple[str, ...], np.ndarray] | None = None,
    ):
        self.schema = schema
        self.margin_factors: dict[str, np.ndarray] = {}
        for attribute in schema:
            if margin_factors and attribute.name in margin_factors:
                vector = np.asarray(margin_factors[attribute.name], dtype=float)
                if vector.shape != (attribute.cardinality,):
                    raise ConstraintError(
                        f"margin factor for {attribute.name!r} has shape "
                        f"{vector.shape}, expected ({attribute.cardinality},)"
                    )
                if (vector < 0).any():
                    raise ConstraintError(
                        f"margin factor for {attribute.name!r} has negative "
                        f"entries"
                    )
                self.margin_factors[attribute.name] = vector.copy()
            else:
                self.margin_factors[attribute.name] = np.ones(
                    attribute.cardinality
                )
        self.cell_factors: dict[CellKey, float] = {}
        if cell_factors:
            for key, value in cell_factors.items():
                if value < 0:
                    raise ConstraintError(
                        f"cell factor for {key} is negative: {value}"
                    )
                self.cell_factors[key] = float(value)
        self.table_factors: dict[tuple[str, ...], np.ndarray] = {}
        if table_factors:
            for names, array in table_factors.items():
                expected = tuple(
                    schema.attribute(n).cardinality for n in names
                )
                array = np.asarray(array, dtype=float)
                if array.shape != expected:
                    raise ConstraintError(
                        f"table factor for {names} has shape {array.shape}, "
                        f"expected {expected}"
                    )
                if (array < 0).any():
                    raise ConstraintError(
                        f"table factor for {names} has negative entries"
                    )
                self.table_factors[tuple(names)] = array.copy()
        self.a0 = float(a0)

    # -- constructors -------------------------------------------------------------

    @classmethod
    def independent(
        cls, schema: Schema, margins: Mapping[str, Sequence[float]]
    ) -> "MaxEntModel":
        """The independence model: factors equal to first-order probabilities.

        This is the paper's Eq 60/61 observation: with only first-order
        constraints the maxent solution sets ``a_i = p_i`` (and ``a0 = 1``),
        so ``p_ijk = p_i p_j p_k``.
        """
        factors = {
            name: np.asarray(margins[name], dtype=float)
            for name in schema.names
        }
        return cls(schema, factors, {}, a0=1.0)

    @classmethod
    def uniform(cls, schema: Schema) -> "MaxEntModel":
        """The uninformed model: every joint cell equally likely."""
        return cls(schema, None, {}, a0=1.0 / schema.num_cells)

    # -- evaluation ---------------------------------------------------------------

    def unnormalized(self) -> np.ndarray:
        """Dense tensor of ``prod(a)`` *without* the ``a0`` factor."""
        return self._product(
            self.schema.names, self.cell_factors, self.table_factors
        )

    def _product(self, names, cell_factors, table_factors) -> np.ndarray:
        """``prod(a)`` over the attributes ``names`` (in schema order).

        ``cell_factors`` and ``table_factors`` must lie inside ``names``.
        Factors multiply in a fixed order — margins in schema order, then
        cells and tables in dict order — since float products do not
        reassociate.
        """
        axes = {name: axis for axis, name in enumerate(names)}
        sizes = [len(self.margin_factors[name]) for name in names]
        tensor = np.ones(sizes)
        for axis, name in enumerate(names):
            shape = [1] * len(names)
            shape[axis] = sizes[axis]
            tensor = tensor * self.margin_factors[name].reshape(shape)
        for (cell_names, values), factor in cell_factors.items():
            slicer: list[slice | int] = [slice(None)] * len(names)
            for name, value in zip(cell_names, values):
                slicer[axes[name]] = value
            tensor[tuple(slicer)] *= factor
        for table_names, array in table_factors.items():
            shape = [1] * len(names)
            for name in table_names:
                shape[axes[name]] = sizes[axes[name]]
            # The subset's axes are in schema order, so a reshape aligns.
            tensor = tensor * array.reshape(shape)
        return tensor

    def joint(self) -> np.ndarray:
        """Dense normalized joint probability tensor ``p_ijk...``.

        The stored ``a0`` is used when it normalizes exactly (as after a
        converged fit); otherwise the tensor is renormalized defensively so
        the result is always a probability distribution.
        """
        tensor = self.unnormalized() * self.a0
        total = tensor.sum()
        if _renormalizes(total):
            tensor = tensor / total
        return tensor

    def normalize(self) -> None:
        """Recompute ``a0`` so the joint sums to exactly 1."""
        total = self.unnormalized().sum()
        if total <= 0:
            raise ConstraintError("model has zero total mass")
        self.a0 = 1.0 / total

    def components(self) -> list[tuple[str, ...]]:
        """Connected components of the constraint graph.

        Attributes are joined by the model's cell and table factors.
        Groups come in the order of their first attribute, each in schema
        order — never in a set's order, so every float computed per
        component is the same in every process.
        """
        parent = {name: name for name in self.schema.names}

        def find(name):
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        joins = [names for names, _ in self.cell_factors]
        joins.extend(self.table_factors)
        for names in joins:
            for name in names[1:]:
                parent[find(name)] = find(names[0])
        groups: dict[str, list[str]] = {}
        for name in self.schema.names:
            groups.setdefault(find(name), []).append(name)
        return [tuple(group) for group in groups.values()]

    def component_models(self) -> list["MaxEntModel"]:
        """One sub-model per :meth:`components` entry, in that order.

        Each holds its component's share of the factors (cell and table
        factors keep their insertion order) over the component's
        sub-schema, with ``a0 = 1``.  The factors are copies.
        """
        return [
            MaxEntModel(
                self.schema.subschema(names),
                {name: self.margin_factors[name] for name in names},
                cells,
                1.0,
                tables,
            )
            for names, cells, tables in self._split()
        ]

    def factored(self) -> "FactoredJoint":
        """The normalized joint as one tensor per constraint-graph component.

        Normalization follows :meth:`joint`'s rule: the stored ``a0`` is
        kept when ``a0 * prod(component masses)`` is close to 1, otherwise
        the product is renormalized.  Each tensor is its sub-model's
        (:meth:`component_models`) ``unnormalized()``, divided by its mass.
        """
        parts = self._split()
        tensors = [self._product(*part) for part in parts]
        masses = [float(tensor.sum()) for tensor in tensors]
        total = self.a0 * math.prod(masses)
        scale = 1.0 if _renormalizes(total) else total
        return FactoredJoint(
            tuple(names for names, _cells, _tables in parts),
            [tensor / mass for tensor, mass in zip(tensors, masses)],
            scale,
        )

    def _split(self) -> list[tuple[tuple[str, ...], dict, dict]]:
        """``(names, cell factors, table factors)`` per :meth:`components`
        entry; the factors keep their insertion order."""
        components = self.components()
        home = {
            name: index
            for index, names in enumerate(components)
            for name in names
        }
        cells: list[dict] = [{} for _ in components]
        for key, factor in self.cell_factors.items():
            cells[home[key[0][0]]][key] = factor
        tables: list[dict] = [{} for _ in components]
        for names, array in self.table_factors.items():
            tables[home[names[0]]][names] = array
        return list(zip(components, cells, tables))

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Marginal probability array over ``names`` (schema order)."""
        ordered = self.schema.canonical_subset(names)
        return self.factored().marginal(ordered)

    def probability(self, assignment: Mapping[str, str | int]) -> float:
        """Probability of a (possibly partial) labelled assignment."""
        if not assignment:
            return 1.0
        indices = self.schema.indices_of(assignment)
        names = self.schema.canonical_subset(list(indices))
        sub = self.marginal(names)
        return float(sub[tuple(indices[n] for n in names)])

    def conditional(
        self,
        target: Mapping[str, str | int],
        given: Mapping[str, str | int],
    ) -> float:
        """``P(target | given)`` as a ratio of joints (paper's Eq in §1).

        Raises :class:`QueryError` if the evidence has zero probability or
        target and evidence assign conflicting values to an attribute.
        """
        overlap = set(target) & set(given)
        for name in overlap:
            attribute = self.schema.attribute(name)
            if attribute.index_of(target[name]) != attribute.index_of(given[name]):
                raise QueryError(
                    f"target and evidence conflict on attribute {name!r}"
                )
        evidence_probability = self.probability(given)
        if evidence_probability <= 0:
            raise QueryError(f"evidence {dict(given)} has zero probability")
        joint_probability = self.probability({**given, **target})
        return joint_probability / evidence_probability

    def expected_count(
        self, n: int, names: Sequence[str], values: Sequence[int]
    ) -> float:
        """Predicted mean count ``N * p`` of a marginal cell (Eq 33)."""
        ordered = self.schema.canonical_subset(names)
        order = {name: i for i, name in enumerate(names)}
        index = tuple(values[order[name]] for name in ordered)
        return n * float(self.marginal(ordered)[index])

    # -- introspection ------------------------------------------------------------

    def fingerprint(self) -> int:
        """Cheap content hash over every factor, for cache invalidation.

        Inference backends cache expensive artifacts (the dense joint, the
        factor decomposition) keyed by this value, so a model mutated in
        place — as the iterative solvers do mid-fit — never serves stale
        cached answers.
        """
        parts: list[object] = [self.a0]
        for name in self.schema.names:
            parts.append(self.margin_factors[name].tobytes())
        for key in sorted(self.cell_factors):
            parts.append((key, self.cell_factors[key]))
        for names in sorted(self.table_factors):
            parts.append((names, self.table_factors[names].tobytes()))
        return hash(tuple(parts))

    def copy(self) -> "MaxEntModel":
        # The constructor copies every factor array and the cell dict.
        return MaxEntModel(
            self.schema,
            self.margin_factors,
            self.cell_factors,
            self.a0,
            self.table_factors,
        )

    def absorb(self, other: "MaxEntModel") -> None:
        """Adopt another model's factors *in place* (same schema required).

        This is how a live knowledge base swaps in a refitted model without
        replacing the object: every open :class:`~repro.api.session.QuerySession`
        and backend cache holds a reference to *this* model, and their
        freshness checks key on :meth:`fingerprint` — which changes the
        moment the factors do — so they self-invalidate on their next
        operation instead of having to be rebuilt.
        """
        if other.schema != self.schema:
            raise ConstraintError(
                "cannot absorb a model over a different schema: "
                f"{other.schema!r} != {self.schema!r}"
            )
        self.margin_factors = {
            name: vector.copy()
            for name, vector in other.margin_factors.items()
        }
        self.cell_factors = dict(other.cell_factors)
        self.table_factors = {
            names: array.copy()
            for names, array in other.table_factors.items()
        }
        self.a0 = other.a0

    def a_values(self) -> dict[str, float]:
        """Flat named view of all ``a`` factors (for Table-2 style traces).

        Keys look like ``a^SMOKING_1`` (1-based value numbers, matching the
        paper) and ``a^SMOKING,FH_1,2`` for cell factors, plus ``a0``.
        """
        values: dict[str, float] = {"a0": self.a0}
        for name, vector in self.margin_factors.items():
            for index, factor in enumerate(vector):
                values[f"a^{name}_{index + 1}"] = float(factor)
        for (names, cell), factor in self.cell_factors.items():
            joined = ",".join(names)
            digits = ",".join(str(v + 1) for v in cell)
            values[f"a^{joined}_{digits}"] = float(factor)
        for names, array in self.table_factors.items():
            joined = ",".join(names)
            for index in np.ndindex(array.shape):
                digits = ",".join(str(v + 1) for v in index)
                values[f"a^{joined}_{digits}"] = float(array[index])
        return values

    def __repr__(self) -> str:
        return (
            f"MaxEntModel({self.schema!r}, cells={len(self.cell_factors)}, "
            f"a0={self.a0:.6g})"
        )


def _renormalizes(total: float) -> bool:
    """Whether a joint of mass ``total`` (``a0`` included) is divided by it.

    The stored ``a0`` is trusted when it normalizes (as after a converged
    fit); zero mass is an error.
    """
    if total <= 0:
        raise ConstraintError("model has zero total mass")
    # np.isclose(total, 1.0, atol=1e-9)'s test, without its call overhead.
    return not abs(total - 1.0) <= 1e-9 + 1e-5


class FactoredJoint:
    """A normalized joint held as independent per-component tensors.

    ``tensors[i]`` is the distribution of ``components[i]``'s attributes
    (axes in schema order, mass 1), and the joint is ``scale`` times their
    outer product.  A subset's marginal is the outer product of the
    marginals of the components it touches, so no ``2^n`` tensor is ever
    built.  Built by :meth:`MaxEntModel.factored`; :meth:`pack` and
    :meth:`unpack` move one across a process boundary as a single float64
    block plus a small layout.

    Per-component marginals are cached, so a scan that reads one
    attribute's marginal for many subsets reduces its component once.
    ``cells_reduced`` counts the component-tensor cells read to form
    them: the model-side cost of the marginals asked for so far.
    """

    def __init__(
        self,
        components: tuple[tuple[str, ...], ...],
        tensors: Sequence[np.ndarray],
        scale: float,
    ):
        self.components = tuple(tuple(names) for names in components)
        self.tensors = list(tensors)
        self.scale = float(scale)
        self._home = {
            name: index
            for index, names in enumerate(self.components)
            for name in names
        }
        self._parts: dict[tuple[int, tuple[str, ...]], np.ndarray] = {}
        self.cells_reduced = 0

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Marginal probability array over ``names``, given in schema order.

        The product runs in the order of the components' first appearance
        in ``names``, so equal inputs give bit-equal outputs.
        """
        names = tuple(names)
        parts: dict[int, list[int]] = {}  # component -> positions in names
        for position, name in enumerate(names):
            parts.setdefault(self._home[name], []).append(position)
        result = np.array(self.scale)
        for index, positions in parts.items():
            part = tuple(names[position] for position in positions)
            factor = self._part_marginal(index, part)
            shape = [1] * len(names)
            for position, size in zip(positions, factor.shape):
                shape[position] = size
            result = result * factor.reshape(shape)
        return result

    def _part_marginal(
        self, index: int, part: tuple[str, ...]
    ) -> np.ndarray:
        cached = self._parts.get((index, part))
        if cached is None:
            tensor = self.tensors[index]
            drop = tuple(
                axis
                for axis, name in enumerate(self.components[index])
                if name not in part
            )
            cached = tensor.sum(axis=drop) if drop else tensor
            self.cells_reduced += tensor.size
            self._parts[(index, part)] = cached
        return cached

    def pack(self) -> tuple[tuple, np.ndarray]:
        """``(layout, block)``: every tensor raveled into one float64 block.

        The layout is ``(components, shapes, scale)``; each tensor's
        offset in the block is the summed size of the ones before it.
        """
        layout = (
            self.components,
            tuple(tensor.shape for tensor in self.tensors),
            self.scale,
        )
        block = np.concatenate(
            [np.asarray(t, dtype=np.float64).ravel() for t in self.tensors]
        )
        return layout, block

    @classmethod
    def unpack(cls, layout: tuple, block: np.ndarray) -> "FactoredJoint":
        """Rebuild the :meth:`pack`-ed joint; the tensors are views of
        ``block``, bit-equal to the packed ones."""
        components, shapes, scale = layout
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) != len(block):
            raise ConstraintError(
                f"factor block holds {len(block)} floats but the layout "
                f"describes {sum(sizes)}"
            )
        tensors = []
        offset = 0
        for shape, size in zip(shapes, sizes):
            tensors.append(block[offset : offset + size].reshape(shape))
            offset += size
        return cls(components, tensors, scale)

    def __repr__(self) -> str:
        cells = sum(tensor.size for tensor in self.tensors)
        return f"FactoredJoint({len(self.components)} components, {cells} cells)"
