"""Contingency tables: N-dimensional count tensors over a schema.

This is the paper's central data structure (Figures 1 and 2).  A
:class:`ContingencyTable` stores the counts ``N_ijk...`` as a numpy integer
tensor whose axes follow the schema's attribute order.  Marginal counts
(Eqs 1-6) are axis sums; :meth:`ContingencyTable.marginal` returns them for
any attribute subset.

Counts are immutable once constructed, so every marginal count tensor is
computed at most once: :meth:`ContingencyTable.marginal_counts` keeps a
per-subset cache of read-only count arrays, and :meth:`ContingencyTable.count`
answers from it in O(1) after the first lookup of a subset.  This is what
makes the discovery scan kernels array-native — the per-cell dict lookups
of the scalar path all collapse into shared cached tensors.  A sum
``a + b`` starts with ``a``'s cache carried over (each entry plus ``b``'s
marginal), so merging a small delta into a training table does not
recompute the marginals the table already served.

The text rendering helpers reproduce the paper's visual layout: a 2-D grid
per slice of a third attribute (Figure 1) optionally bordered with marginal
sums (Figure 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.data.schema import Schema
from repro.exceptions import DataError

#: Type alias for a marginal cell: (subset names, value indices, count).
MarginalCell = tuple[tuple[str, ...], tuple[int, ...], int]


class ContingencyTable:
    """Counts of attribute-value combinations observed in N samples.

    Parameters
    ----------
    schema:
        The attribute schema; its order defines the tensor axes.
    counts:
        Non-negative integer array of shape ``schema.shape``.
    """

    def __init__(self, schema: Schema, counts: np.ndarray):
        counts = np.asarray(counts)
        if counts.shape != schema.shape:
            raise DataError(
                f"counts shape {counts.shape} does not match schema shape "
                f"{schema.shape}"
            )
        if np.issubdtype(counts.dtype, np.floating):
            if not np.allclose(counts, np.round(counts)):
                raise DataError("counts must be integers")
            counts = np.round(counts).astype(np.int64)
        else:
            counts = counts.astype(np.int64)
        if (counts < 0).any():
            raise DataError("counts must be non-negative")
        self.schema = schema
        self.counts = counts
        self.counts.setflags(write=False)
        # Counts are frozen above, so these caches never go stale.
        self._marginal_cache: dict[tuple[str, ...], np.ndarray] = {}
        self._total: int | None = None

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_samples(
        cls, schema: Schema, samples: Iterable[Sequence[str | int]]
    ) -> "ContingencyTable":
        """Build a table by tallying raw samples (Appendix A's pipeline).

        Each sample is a sequence of value labels or indices, one per
        attribute, in schema order.
        """
        counts = np.zeros(schema.shape, dtype=np.int64)
        width = len(schema)
        for row_number, sample in enumerate(samples):
            if len(sample) != width:
                raise DataError(
                    f"sample {row_number} has {len(sample)} fields, "
                    f"schema has {width} attributes"
                )
            index = tuple(
                attribute.index_of(value)
                for attribute, value in zip(schema, sample)
            )
            counts[index] += 1
        return cls(schema, counts)

    @classmethod
    def from_records(
        cls, schema: Schema, records: Iterable[Mapping[str, str | int]]
    ) -> "ContingencyTable":
        """Build a table from dict records ``{attribute name: value}``."""
        names = schema.names
        samples = ([record[name] for name in names] for record in records)
        return cls.from_samples(schema, samples)

    @classmethod
    def zeros(cls, schema: Schema) -> "ContingencyTable":
        """An empty table (all cells zero)."""
        return cls(schema, np.zeros(schema.shape, dtype=np.int64))

    # -- basics -------------------------------------------------------------------

    @property
    def total(self) -> int:
        """Total number of individuals N (Eq 6)."""
        if self._total is None:
            self._total = int(self.counts.sum())
        return self._total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        return self.schema == other.schema and np.array_equal(
            self.counts, other.counts
        )

    def __repr__(self) -> str:
        return f"ContingencyTable({self.schema!r}, N={self.total})"

    def __add__(self, other: "ContingencyTable") -> "ContingencyTable":
        if not isinstance(other, ContingencyTable):
            return NotImplemented
        if self.schema != other.schema:
            raise DataError("cannot add tables with different schemas")
        merged = ContingencyTable(self.schema, self.counts + other.counts)
        merged._carry_marginals(self, other)
        return merged

    def _carry_marginals(
        self, left: "ContingencyTable", addend: "ContingencyTable"
    ) -> None:
        """Seed this sum's cache from ``left``'s: ``cached + addend's``.

        The addend's marginal over each subset is one ``np.bincount`` over
        its occupied cells, which a small delta batch keeps to a few
        thousand entries however large the tensor is, so a merged
        training table starts with every marginal its predecessor served
        instead of recomputing them by axis sums.  The float weights are
        exact while the addend's total stays below 2^53; past that
        nothing is carried and the sum computes its marginals as usual.
        """
        # Snapshot first: a reader may be filling left's cache meanwhile.
        # The full set is skipped; this table's counts is that entry.
        full = self.schema.names
        carried = [
            (names, cached)
            for names, cached in list(left._marginal_cache.items())
            if names != full
        ]
        if not carried or addend.total >= 2**53:
            return
        occupied = np.flatnonzero(addend.counts)
        weights = addend.counts.ravel()[occupied]
        coords = np.unravel_index(occupied, self.schema.shape)
        for names, cached in carried:
            axes = self.schema.axes(names)
            flat = np.ravel_multi_index(
                tuple(coords[axis] for axis in axes), cached.shape
            )
            marginal = cached + np.bincount(
                flat, weights=weights, minlength=cached.size
            ).astype(np.int64).reshape(cached.shape)
            marginal.setflags(write=False)
            self._marginal_cache[names] = marginal

    # -- marginals (Eqs 1-6) ------------------------------------------------------

    def marginal_counts(self, names: Sequence[str]) -> np.ndarray:
        """Cached read-only marginal count tensor over ``names``.

        Axes follow schema order.  The array is computed once per subset
        and frozen; callers that need to mutate should use
        :meth:`marginal`, which returns a fresh copy.  The cache holds at
        most one entry per attribute subset ever queried (bounded by
        ``2^R``), each no larger than the count tensor itself.
        """
        ordered = self.schema.canonical_subset(names)
        cached = self._marginal_cache.get(ordered)
        if cached is None:
            drop = self.schema.drop_axes(ordered)
            cached = self.counts.sum(axis=drop) if drop else self.counts
            cached.setflags(write=False)
            self._marginal_cache[ordered] = cached
        return cached

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Marginal count array over ``names`` (axes in schema order).

        ``marginal(["A", "B"])`` returns ``N_ij = sum_k N_ijk`` (Eq 1);
        ``marginal(["A"])`` returns ``N_i`` (Eq 4).  The returned array is
        a mutable copy; use :meth:`marginal_counts` for the shared cached
        tensor.
        """
        return self.marginal_counts(names).copy()

    def marginal_table(self, names: Sequence[str]) -> "ContingencyTable":
        """Marginal as a new :class:`ContingencyTable` over the sub-schema.

        This is the paper's Figure 2c: summing the smoking/cancer data over
        FAMILY HISTORY collapses the two slices into one AB table.
        """
        ordered = self.schema.canonical_subset(names)
        return ContingencyTable(
            self.schema.subschema(ordered), self.marginal(ordered)
        )

    def count(self, assignment: Mapping[str, str | int]) -> int:
        """Count of samples matching a (possibly partial) assignment.

        A full assignment returns one cell ``N_ijk``; a partial one returns
        the corresponding marginal count, e.g. ``count({"A": "smoker"})``
        is ``N_1^A``.
        """
        indices = self.schema.indices_of(assignment)
        names = self.schema.canonical_subset(list(indices))
        sub = self.marginal_counts(names)
        return int(sub[tuple(indices[n] for n in names)])

    # -- probabilities ------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Empirical joint probabilities ``N_ijk / N``."""
        total = self.total
        if total == 0:
            raise DataError("cannot compute probabilities of an empty table")
        return self.counts / total

    def first_order_probabilities(self, name: str) -> np.ndarray:
        """``p_i = N_i / N`` for one attribute (Eq 48)."""
        total = self.total
        if total == 0:
            raise DataError("cannot compute probabilities of an empty table")
        return self.marginal_counts([name]) / total

    def probability(self, assignment: Mapping[str, str | int]) -> float:
        """Empirical probability of a (possibly partial) assignment."""
        return self.count(assignment) / self.total

    # -- cell iteration -----------------------------------------------------------

    def subsets_of_order(self, order: int) -> list[tuple[str, ...]]:
        """All attribute subsets of a given size, in canonical order."""
        from itertools import combinations

        if not 1 <= order <= len(self.schema):
            raise DataError(
                f"order must be in 1..{len(self.schema)}, got {order}"
            )
        return [tuple(c) for c in combinations(self.schema.names, order)]

    def cells_of_order(self, order: int) -> Iterator[MarginalCell]:
        """Iterate every marginal cell at a given order.

        Yields ``(subset names, value indices, count)``.  The paper's "16
        second order cells" for the smoking example are exactly
        ``list(table.cells_of_order(2))``.
        """
        for subset in self.subsets_of_order(order):
            sub = self.marginal_counts(subset)
            for index in np.ndindex(sub.shape):
                yield subset, tuple(int(i) for i in index), int(sub[index])

    def num_cells_of_order(self, order: int) -> int:
        """Number of marginal cells at a given order."""
        total = 0
        for subset in self.subsets_of_order(order):
            size = 1
            for name in subset:
                size *= self.schema.attribute(name).cardinality
            total += size
        return total

    # -- rendering (Figures 1 and 2) ------------------------------------------------

    def render(
        self,
        row: str | None = None,
        col: str | None = None,
        show_marginals: bool = False,
    ) -> str:
        """Render the table as text in the paper's Figure 1/2 layout.

        For a 2-D table (or when only two attributes are named) a single
        grid is produced; with more attributes one grid is printed per
        combination of the remaining attributes' values, mirroring the
        paper's one-slice-per-family-history figures.
        """
        names = list(self.schema.names)
        if row is None or col is None:
            if len(names) < 2:
                raise DataError("render needs at least two attributes")
            row = row or names[0]
            col = col or names[1]
        others = [n for n in names if n not in (row, col)]
        blocks = []
        if not others:
            blocks.append(self._render_slice({}, row, col, show_marginals))
        else:
            other_shapes = [self.schema.attribute(n).cardinality for n in others]
            for combo in np.ndindex(*other_shapes):
                fixed = dict(zip(others, (int(i) for i in combo)))
                header = ", ".join(
                    f"{n} = {self.schema.attribute(n).value_at(i)}"
                    for n, i in fixed.items()
                )
                blocks.append(
                    header + "\n" + self._render_slice(fixed, row, col, show_marginals)
                )
        return "\n\n".join(blocks)

    def _render_slice(
        self,
        fixed: Mapping[str, int],
        row: str,
        col: str,
        show_marginals: bool,
    ) -> str:
        row_attr = self.schema.attribute(row)
        col_attr = self.schema.attribute(col)
        grid = np.empty((row_attr.cardinality, col_attr.cardinality), dtype=np.int64)
        for i in range(row_attr.cardinality):
            for j in range(col_attr.cardinality):
                grid[i, j] = self.count({**fixed, row: i, col: j})
        header = [f"{row}\\{col}"] + list(col_attr.values)
        if show_marginals:
            header.append("N")
        rows = [header]
        for i, label in enumerate(row_attr.values):
            cells = [label] + [str(int(v)) for v in grid[i]]
            if show_marginals:
                cells.append(str(int(grid[i].sum())))
            rows.append(cells)
        if show_marginals:
            footer = ["N"] + [str(int(v)) for v in grid.sum(axis=0)]
            footer.append(str(int(grid.sum())))
            rows.append(footer)
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows
        ]
        return "\n".join(lines)
