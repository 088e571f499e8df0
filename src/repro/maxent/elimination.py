"""Appendix B generalized: factored partition sums by variable elimination.

The paper's Appendix B evaluates the "sum of products" equations with a
matrix recursion ``S_n = sum(Q_{n+1} x S_{n+1})`` that contracts one
attribute at a time instead of materializing the joint tensor.  That
recursion is variable elimination over the model's factor graph with a
fixed elimination order.

This module implements the general form: the model's factors (margin
vectors and cell-indicator tensors) are contracted attribute by attribute
using a min-fill elimination order computed on the interaction graph.
For tree-like factor structures — which cell constraints over small
subsets usually induce — this answers partition sums and marginal queries
in time exponential only in the induced width, not in the number of
attributes, so wide schemas stay tractable without the dense joint.

No query runs through this module: a
:class:`~repro.api.session.QuerySession` answers from the model's
:class:`~repro.maxent.model.FactoredJoint`.  It is kept as the paper's
Appendix B (harness E8, ``benchmarks/bench_appendix_b.py``) and as an
oracle the query tests check the session against.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import QueryError
from repro.maxent.model import MaxEntModel


@dataclass
class Factor:
    """A non-negative tensor over a tuple of named attribute axes."""

    names: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.table.ndim != len(self.names):
            raise QueryError(
                f"factor over {self.names} has tensor of rank "
                f"{self.table.ndim}"
            )


def model_factors(model: MaxEntModel) -> list[Factor]:
    """Decompose a model into its factor list (margins + cell indicators).

    The global ``a0`` is deliberately *excluded*: elimination computes
    unnormalized sums and queries normalize by ratio, so ``a0`` cancels.
    """
    factors = [
        Factor((attribute.name,), model.margin_factors[attribute.name].copy())
        for attribute in model.schema
    ]
    for (names, values), a in model.cell_factors.items():
        shape = tuple(
            model.schema.attribute(name).cardinality for name in names
        )
        table = np.ones(shape)
        table[values] = a
        factors.append(Factor(names, table))
    for names, array in model.table_factors.items():
        factors.append(Factor(tuple(names), array.copy()))
    return factors


def restrict(factor: Factor, evidence: Mapping[str, int]) -> Factor:
    """Slice a factor at fixed values of some of its attributes."""
    keep_names = tuple(n for n in factor.names if n not in evidence)
    slicer = tuple(
        evidence[n] if n in evidence else slice(None) for n in factor.names
    )
    table = factor.table[slicer]
    return Factor(keep_names, np.asarray(table))


def multiply(a: Factor, b: Factor) -> Factor:
    """Pointwise product over the union of the two factors' attributes."""
    names = tuple(dict.fromkeys(a.names + b.names))
    table = _align(a, names) * _align(b, names)
    return Factor(names, table)


def sum_out(factor: Factor, name: str) -> Factor:
    """Marginalize one attribute out of a factor."""
    if name not in factor.names:
        return factor
    axis = factor.names.index(name)
    names = factor.names[:axis] + factor.names[axis + 1 :]
    return Factor(names, factor.table.sum(axis=axis))


def min_fill_order(
    factors: Sequence[Factor], eliminate: Sequence[str]
) -> list[str]:
    """Min-fill elimination order over the factors' interaction graph.

    Greedy: repeatedly eliminate the attribute whose elimination adds the
    fewest fill edges among its not-yet-connected neighbours; ties go to
    the name that sorts first.  The graph is a dict of insertion-ordered
    neighbour dicts, so neighbours, and with them the fill edges, are
    visited in a fixed order.
    """
    targets = set(eliminate)
    graph: dict[str, dict[str, None]] = {name: {} for name in eliminate}
    for factor in factors:
        present = [n for n in factor.names if n in targets]
        for i, first in enumerate(present):
            for second in present[i + 1 :]:
                graph[first][second] = graph[second][first] = None
    order: list[str] = []
    while graph:
        best = min(sorted(graph), key=lambda name: len(_fill_edges(graph, name)))
        for first, second in _fill_edges(graph, best):
            graph[first][second] = graph[second][first] = None
        for neighbor in graph.pop(best):
            del graph[neighbor][best]
        order.append(best)
    return order


def _fill_edges(
    graph: Mapping[str, Mapping[str, None]], name: str
) -> list[tuple[str, str]]:
    """The missing edges among ``name``'s neighbours, in neighbour order."""
    neighbors = list(graph[name])
    return [
        (first, second)
        for i, first in enumerate(neighbors)
        for second in neighbors[i + 1 :]
        if second not in graph[first]
    ]


def eliminate_all(
    factors: Sequence[Factor],
    eliminate: Sequence[str],
    order: Sequence[str] | None = None,
) -> Factor:
    """Contract the named attributes out of the factor product.

    Returns a factor over the surviving attributes (possibly rank 0 — a
    scalar partition sum).
    """
    working = list(factors)
    if order is None:
        order = min_fill_order(working, eliminate)
    for name in order:
        involved = [f for f in working if name in f.names]
        rest = [f for f in working if name not in f.names]
        if not involved:
            continue
        product = involved[0]
        for factor in involved[1:]:
            product = multiply(product, factor)
        working = rest + [sum_out(product, name)]
    result = Factor((), np.array(1.0))
    for factor in working:
        result = multiply(result, factor)
    return result


def partition_sum(
    model: MaxEntModel,
    evidence: Mapping[str, str | int] | None = None,
    factors: Sequence[Factor] | None = None,
) -> float:
    """Unnormalized mass consistent with ``evidence`` (Appendix B's 1/a0).

    With no evidence this is the full partition sum; the dense identity
    ``partition_sum(m) == m.unnormalized().sum()`` is a test invariant.
    ``factors`` lets callers serving many queries reuse one
    :func:`model_factors` decomposition instead of rebuilding it per call.
    """
    schema = model.schema
    fixed = schema.indices_of(evidence or {})
    if factors is None:
        factors = model_factors(model)
    restricted = [restrict(f, fixed) for f in factors]
    free = [n for n in schema.names if n not in fixed]
    result = eliminate_all(restricted, free)
    return float(result.table)


def query(
    model: MaxEntModel,
    target: Mapping[str, str | int],
    given: Mapping[str, str | int] | None = None,
) -> float:
    """``P(target | given)`` via elimination, never building the joint.

    Matches :meth:`MaxEntModel.conditional` (the dense path) exactly; the
    property tests assert agreement.
    """
    given = dict(given or {})
    schema = model.schema
    target_idx = schema.indices_of(target)
    given_idx = schema.indices_of(given)
    for name, value in target_idx.items():
        if name in given_idx and given_idx[name] != value:
            raise QueryError(
                f"target and evidence conflict on attribute {name!r}"
            )
    denominator = partition_sum(model, given_idx)
    if denominator <= 0:
        raise QueryError(f"evidence {given} has zero probability")
    numerator = partition_sum(model, {**given_idx, **target_idx})
    return numerator / denominator


def marginal(model: MaxEntModel, names: Sequence[str]) -> np.ndarray:
    """Normalized marginal over ``names`` via elimination (schema order)."""
    schema = model.schema
    ordered = schema.canonical_subset(names)
    factors = model_factors(model)
    free = [n for n in schema.names if n not in set(ordered)]
    result = eliminate_all(factors, free)
    # Reorder the surviving axes into schema order.
    permutation = [result.names.index(n) for n in ordered]
    table = np.transpose(result.table, permutation)
    total = table.sum()
    if total <= 0:
        raise QueryError("model has zero total mass")
    return table / total


def _align(factor: Factor, names: tuple[str, ...]) -> np.ndarray:
    """Broadcast a factor's tensor to the axis layout given by ``names``."""
    expand = [n for n in names if n not in factor.names]
    table = factor.table.reshape(factor.table.shape + (1,) * len(expand))
    current = factor.names + tuple(expand)
    permutation = [current.index(n) for n in names]
    return np.transpose(table, permutation)
