"""Compiled query plans: parse and validate once, evaluate many times.

A :class:`QueryPlan` is the result of resolving a query against a schema:
attribute names checked, value labels mapped to tensor indices, the
target/evidence overlap validated, and the two marginal subsets the
evaluation needs (numerator and denominator of the conditional ratio)
precomputed in canonical schema order.  Evaluating a plan is then just two
cached-marginal lookups — no string parsing, no label resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import Query
from repro.data.schema import Schema
from repro.exceptions import QueryError


@dataclass(frozen=True)
class QueryPlan:
    """A query compiled against a schema.

    Attributes
    ----------
    target, given:
        ``(name, value index)`` pairs in canonical schema order.
    joint_subset, given_subset:
        The marginal subsets evaluation reads: the numerator marginal is
        over ``target ∪ given``, the denominator over ``given`` (empty for
        unconditional queries).
    joint_index, given_index:
        Precomputed index tuples into those marginals.
    description:
        Human-readable ``P(target | given)`` with value labels.
    """

    target: tuple[tuple[str, int], ...]
    given: tuple[tuple[str, int], ...]
    joint_subset: tuple[str, ...]
    given_subset: tuple[str, ...]
    joint_index: tuple[int, ...]
    given_index: tuple[int, ...]
    description: str

    def describe(self) -> str:
        """The plan's human-readable one-line description."""
        return self.description

    def __repr__(self) -> str:
        return f"QueryPlan({self.description})"


def compile_query(schema: Schema, query: Query | str) -> QueryPlan:
    """Resolve a query (string or :class:`Query`) into a :class:`QueryPlan`.

    Raises :class:`QueryError` on unknown attributes/values, or when target
    and evidence assign conflicting values to the same attribute.  (String
    queries reject *any* target/evidence overlap at parse time; assignments
    built programmatically may repeat an attribute with a consistent value,
    e.g. ``P(A=x | A=x) = 1``.)
    """
    if isinstance(query, str):
        query = Query.parse(schema, query)
    if not query.target:
        raise QueryError("query has an empty target")
    target_idx = schema.indices_of(query.target)
    given_idx = schema.indices_of(query.given)
    for name, value in target_idx.items():
        if name in given_idx and given_idx[name] != value:
            raise QueryError(
                f"target and evidence conflict on attribute {name!r}"
            )
    merged = {**given_idx, **target_idx}
    joint_subset = schema.canonical_subset(list(merged))
    given_subset = schema.canonical_subset(list(given_idx))
    return QueryPlan(
        target=tuple(
            (n, target_idx[n])
            for n in schema.canonical_subset(list(target_idx))
        ),
        given=tuple((n, given_idx[n]) for n in given_subset),
        joint_subset=joint_subset,
        given_subset=given_subset,
        joint_index=tuple(merged[n] for n in joint_subset),
        given_index=tuple(given_idx[n] for n in given_subset),
        description=query.describe(),
    )
