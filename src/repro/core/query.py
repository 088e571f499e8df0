"""Probability queries against a fitted model.

The paper's headline: once the significant joint probabilities are found,
"any probability relation associated with the data" follows, since a
conditional probability is a ratio of joints::

    P(A | B, C) = P(A, B, C) / P(B, C)

Queries accept labelled assignments (``{"CANCER": "yes"}``) or compact
strings (``"CANCER=yes"``).  This module parses them; a
:class:`~repro.api.session.QuerySession` evaluates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.schema import Schema
from repro.exceptions import QueryError


def parse_assignment(schema: Schema, text: str) -> dict[str, str]:
    """Parse ``"A=x, B=y"`` into a labelled assignment, validating names.

    Raises :class:`QueryError` on malformed terms, unknown attributes or
    unknown values.
    """
    assignment: dict[str, str] = {}
    for raw in text.split(","):
        term = raw.strip()
        if not term:
            continue
        if "=" not in term:
            raise QueryError(
                f"malformed query term {term!r}; expected ATTRIBUTE=value"
            )
        name, _, value = term.partition("=")
        name = name.strip()
        value = value.strip()
        try:
            attribute = schema.attribute(name)
            attribute.index_of(value)
        except Exception as error:
            raise QueryError(str(error)) from None
        if name in assignment:
            raise QueryError(f"attribute {name!r} assigned twice in {text!r}")
        assignment[name] = value
    if not assignment:
        raise QueryError(f"no assignments found in {text!r}")
    return assignment


@dataclass(frozen=True)
class Query:
    """A conditional probability question ``P(target | given)``."""

    target: dict[str, str | int]
    given: dict[str, str | int] = field(default_factory=dict)

    @classmethod
    def parse(cls, schema: Schema, text: str) -> "Query":
        """Parse ``"A=x | B=y, C=z"`` (the bar and evidence optional).

        An attribute may not appear on both sides of the bar: ``P(A=x |
        A=y)`` is contradictory and ``P(A=x | A=x)`` is trivially 1, so
        both are rejected as almost certainly mistakes.
        """
        target_text, bar, given_text = text.partition("|")
        target = parse_assignment(schema, target_text)
        given = parse_assignment(schema, given_text) if bar else {}
        overlap = sorted(set(target) & set(given))
        if overlap:
            raise QueryError(
                f"attributes {overlap} appear in both target and evidence "
                f"of {text!r}; an attribute may only be queried or "
                f"conditioned on, not both"
            )
        return cls(target=target, given=given)

    def describe(self) -> str:
        target = ", ".join(f"{k}={v}" for k, v in self.target.items())
        if not self.given:
            return f"P({target})"
        given = ", ".join(f"{k}={v}" for k, v in self.given.items())
        return f"P({target} | {given})"
