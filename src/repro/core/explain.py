"""Query explanation: which acquired constraints drive an answer.

The paper offers the extracted correlations as "clues for discovering
more causal explanations".  This module makes those clues explicit: for a
conditional query it reports how far the answer moves from the
independence baseline, and attributes the movement to the adopted
constraints by knock-out analysis — re-answering the query with each
constraint's factor neutralized (set to 1, i.e. Eq 116's "insignificant"
state) and reporting the swing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.exceptions import QueryError
from repro.maxent.constraints import CellKey
from repro.maxent.model import MaxEntModel

Assignment = Mapping[str, str | int]


@dataclass(frozen=True)
class ConstraintInfluence:
    """Effect of one constraint on a query, by knock-out.

    ``swing`` is ``answer_with - answer_without``: positive means the
    constraint pushes the queried probability up.
    """

    key: CellKey
    answer_without: float
    swing: float

    def describe(self, schema) -> str:
        names, values = self.key
        labels = ", ".join(
            f"{n}={schema.attribute(n).value_at(v)}"
            for n, v in zip(names, values)
        )
        direction = "+" if self.swing >= 0 else ""
        return f"[{labels}] swing {direction}{self.swing:.4f}"


@dataclass
class Explanation:
    """Full account of a conditional query."""

    target: dict
    given: dict
    answer: float
    independence_answer: float
    influences: list[ConstraintInfluence]

    @property
    def total_shift(self) -> float:
        """How far the acquired knowledge moved the answer from
        independence."""
        return self.answer - self.independence_answer

    def ranked(self) -> list[ConstraintInfluence]:
        """Influences sorted by absolute swing, largest first."""
        return sorted(self.influences, key=lambda i: -abs(i.swing))

    def describe(self, schema) -> str:
        target_text = ", ".join(f"{k}={v}" for k, v in self.target.items())
        given_text = ", ".join(f"{k}={v}" for k, v in self.given.items())
        lines = [
            f"P({target_text} | {given_text}) = {self.answer:.4f}",
            f"  under independence: {self.independence_answer:.4f} "
            f"(shift {self.total_shift:+.4f})",
        ]
        for influence in self.ranked():
            if abs(influence.swing) < 5e-5:
                continue
            lines.append("  " + influence.describe(schema))
        return "\n".join(lines)


def explain(
    model: MaxEntModel,
    target: Assignment,
    given: Assignment,
) -> Explanation:
    """Explain ``P(target | given)`` by constraint knock-out.

    Raises :class:`QueryError` for zero-probability or conflicting
    evidence (same rules as :meth:`MaxEntModel.conditional`).
    """
    if not given:
        raise QueryError(
            "explanations are for conditional queries; supply evidence"
        )
    answer = _conditional(model, target, given)

    # Under independence, evidence is irrelevant: the answer is the product
    # of the target attributes' first-order probabilities (which the model
    # carries exactly, since margins are always constrained).
    independence_answer = 1.0
    for name, value in target.items():
        if name in given:
            continue
        independence_answer *= model.probability({name: value})

    influences = []
    for key in model.cell_factors:
        ablated = model.copy()
        ablated.cell_factors = dict(model.cell_factors)
        ablated.cell_factors[key] = 1.0
        try:
            without = _conditional(ablated, target, given)
        except QueryError:
            continue
        influences.append(
            ConstraintInfluence(
                key=key,
                answer_without=without,
                swing=answer - without,
            )
        )
    return Explanation(
        target=dict(target),
        given=dict(given),
        answer=answer,
        independence_answer=independence_answer,
        influences=influences,
    )


def _conditional(
    model: MaxEntModel, target: Assignment, given: Assignment
) -> float:
    """``P(target | given)`` through a query session, as ``kb.query``
    answers it: the same backend and summation order, so the same bits."""
    from repro.api.session import QuerySession

    return QuerySession(model).probability(target, given)
