"""A small probabilistic expert-system shell consuming the induced rules.

The paper positions the extracted probabilities as the knowledge base of a
probabilistic expert system.  This module closes that loop: a
:class:`RuleEngine` holds a :class:`~repro.core.rules.RuleSet`, accepts
facts, and infers conclusions with probabilities and an explanation trace.

When several rules conclude about the same attribute, the engine prefers
the applicable rule with the *most specific* condition set (most
conditions), breaking ties by higher support — the standard specificity
heuristic for probabilistic production rules.  This is deliberately a
*rule-level* approximation; exact posteriors come from the model itself via
:class:`~repro.api.session.QuerySession`, and the tests compare the two.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.rules import Rule, RuleSet
from repro.exceptions import QueryError


@dataclass(frozen=True)
class Conclusion:
    """One inferred attribute value with its probability and justification."""

    attribute: str
    value: str
    probability: float
    rule: Rule

    def describe(self) -> str:
        return (
            f"{self.attribute}={self.value} (p={self.probability:.3f}) "
            f"via [{self.rule.describe()}]"
        )


class RuleEngine:
    """Forward-chaining inference over probabilistic IF-THEN rules."""

    def __init__(self, rules: RuleSet):
        self.rules = rules

    def applicable(self, facts: Mapping[str, str]) -> RuleSet:
        """Rules whose conditions are fully satisfied by the facts."""
        return self.rules.matching(facts)

    def conclude(
        self, facts: Mapping[str, str], attribute: str
    ) -> Conclusion:
        """Best conclusion about one attribute given the facts.

        Picks, among applicable rules concluding about ``attribute``, the
        most probable value according to the most specific rule available
        for each value.  Raises :class:`QueryError` when no applicable rule
        mentions the attribute.
        """
        if attribute in facts:
            raise QueryError(
                f"attribute {attribute!r} is already known: "
                f"{facts[attribute]!r}"
            )
        candidates = self.applicable(facts).about(attribute)
        if not len(candidates):
            raise QueryError(
                f"no applicable rule concludes about {attribute!r} given "
                f"facts {dict(facts)}"
            )
        best_per_value: dict[str, Rule] = {}
        for rule in candidates:
            value = rule.conclusion[1]
            incumbent = best_per_value.get(value)
            if incumbent is None or self._more_specific(rule, incumbent):
                best_per_value[value] = rule
        value, rule = max(
            best_per_value.items(), key=lambda item: item[1].probability
        )
        return Conclusion(
            attribute=attribute,
            value=value,
            probability=rule.probability,
            rule=rule,
        )

    def forward_chain(
        self, facts: Mapping[str, str], threshold: float = 0.5
    ) -> list[Conclusion]:
        """Derive all conclusions with probability above ``threshold``.

        Repeatedly applies :meth:`conclude` to every unknown attribute,
        asserting conclusions that clear the threshold as new facts, until
        a fixed point.  Returns the conclusions in derivation order.
        """
        known = dict(facts)
        derived: list[Conclusion] = []
        attributes = {rule.conclusion[0] for rule in self.rules}
        progress = True
        while progress:
            progress = False
            for attribute in sorted(attributes - set(known)):
                try:
                    conclusion = self.conclude(known, attribute)
                except QueryError:
                    continue
                if conclusion.probability >= threshold:
                    known[conclusion.attribute] = conclusion.value
                    derived.append(conclusion)
                    progress = True
        return derived

    @staticmethod
    def _more_specific(challenger: Rule, incumbent: Rule) -> bool:
        if len(challenger.conditions) != len(incumbent.conditions):
            return len(challenger.conditions) > len(incumbent.conditions)
        return challenger.support > incumbent.support
