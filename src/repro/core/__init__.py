"""Public core: knowledge base, queries, rules, inference, validation."""

from repro.core.explain import Explanation, explain
from repro.core.inference import Conclusion, RuleEngine
from repro.core.knowledge_base import ProbabilisticKnowledgeBase
from repro.core.query import Query, parse_assignment
from repro.core.rules import Rule, RuleGenerator, RuleSet
from repro.core.validation import (
    calibration_table,
    conditional_brier_score,
    cross_validate,
    holdout_log_loss,
    perplexity,
)

__all__ = [
    "Conclusion",
    "Explanation",
    "ProbabilisticKnowledgeBase",
    "Query",
    "Rule",
    "RuleEngine",
    "RuleGenerator",
    "RuleSet",
    "calibration_table",
    "conditional_brier_score",
    "cross_validate",
    "explain",
    "holdout_log_loss",
    "parse_assignment",
    "perplexity",
]
