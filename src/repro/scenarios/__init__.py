"""Scenario conformance matrix: diverse discovery workloads with gates.

The package bundles the scenario registry (a table of named, seeded
workloads with planted ground truth, quality gates, and latency SLOs —
see :mod:`repro.scenarios.registry`), the conformance runner that scores
discovery against them (:mod:`repro.scenarios.runner`), and the
query-traffic replay the latency SLOs gate on
(:mod:`repro.scenarios.replay`).
"""

from repro.scenarios.registry import (
    DEFAULT_TIERS,
    TIERS,
    ConformanceGates,
    LatencySLO,
    Scenario,
    ScenarioInstance,
    all_scenarios,
    default_slo,
    get_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    BaselineScore,
    ScenarioOutcome,
    outcome_to_dict,
    run_matrix,
    run_scenario,
)

__all__ = [
    "DEFAULT_TIERS",
    "TIERS",
    "BaselineScore",
    "ConformanceGates",
    "LatencySLO",
    "Scenario",
    "ScenarioInstance",
    "ScenarioOutcome",
    "all_scenarios",
    "default_slo",
    "get_scenario",
    "outcome_to_dict",
    "run_matrix",
    "run_scenario",
    "scenario_names",
]
