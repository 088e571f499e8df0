"""repro: Automatic Probabilistic Knowledge Acquisition from Data.

A full reproduction of Gevarter (NASA TM-88224, 1986): maximum-entropy
estimation of joint attribute probabilities from contingency tables, with
minimum-message-length discovery of the statistically significant
correlations, probability queries, and IF-THEN rule generation for
probabilistic expert systems.

Quickstart::

    from repro import ProbabilisticKnowledgeBase, paper_table

    kb = ProbabilisticKnowledgeBase.from_data(paper_table())
    kb.query("CANCER=yes | SMOKING=smoker")
    kb.p("CANCER=yes").given("SMOKING=smoker").value()   # fluent form
    kb.rules(min_probability=0.5).describe()

Serving many queries?  Open a session: queries compile once into plans,
marginals are memoized, and every answer comes from the model's one
:class:`~repro.maxent.model.FactoredJoint` (a tensor per independent
component; the ``2^n`` joint is never built)::

    session = kb.session()
    session.batch(["CANCER=yes", "CANCER=yes | SMOKING=smoker"])
    session.most_probable({"SMOKING": "smoker"})

Data keeps arriving?  Update in place — discovery reruns warm-started from
the current constraints and ``a`` values, and open sessions pick up the
refreshed model through its fingerprint::

    kb.update(next_batch)                     # Revision(mode='warm', ...)
    live = LiveKnowledgeBase.from_data(first_window,
                                       policy=UpdatePolicy(every_n=5000))
"""

from repro.api.plan import QueryPlan, compile_query
from repro.api.session import QuerySession
from repro.core.inference import RuleEngine
from repro.core.knowledge_base import ProbabilisticKnowledgeBase, Revision
from repro.core.query import Query
from repro.core.rules import Rule, RuleGenerator, RuleSet
from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, Schema
from repro.data.streaming import TableBuilder
from repro.discovery.config import DiscoveryConfig
from repro.discovery.engine import DiscoveryEngine, discover
from repro.discovery.profile import DiscoveryProfile
from repro.eval.paper import paper_schema, paper_table
from repro.exceptions import (
    ConstraintError,
    ConvergenceError,
    DataError,
    QueryError,
    ReproError,
    SchemaError,
    StaleConstraintError,
)
from repro.lifecycle import LiveKnowledgeBase, UpdatePolicy
from repro.maxent.constraints import CellConstraint, ConstraintSet
from repro.maxent.dual import fit_dual, warm_start_model
from repro.maxent.gevarter import fit_gevarter
from repro.maxent.model import MaxEntModel
from repro.scenarios import (
    ConformanceGates,
    Scenario,
    ScenarioOutcome,
    run_matrix,
    run_scenario,
    scenario_names,
)
from repro.significance.kernels import OrderScanKernel
from repro.store import KBDiff, KBStore, RunRegistry
from repro.significance.mml import (
    MMLPriors,
    evaluate_cell,
    reference_scan_order,
    scan_order,
)

__version__ = "1.2.0"

__all__ = [
    "Attribute",
    "CellConstraint",
    "ConformanceGates",
    "ConstraintError",
    "ConstraintSet",
    "ContingencyTable",
    "ConvergenceError",
    "DataError",
    "Dataset",
    "DiscoveryConfig",
    "DiscoveryEngine",
    "DiscoveryProfile",
    "KBDiff",
    "KBStore",
    "LiveKnowledgeBase",
    "MMLPriors",
    "MaxEntModel",
    "OrderScanKernel",
    "ProbabilisticKnowledgeBase",
    "Query",
    "QueryError",
    "QueryPlan",
    "QuerySession",
    "ReproError",
    "Revision",
    "Rule",
    "RuleEngine",
    "RuleGenerator",
    "RuleSet",
    "RunRegistry",
    "Scenario",
    "ScenarioOutcome",
    "Schema",
    "SchemaError",
    "StaleConstraintError",
    "TableBuilder",
    "UpdatePolicy",
    "compile_query",
    "discover",
    "evaluate_cell",
    "fit_dual",
    "fit_gevarter",
    "paper_schema",
    "paper_table",
    "reference_scan_order",
    "run_matrix",
    "run_scenario",
    "scan_order",
    "scenario_names",
    "warm_start_model",
]
