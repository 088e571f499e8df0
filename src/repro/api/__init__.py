"""Session-based query API: compiled plans, batching, one evaluator.

The paper's claim is that once the significant joint probabilities are
acquired, *any* probability relation follows as a ratio of two marginals.
This package is the serving side of that claim — the fit-once/serve-many
split.  Every answer comes from the model's
:class:`~repro.maxent.model.FactoredJoint`, one tensor per independent
component of the constraint graph:

- :mod:`repro.api.plan` — :class:`QueryPlan`, a query parsed and validated
  once into resolved value indices so evaluation is two array lookups.
- :mod:`repro.api.session` — :class:`QuerySession`, which compiles queries,
  memoizes marginals in an LRU cache, evaluates batches so shared
  sub-computations are paid once, and answers MPE per component.
- :mod:`repro.api.builder` — the fluent ``kb.p("A=x").given("B=y")`` form.

Quickstart::

    session = kb.session()
    plan = session.compile("CANCER=yes | SMOKING=smoker")
    session.evaluate(plan)
    session.batch(["CANCER=yes", "CANCER=yes | SMOKING=smoker"])
"""

from repro.api.builder import ProbabilityExpression
from repro.api.plan import QueryPlan, compile_query
from repro.api.session import QuerySession

__all__ = [
    "ProbabilityExpression",
    "QueryPlan",
    "QuerySession",
    "compile_query",
]
