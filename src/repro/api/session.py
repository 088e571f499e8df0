"""Query sessions: the serve-many half of fit-once/serve-many.

A :class:`QuerySession` answers every query kind from the model's shared
:class:`~repro.maxent.model.FactoredJoint` (one per model fingerprint,
see :meth:`~repro.maxent.model.MaxEntModel.cached_factored`).  The
components of the constraint graph are independent, so a marginal is the
outer product of the marginals of the components it touches, and the
``2^n`` joint is never built.  On top, a session amortizes what repeated
queries share:

- query strings compile once into :class:`~repro.api.plan.QueryPlan` objects
  (an LRU-bounded plan cache keyed by the raw text);
- subset marginals are memoized in an LRU cache keyed by attribute subset,
  so a batch of queries touching the same subsets pays for each once.

Swapping the model with :meth:`set_model` — or mutating it in place, which
changes its fingerprint — drops the marginal cache, so a session never
serves answers from a stale model.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence
from typing import Iterable

import numpy as np

from repro.api.plan import QueryPlan, compile_query
from repro.core.query import Query
from repro.exceptions import QueryError
from repro.maxent.model import FactoredJoint, MaxEntModel

Assignment = Mapping[str, str | int]

DEFAULT_CACHE_SIZE = 256


class QuerySession:
    """Compiled-plan query evaluation with memoized marginals.

    Parameters
    ----------
    model:
        The fitted maxent model to serve.
    cache_size:
        Bound on both the marginal LRU cache and the compiled-plan cache.

    A session holds no external resources; it is a context manager only
    so ``with kb.session() as session:`` reads naturally.
    """

    def __init__(
        self,
        model: MaxEntModel,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ):
        if cache_size < 1:
            raise QueryError(f"cache_size must be positive, got {cache_size}")
        self._cache_size = int(cache_size)
        self.set_model(model)

    # -- model lifecycle -----------------------------------------------------------

    @property
    def model(self) -> MaxEntModel:
        """The model the session currently serves."""
        return self._model

    def set_model(self, model: MaxEntModel) -> None:
        """Point the session at a new model, dropping every cache."""
        self._model = model
        self._marginals: OrderedDict[tuple[str, ...], np.ndarray] = (
            OrderedDict()
        )
        self._plans: OrderedDict[str, QueryPlan] = OrderedDict()
        # Filled from the model's shared joint by the first _sync().
        self._fingerprint: int | None = None
        self._joint: FactoredJoint | None = None
        self._hits = 0
        self._misses = 0

    def invalidate(self) -> None:
        """Drop caches without replacing the model (after in-place edits)."""
        self._marginals.clear()
        self._plans.clear()
        self._hits = 0
        self._misses = 0

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    # -- compilation ---------------------------------------------------------------

    def compile(self, query: str | Query | QueryPlan) -> QueryPlan:
        """Compile a query into a plan (cached for string queries)."""
        if isinstance(query, QueryPlan):
            return query
        if isinstance(query, Query):
            return compile_query(self._model.schema, query)
        plan = self._plans.get(query)
        if plan is None:
            plan = compile_query(self._model.schema, query)
            self._plans[query] = plan
            if len(self._plans) > self._cache_size:
                self._plans.popitem(last=False)
        else:
            self._plans.move_to_end(query)
        return plan

    # -- marginal cache ------------------------------------------------------------

    def _sync(self) -> None:
        """Follow the model's current joint; drop stale marginals.

        Called once per logical operation (single evaluation or whole
        batch), not per marginal lookup, so cache hits — the hot path —
        pay one fingerprint hash per operation.
        """
        fingerprint, self._joint = self._model.cached_factored()
        if fingerprint != self._fingerprint:
            self._marginals.clear()
            self._fingerprint = fingerprint

    def marginal(self, names: Sequence[str]) -> np.ndarray:
        """Memoized normalized marginal over ``names`` (schema order).

        The returned array is read-only (it is the live cache entry); copy
        it before mutating.  In-place model edits are detected via
        :meth:`~repro.maxent.model.MaxEntModel.fingerprint` and drop the
        cache, so a mutated model never serves stale marginals.
        """
        self._sync()
        return self._marginal(names)

    def _marginal(self, names: Sequence[str]) -> np.ndarray:
        key = self._model.schema.canonical_subset(names)
        cached = self._marginals.get(key)
        if cached is not None:
            self._hits += 1
            self._marginals.move_to_end(key)
            return cached
        self._misses += 1
        table = self._joint.marginal(key)
        table.flags.writeable = False
        self._marginals[key] = table
        if len(self._marginals) > self._cache_size:
            self._marginals.popitem(last=False)
        return table

    def cache_info(self) -> dict[str, int]:
        """Cache statistics: sizes, marginal-cache hits and misses."""
        return {
            "marginals_cached": len(self._marginals),
            "plans_cached": len(self._plans),
            "hits": self._hits,
            "misses": self._misses,
        }

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, plan: QueryPlan) -> float:
        """Evaluate a compiled plan: two marginal lookups and a ratio."""
        self._sync()
        return self._evaluate(plan)

    def _evaluate(self, plan: QueryPlan) -> float:
        numerator = float(self._marginal(plan.joint_subset)[plan.joint_index])
        if not plan.given:
            return numerator
        denominator = float(
            self._marginal(plan.given_subset)[plan.given_index]
        )
        if denominator <= 0:
            raise QueryError(
                f"evidence in {plan.description} has zero probability"
            )
        return numerator / denominator

    def ask(self, text: str) -> float:
        """Parse-and-evaluate a query string like ``"B=yes | A=smoker"``."""
        return self.evaluate(self.compile(text))

    def probability(
        self, target: Assignment, given: Assignment | None = None
    ) -> float:
        """``P(target | given)`` with labelled assignments."""
        if not target:
            return 1.0
        query = Query(target=dict(target), given=dict(given or {}))
        return self.evaluate(self.compile(query))

    def batch(
        self, queries: Iterable[str | Query | QueryPlan]
    ) -> list[float]:
        """Evaluate many queries, sharing marginal computations.

        Equivalent to (but faster than) calling :meth:`ask` per query
        against a fresh session: every distinct marginal subset is computed
        once.  The model-mutation check runs once per batch — mutating the
        model concurrently with a running batch is a race in any case
        (sessions are not thread-safe).
        """
        plans = [self.compile(query) for query in queries]
        self._sync()
        return [self._evaluate(plan) for plan in plans]

    def distribution(
        self, name: str, given: Assignment | None = None
    ) -> dict[str, float]:
        """Full conditional distribution of one attribute.

        Returns ``{value label: P(name=value | given)}``; probabilities sum
        to 1 (up to floating point).
        """
        attribute = self._model.schema.attribute(name)
        if given and name in given:
            raise QueryError(
                f"cannot ask for the distribution of {name!r}: it is fixed "
                f"by the evidence"
            )
        return {
            value: self.probability({name: value}, given)
            for value in attribute.values
        }

    def most_probable(
        self, given: Assignment | None = None
    ) -> tuple[dict[str, str], float]:
        """Most probable complete assignment consistent with the evidence.

        Returns ``(assignment labels, conditional probability)`` — the MPE
        query of a probabilistic expert system.  The components are
        independent, so each one takes the argmax of its own tensor
        restricted to its evidence, and the probability is the product of
        each component's maximum over its evidence mass; nothing is
        joined.  A tie goes to the assignment that comes first in schema
        order (``np.argmax``'s rule within each component), the cell
        ``np.argmax`` over the dense joint picks.  Cells equal only in
        exact arithmetic may round apart, here and in the dense joint
        alike, and the rounding then decides.
        """
        schema = self._model.schema
        fixed = schema.indices_of(given or {})
        self._sync()
        chosen: dict[str, int] = {}
        probability = 1.0
        for names, tensor in zip(self._joint.components, self._joint.tensors):
            restricted = tensor[tuple(fixed.get(n, slice(None)) for n in names)]
            mass = float(restricted.sum())
            if mass <= 0:
                raise QueryError(
                    f"evidence {schema.labels_of(fixed)} has zero probability"
                )
            best = int(np.argmax(restricted))
            free = [name for name in names if name not in fixed]
            cell = np.unravel_index(best, restricted.shape)
            chosen.update(zip(free, map(int, cell)))
            probability *= float(restricted.ravel()[best]) / mass
        # Evidence first, then the free attributes in schema order.
        ordered = {n: chosen[n] for n in schema.names if n in chosen}
        return schema.labels_of({**fixed, **ordered}), probability

    def __repr__(self) -> str:
        return f"QuerySession({self._model!r}, cache_size={self._cache_size})"
