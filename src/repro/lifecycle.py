"""Live knowledge bases: data stream in, revisions come out.

The paper's sources — surveys, telemetry downlinks — never stop arriving,
and serving traffic cannot stop either.  A :class:`LiveKnowledgeBase` owns
the whole loop:

- a :class:`~repro.data.streaming.TableBuilder` accumulates pending
  observations without keeping raw samples;
- an :class:`UpdatePolicy` decides *when* to refit — after every N pending
  samples, or when a significance probe sees evidence of new structure in
  the pending data (IC3-style: strengthen the model when the data demand
  it, not on a timer);
- updates run through :meth:`ProbabilisticKnowledgeBase.update`'s
  warm-start path, the refined factors land in the same model object, and
  every open :class:`~repro.api.session.QuerySession` picks them up via
  the model fingerprint — no session rebuild, no cold caches beyond the
  entries the update genuinely invalidated;
- every refit appends a :class:`~repro.core.knowledge_base.Revision` to
  the history — and, when a :class:`~repro.store.KBStore` is bound via
  :meth:`LiveKnowledgeBase.bind_store`, persists the new revision (with
  its content-addressed model artifact) durably before returning, so a
  crashed process resumes at the last persisted revision.

Quickstart::

    live = LiveKnowledgeBase.from_data(first_window,
                                       policy=UpdatePolicy(every_n=5000))
    session = live.session()
    for frame in downlink:
        live.observe(frame)            # refits automatically per policy
    session.ask("ANOMALY=detected | VIBRATION=high")   # always current
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from repro.core.knowledge_base import ProbabilisticKnowledgeBase, Revision
from repro.data.contingency import ContingencyTable
from repro.data.dataset import Dataset
from repro.data.streaming import TableBuilder
from repro.discovery.config import DiscoveryConfig
from repro.discovery.trace import DiscoveryResult
from repro.exceptions import DataError
from repro.significance.mml import scan_order


@dataclass(frozen=True)
class UpdatePolicy:
    """When a live knowledge base refits.

    Attributes
    ----------
    every_n:
        Refit once this many pending samples have accumulated; ``None``
        disables the count trigger.  With *both* triggers off
        (``every_n=None, significance_triggered=False``) the live
        knowledge base is in manual mode: observations accumulate until
        an explicit :meth:`LiveKnowledgeBase.flush`.
    significance_triggered:
        Probe the pending data for newly significant cells and refit when
        the probe fires.  The probe runs every ``check_every`` pending
        samples (it costs one scan per order, so it should not run per
        observation).  ``every_n`` stays active alongside the probe as a
        count-based backstop — set ``every_n=None`` for probe-only
        refits.
    check_every:
        Pending-sample interval between significance probes.
    """

    every_n: int | None = 1000
    significance_triggered: bool = False
    check_every: int = 500

    def __post_init__(self) -> None:
        if self.every_n is not None and self.every_n < 1:
            raise DataError(
                f"every_n must be >= 1 (or None), got {self.every_n}"
            )
        if self.check_every < 1:
            raise DataError(
                f"check_every must be >= 1, got {self.check_every}"
            )


class LiveKnowledgeBase:
    """A knowledge base that owns its data stream and refit policy."""

    def __init__(
        self,
        kb: ProbabilisticKnowledgeBase,
        policy: UpdatePolicy | None = None,
    ):
        if not kb.can_update:
            raise DataError(
                "LiveKnowledgeBase needs an updatable knowledge base (built "
                "with from_data, or loaded from a file of format 3 or later "
                "with its audit trail)"
            )
        self.kb = kb
        self.policy = policy or UpdatePolicy()
        self._pending = TableBuilder(kb.schema)
        self._since_probe = 0
        self._store = None
        self._store_name: str | None = None

    @classmethod
    def from_data(
        cls,
        data: ContingencyTable | Dataset,
        config: DiscoveryConfig | None = None,
        policy: UpdatePolicy | None = None,
    ) -> "LiveKnowledgeBase":
        """Fit the first window and start the live loop."""
        return cls(
            ProbabilisticKnowledgeBase.from_data(data, config), policy=policy
        )

    @classmethod
    def from_store(
        cls,
        store,
        name: str,
        policy: UpdatePolicy | None = None,
    ) -> "LiveKnowledgeBase":
        """Resume a live loop from a stored knowledge base's latest revision.

        The store stays bound: every subsequent refit persists its
        revision through ``store.save(name, ...)``.
        """
        live = cls(store.load(name), policy=policy)
        live.bind_store(store, name, save_now=False)
        return live

    # -- persistence --------------------------------------------------------------

    def bind_store(self, store, name: str, save_now: bool = True) -> None:
        """Persist every future refit to ``store`` under ``name``.

        With ``save_now`` (the default) the current state is persisted
        immediately, so the store holds revision history from this
        moment even if no refit ever triggers.
        """
        self._store = store
        self._store_name = name
        if save_now:
            self._persist()

    def _persist(self) -> None:
        if self._store is not None:
            self._store.save(self._store_name, self.kb)

    # -- state --------------------------------------------------------------------

    @property
    def schema(self):
        """The served knowledge base's attribute schema."""
        return self.kb.schema

    @property
    def pending(self) -> int:
        """Observations accumulated since the last refit."""
        return self._pending.total

    @property
    def sample_size(self) -> int:
        """Samples behind the currently served model (excludes pending)."""
        return self.kb.sample_size

    @property
    def history(self) -> tuple[Revision, ...]:
        """Every revision, oldest first (revision 0 is the initial fit)."""
        return tuple(self.kb.revisions)

    # -- observing ----------------------------------------------------------------

    @staticmethod
    def _tally(builder: TableBuilder, observation) -> None:
        if isinstance(observation, Mapping):
            builder.add_record(observation)
        elif isinstance(observation, Sequence) and not isinstance(
            observation, str
        ):
            builder.add_sample(observation)
        else:
            raise DataError(
                f"observe expects a record dict or a sample sequence, got "
                f"{type(observation).__name__}"
            )

    def observe(self, observation) -> Revision | None:
        """Tally one observation (a record dict or a schema-order sample).

        Returns the new :class:`Revision` if the policy triggered a refit,
        else None.
        """
        self._tally(self._pending, observation)
        return self._maybe_update()

    def observe_batch(self, samples: Iterable) -> Revision | None:
        """Tally a batch of observations (records or samples).

        The batch is staged and validated as a whole before any of it
        lands in the pending accumulator, so a bad item partway through
        cannot leave earlier items half-counted.
        """
        staged = TableBuilder(self.schema)
        for observation in samples:
            self._tally(staged, observation)
        if staged.total == 0:
            return None
        self._pending.merge(staged)
        return self._maybe_update()

    def add_table(self, table: ContingencyTable) -> Revision | None:
        """Merge a pre-tallied table (e.g. a shard's accumulator)."""
        self._pending.add_table(table)
        return self._maybe_update()

    def flush(self) -> Revision | None:
        """Force a refit of everything pending; None if nothing pending.

        With a bound store the new revision is persisted before this
        returns — the durable history never lags the served model by
        more than the still-pending window.
        """
        if self._pending.total == 0:
            return None
        revision = self.kb.ingest(self._pending)
        self._since_probe = 0
        self._persist()
        return revision

    # -- policy -------------------------------------------------------------------

    def _maybe_update(self) -> Revision | None:
        policy = self.policy
        pending = self._pending.total
        if (
            policy.significance_triggered
            and pending - self._since_probe >= policy.check_every
        ):
            self._since_probe = pending
            merged = self.kb.discovery.table + self._pending.snapshot()
            if scan_for_new_significance(merged, self.kb.discovery):
                return self.flush()
        if policy.every_n is not None and pending >= policy.every_n:
            return self.flush()
        return None

    # -- serving ------------------------------------------------------------------

    def session(self, cache_size: int | None = None):
        """Open a query session; it stays valid across refits.

        The session tracks refits through the model fingerprint, so a
        policy-triggered refit is picked up on the next query.
        """
        return self.kb.session(cache_size=cache_size)

    def query(self, text: str) -> float:
        """Answer a textual probability query against the current model."""
        return self.kb.query(text)

    def probability(self, target, given=None) -> float:
        """``P(target | given)`` against the current model."""
        return self.kb.probability(target, given)

    def __repr__(self) -> str:
        return (
            f"LiveKnowledgeBase(N={self.kb.sample_size}, "
            f"pending={self.pending}, revisions={len(self.kb.revisions)})"
        )


def scan_for_new_significance(
    table: ContingencyTable, result: DiscoveryResult
) -> bool:
    """Probe: would pending data change the discovered structure?

    Scans every order of ``table`` against the *current* model and
    constraint set of ``result`` (with its config's priors and order cap)
    and reports whether any unconstrained cell tests significant.  This is
    a heuristic trigger (the model's targets come from the pre-delta
    table), meant for update policies that refit on evidence of drift
    rather than on a sample count.
    """
    config = result.config or DiscoveryConfig()
    schema = table.schema
    highest = min(config.max_order or len(schema), len(schema))
    for order in range(2, highest + 1):
        try:
            tests = scan_order(
                table, result.model, order, result.constraints, config.priors
            )
        except DataError:
            # No candidate cells left at this order.
            continue
        if any(test.significant for test in tests):
            return True
    return False
