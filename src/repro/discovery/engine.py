"""The discovery loop of Figure 3, plus warm-started rediscovery.

Starting from the independence model (first-order margins only), the engine
scans every marginal cell at order 2 with the MML test, adopts the most
significant cell as a new constraint, refits the ``a`` values (warm-started,
per Figure 4's "starting with the last previously calculated a values"),
and rescans — until no cell at that order is significant.  It then moves to
order 3 and so on up to R (or ``config.max_order``).  A cell the settled
model already meets — typically a determined cell, fixed by its containing
marginal and constrained siblings — joins with factor 1 and no refit: the
maxent solution has not moved.

When data arrives incrementally, :meth:`DiscoveryEngine.rerun` (run by
:meth:`~repro.core.knowledge_base.ProbabilisticKnowledgeBase.update`)
extends Figure 4's warm start across *revisions*: the previous run's
adopted constraints are re-imposed — retargeted at the new table's observed
probabilities — and the fit restarts from the previous ``a`` values, so
only one verification scan per order is needed instead of one scan per
adoption.  Because the constraint system has a unique positive
solution, the warm start changes convergence speed, never the fitted model:
when the constraint set is stable, the rerun lands on exactly the model a
cold refit of the merged table would.
"""

from __future__ import annotations

import time

from repro.data.contingency import ContingencyTable
from repro.discovery.config import DiscoveryConfig
from repro.discovery.profile import DiscoveryProfile
from repro.discovery.trace import DiscoveryResult, ScanRecord
from repro.exceptions import ConstraintError, DataError, StaleConstraintError
from repro.maxent.constraints import ConstraintSet
from repro.maxent.dual import (
    _CELL_TARGET_CEILING,
    _POLISH_FLOOR,
    fit_dual,
    warm_start_model,
)
from repro.maxent.model import FactoredJoint, MaxEntModel
from repro.significance.kernels import OrderScanKernel
from repro.significance.mml import (
    evaluate_cell,
    most_significant,
    reference_scan_order,
)

# perfbench/discover_child.py and perfbench/serve_launcher.py wrap this
# name to time fits.  The engine calls fit_dual by its own name, so the
# wrapper never runs; the alias goes when those wrappers wrap fit_dual.
fit_ipf = fit_dual

__all__ = [
    "DiscoveryEngine",
    "StaleConstraintError",
    "discover",
]

#: Scan implementations an engine can run: the vectorized kernel layer
#: (default) or the scalar cell-by-cell oracle it is verified against.
SCAN_BACKENDS = ("kernel", "reference")

class DiscoveryEngine:
    """Finds all statistically significant correlations in a table.

    Parameters
    ----------
    config:
        Knobs of the Figure-3 procedure.
    scan_backend:
        ``"kernel"`` (default) runs the vectorized
        :class:`~repro.significance.kernels.OrderScanKernel`, reusing
        data-side statistics across adoptions within an order;
        ``"reference"`` runs the scalar cell-by-cell oracle.  Both produce
        bit-identical results — the seam exists so benchmarks and property
        tests can enforce exactly that.
    executor:
        A :class:`~repro.parallel.scan.ShardedScanExecutor` to spread
        per-order scans across local worker processes.  When omitted and
        ``config.max_workers > 1`` (kernel backend only), the engine
        creates — and owns — one; call :meth:`close` (or use the engine
        as a context manager) to stop its workers.  A config-created
        executor only engages on orders whose candidate pool reaches
        ``config.parallel_scan_threshold`` — smaller orders run the
        serial kernel (and spawn no workers), with the chosen path per
        order recorded in ``profile.scan_paths``.  An executor passed in
        explicitly is always used.  Sharded results are merged in
        canonical candidate order, so adoption decisions are
        bit-identical to the serial path regardless of worker count.
    """

    def __init__(
        self,
        config: DiscoveryConfig | None = None,
        scan_backend: str = "kernel",
        executor=None,
    ):
        self.config = config or DiscoveryConfig()
        if scan_backend not in SCAN_BACKENDS:
            raise DataError(
                f"unknown scan backend {scan_backend!r}; "
                f"choose one of {SCAN_BACKENDS}"
            )
        self.scan_backend = scan_backend
        self.profile = DiscoveryProfile()
        # The last fit's model while it meets every constraint to within
        # the solver's polishing floor (see _refit), and the last model
        # factored with its joint (see _factored).
        self._settled: MaxEntModel | None = None
        self._joint: tuple[MaxEntModel, FactoredJoint] | None = None
        self._owns_executor = False
        if (
            executor is None
            and scan_backend == "kernel"
            and self.config.max_workers > 1
        ):
            from repro.parallel.scan import ShardedScanExecutor

            executor = ShardedScanExecutor(self.config.max_workers)
            self._owns_executor = True
        self.executor = executor

    def close(self) -> None:
        """Stop a config-created executor's workers; idempotent.

        An executor passed in explicitly is the caller's to close.
        """
        if self._owns_executor and self.executor is not None:
            self.executor.close()
            self.executor = None
            self._owns_executor = False

    def __enter__(self) -> "DiscoveryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, table: ContingencyTable) -> DiscoveryResult:
        """Execute the full Figure-3 procedure on a contingency table."""
        if table.total == 0:
            raise DataError("cannot run discovery on an empty table")
        config = self.config
        schema = table.schema
        self.profile = DiscoveryProfile()
        self._settled = self._joint = None
        constraints = ConstraintSet.first_order(table)
        model = MaxEntModel.independent(
            schema,
            {name: constraints.margin(name) for name in schema.names},
        )
        if config.given_constraints:
            # The paper's "originally given as significant" marginals:
            # imposed before the first scan and never re-tested.
            for given in config.given_constraints:
                constraints.add_cell(given)
            model = self._fit(constraints, model).model
        self._num_given = len(config.given_constraints)
        result = DiscoveryResult(
            table=table,
            model=model,
            constraints=constraints,
            config=config,
            profile=self.profile,
        )

        highest_order = config.max_order or len(schema)
        highest_order = min(highest_order, len(schema))
        for order in range(2, highest_order + 1):
            model = self._scan_level(table, order, constraints, model, result)
        result.model = model
        return result

    def rerun(
        self, table: ContingencyTable, previous: DiscoveryResult
    ) -> DiscoveryResult:
        """Warm-started rediscovery of an updated table.

        Per order, the previous run's adopted constraints are re-imposed in
        their original adoption order — each one first re-verified with the
        MML test against the current intermediate model (the same test a
        cold greedy run applies at that point, against the same converged
        model), then retargeted at the new table's observed probability
        and refitted warm.  The chain starts from the previous revision's
        fitted *margin* factors
        (Figure 4's "last previously calculated a values") and evolves
        like cold discovery's own within-run warm starts; re-adopted cell
        factors are re-derived from neutral 1.0 seeds — measured faster
        than carrying the previous final values, which were calculated
        amid the full constraint set and overshoot in the prefix context.
        One verification scan per order then checks for newly significant
        cells, continuing the ordinary greedy loop only where it finds
        some.

        Because each intermediate fit converges to the unique maxent
        solution of its constraint set, the warm start changes convergence
        speed, not answers: the expensive part a rerun skips is the full
        candidate scan between adoptions, replaced by one test per
        re-adopted constraint.  When the new data stop supporting an old
        constraint a :class:`StaleConstraintError` is raised (and a
        :class:`ConstraintError` when they outright contradict one);
        callers should fall back to a cold :meth:`run` in either case.
        A rerun can differ from a cold refit only on a near-tie: a flip in
        the greedy argmax between equally defensible cells.  Both outcomes
        then satisfy the same termination criterion, but the adopted cells
        may differ.
        """
        if table.total == 0:
            raise DataError("cannot run rediscovery on an empty table")
        config = self.config
        schema = table.schema
        if schema != previous.constraints.schema:
            raise DataError(
                "rediscovery table schema does not match the previous "
                "discovery's schema"
            )
        self.profile = DiscoveryProfile()
        self._settled = self._joint = None
        constraints = ConstraintSet.first_order(table)
        for given in config.given_constraints:
            # A-priori constraints keep their given targets; they are
            # knowledge, not data.
            constraints.add_cell(given)
        self._num_given = len(config.given_constraints)
        model = warm_start_model(constraints, previous.model)
        result = DiscoveryResult(
            table=table,
            model=model,
            constraints=constraints,
            config=config,
            profile=self.profile,
        )
        # Sync the first-order factors to the merged table's margins (and
        # any given constraints) before the first re-verification.  Like
        # cold discovery's initial model build, this is not a scan; its
        # sweeps are folded into the first readoption record below.
        fit = self._fit(constraints, model)
        model = fit.model
        carried_sweeps = fit.sweeps

        # The re-verification chain replays cold discovery's adoption
        # sequence (minus the candidate scans), each fit at the configured
        # tolerance.
        highest_order = config.max_order or len(schema)
        highest_order = min(highest_order, len(schema))
        previous_cells = previous.constraints.cells
        for order in range(2, highest_order + 1):
            readopted: list = []
            order_cells = table.num_cells_of_order(order)
            sweeps = carried_sweeps
            for cell in previous_cells:
                if cell.order != order or constraints.has_cell(cell.key):
                    continue
                if self._at_capacity(constraints):
                    # Same max_constraints cap the cold loop enforces;
                    # re-adoption follows the original adoption order, so
                    # a lowered cap keeps the earliest adoptions.
                    break
                verify_start = time.perf_counter()
                joint = self._factored(model)
                test = evaluate_cell(
                    table,
                    model,
                    cell.attributes,
                    cell.values,
                    constraints,
                    config.priors,
                    candidate_pool=order_cells - len(constraints.cells_of_order(order)),
                    predicted=float(joint.marginal(cell.attributes)[cell.values]),
                )
                self.profile.add_verify(
                    time.perf_counter() - verify_start, 1
                )
                if not test.significant:
                    raise StaleConstraintError(
                        f"previously adopted constraint {cell.key} is no "
                        f"longer significant on the updated table "
                        f"(m2-m1={test.delta:+.3f})"
                    )
                retargeted = constraints.cell_from_table(
                    table, cell.attributes, cell.values
                )
                constraints.add_cell(retargeted)
                model, fit_sweeps = self._refit(
                    constraints, model, retargeted, test.predicted_probability
                )
                sweeps += fit_sweeps
                readopted.append(cell.key)
            if readopted:
                carried_sweeps = 0
                result.scans.append(
                    ScanRecord(
                        order=order,
                        tests=[],
                        chosen=None,
                        fit_sweeps=sweeps,
                        readopted=tuple(readopted),
                    )
                )
            model = self._scan_level(table, order, constraints, model, result)
        result.model = model
        return result

    def _scan_level(
        self,
        table: ContingencyTable,
        order: int,
        constraints: ConstraintSet,
        model: MaxEntModel,
        result: DiscoveryResult,
    ) -> MaxEntModel:
        """Repeat scan-adopt-refit at one order until nothing is significant.

        With the kernel backend one
        :class:`~repro.significance.kernels.OrderScanKernel` serves the
        whole loop: data-side statistics (counts, coefficient arrays,
        feasible ranges) persist across adoptions and only the subsets a
        new constraint touches are recomputed.  With an executor the same
        kernels run sharded across worker processes — one restricted
        kernel per worker, adoptions broadcast after each round — and the
        merged scans are bit-identical to the serial kernel's.
        """
        config = self.config
        profile = self.profile
        kernel: OrderScanKernel | None = None
        executor = self.executor if self.scan_backend == "kernel" else None
        pool_cells = table.num_cells_of_order(order)
        if (
            executor is not None
            and self._owns_executor
            and pool_cells < config.parallel_scan_threshold
        ):
            # Small pool: shard dispatch + merge costs more than the scan,
            # so a config-created executor is bypassed for this order (an
            # explicitly supplied executor is the caller's decision and is
            # always honored).  Falling through to the serial kernel also
            # means a run whose orders all stay small never spawns worker
            # processes at all (the pool starts them lazily on first use).
            executor = None
        if executor is not None:
            profile.record_scan_path(order, "sharded", pool_cells)
            executor.begin_order(table, order, constraints, config.priors)
        elif self.scan_backend == "kernel":
            profile.record_scan_path(order, "serial", pool_cells)
            kernel = OrderScanKernel(table, order, constraints, config.priors)
        else:
            profile.record_scan_path(order, "reference", pool_cells)
        counters_before = (
            executor.counters.snapshot() if executor is not None else None
        )
        try:
            return self._scan_level_loop(
                table, order, constraints, model, result, kernel, executor
            )
        finally:
            if executor is not None:
                executor.end_order()
                profile.add_transport(
                    order,
                    executor.transport,
                    executor.counters.delta(counters_before).to_dict(),
                )

    def _scan_level_loop(
        self,
        table: ContingencyTable,
        order: int,
        constraints: ConstraintSet,
        model: MaxEntModel,
        result: DiscoveryResult,
        kernel: OrderScanKernel | None,
        executor,
    ) -> MaxEntModel:
        config = self.config
        profile = self.profile
        while True:
            scan_start = time.perf_counter()
            model_cells = 0
            if executor is not None:
                tests, best = executor.scan(model)
                model_cells = executor.last_model_cells
            elif kernel is not None:
                # Both scan paths pick the adopted cell from the columns;
                # the lazy test list builds its other CellTest rows only
                # when the trace is read.
                tests = kernel.scan(self._factored(model))
                best = tests.best()
                model_cells = kernel.last_model_cells
            else:
                tests = reference_scan_order(
                    table, model, order, constraints, config.priors
                )
                best = most_significant(tests)
            scan_seconds = time.perf_counter() - scan_start
            capped = best is not None and self._at_capacity(constraints)
            if capped:
                best = None
            if best is None:
                # The terminating scan is the order's verification pass —
                # unless the capacity cap cut it off mid-find, in which
                # case it did real scanning work and is billed as such.
                if capped:
                    profile.add_scan(scan_seconds, len(tests), model_cells)
                else:
                    profile.add_verify(scan_seconds, len(tests), model_cells)
                result.scans.append(
                    ScanRecord(order=order, tests=tests, chosen=None)
                )
                return model
            profile.add_scan(scan_seconds, len(tests), model_cells)

            constraint = constraints.cell_from_table(
                table, best.attributes, best.values
            )
            try:
                constraints.add_cell(constraint)
            except ConstraintError:
                # Degenerate candidate (e.g. target indistinguishable from a
                # containing marginal); record the scan and stop this order.
                result.scans.append(
                    ScanRecord(order=order, tests=tests, chosen=None)
                )
                return model
            if executor is not None:
                executor.notify_adopted(constraint)
            elif kernel is not None:
                kernel.notify_adopted(constraint.key)
            model, fit_sweeps = self._refit(
                constraints, model, constraint, best.predicted_probability
            )
            result.scans.append(
                ScanRecord(
                    order=order,
                    tests=tests,
                    chosen=best,
                    fit_sweeps=fit_sweeps,
                )
            )

    def _refit(
        self,
        constraints: ConstraintSet,
        model: MaxEntModel,
        cell,
        predicted: float,
    ) -> tuple[MaxEntModel, int]:
        """Refit after ``cell`` joined ``constraints``: (model, sweeps).

        ``predicted`` is the cell's probability under ``model``, from the
        test that adopted it.  When ``model`` is a settled fit and already
        meets ``cell``'s target as closely, it is the maxent model of the
        enlarged set as well — it satisfies the new constraint and has the
        most entropy over a larger feasible set — so no fit runs and the
        cell joins with Eq 116's neutral factor 1.  A determined cell
        (Eq 41), whose target its containing marginal and constrained
        siblings fix, is the usual case.  A zero target always fits: its
        cells must become exact zeros.
        """
        if not (
            model is self._settled
            and 0.0 < cell.probability < _CELL_TARGET_CEILING
            and abs(predicted - cell.probability) < _POLISH_FLOOR * self.config.tol
        ):
            fit = self._fit(constraints, model)
            return fit.model, fit.sweeps
        adopted = model.copy()
        adopted.cell_factors[cell.key] = 1.0
        self._settled = adopted
        joint = self._joint
        if (
            joint is not None
            and joint[0] is model
            and any(set(cell.attributes) <= set(names) for names in joint[1].components)
        ):
            # Inside one component the factor 1 leaves every component
            # tensor as it was, bit for bit.
            self._joint = (adopted, joint[1])
        return adopted, 0

    def _factored(self, model: MaxEntModel) -> FactoredJoint:
        """``model.factored()``, built once per model and carried across
        adoptions that need no fit."""
        if self._joint is None or self._joint[0] is not model:
            self._joint = (model, model.factored())
        return self._joint[1]

    def _fit(self, constraints: ConstraintSet, warm_start: MaxEntModel):
        config = self.config
        fit_start = time.perf_counter()
        fit = fit_dual(
            constraints,
            initial=warm_start,
            tol=config.tol,
            max_sweeps=config.max_sweeps,
        )
        self.profile.add_fit(
            time.perf_counter() - fit_start,
            fit.sweeps,
            fit.cells_swept,
        )
        settled = fit.max_violation < _POLISH_FLOOR * config.tol
        self._settled = fit.model if settled else None
        return fit

    def _at_capacity(self, constraints: ConstraintSet) -> bool:
        cap = self.config.max_constraints
        if cap is None:
            return False
        adopted = len(constraints.cells) - getattr(self, "_num_given", 0)
        return adopted >= cap


def discover(
    table: ContingencyTable, config: DiscoveryConfig | None = None
) -> DiscoveryResult:
    """Convenience wrapper: run discovery with an optional config.

    A ``config.max_workers > 1`` pool lives only for this run; hold a
    :class:`DiscoveryEngine` directly to amortize worker startup across
    runs.
    """
    with DiscoveryEngine(config) as engine:
        return engine.run(table)

