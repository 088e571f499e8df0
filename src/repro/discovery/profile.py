"""Per-stage instrumentation of a discovery run.

The engine folds each scan, verify and fit call into one
:class:`DiscoveryProfile`; ``repro discover --profile`` renders it, and
the scenario fleet's latency SLOs read its per-call samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DiscoveryProfile"]


@dataclass
class DiscoveryProfile:
    """Per-stage wall-clock of a discovery run (scan / fit / verify).

    ``scan`` covers candidate-pool evaluations that adopted a constraint;
    ``verify`` covers the terminating scan of each order (the one that
    confirmed nothing significant) and a rerun's per-constraint
    re-verification tests; ``fit`` covers the solver.  Rendered by
    ``repro discover --profile``.

    Scan and verify seconds time the columnar scan and the pick of the
    adopted cell.  They do not include building the scan's
    :class:`~repro.significance.result.CellTest` rows: the kernel returns
    them as a :class:`~repro.significance.kernels.LazyScanTests` that
    builds them when the trace is first read.

    Alongside the stage totals, ``*_call_seconds`` keep the individual
    call durations (one entry per scan/fit/verify call, in call order) so
    per-stage latency percentiles are computable —
    :meth:`stage_percentile_ms` is what the scenario fleet's latency SLOs
    read.

    ``fit_sweeps`` sums the fits' iterations
    (:attr:`~repro.maxent.dual.FitResult.sweeps`): Newton iterations for
    the default ``"dual"`` solver, sweeps for Gevarter's; the rendered row
    still calls them sweeps.  ``fit_cells`` counts the tensor cells the
    fit worked on, summed over iterations and fits
    (:attr:`~repro.maxent.dual.FitResult.cells_swept`): an iteration works
    on one small tensor per connected component of the constraint graph
    and skips the components already converged, so this is
    what shows the fit's cost following the adopted structure rather than
    the joint's size.  The Gevarter solver does not report it.
    ``scan_model_cells`` is the scans' counterpart: the component-tensor
    cells each candidate-pool scan (scan and verify stages alike)
    reduced to form its marginals
    (:attr:`~repro.maxent.model.FactoredJoint.cells_reduced`), summed
    over the run.  The scalar ``"reference"`` oracle does not report it.

    ``scan_paths`` records, per scanned order, which scan implementation
    the engine chose (``"serial"`` kernel, ``"sharded"`` executor, or the
    ``"reference"`` oracle) and the candidate-pool size that drove the
    choice — the audit trail for the serial-vs-sharded auto-selection.

    Sharded orders additionally record what the transport moved:
    ``bytes_pickled`` / ``bytes_shared`` are tensor-payload bytes shipped
    inline vs through shared-memory segments, ``broadcasts_skipped`` counts
    joint rebroadcasts amortized away by an unchanged model fingerprint,
    and ``attach_ns`` is cumulative worker-side segment attach time.  The
    run totals live in the flat fields; ``transports`` keeps the same
    counters per sharded order.  Rendered by ``repro discover --profile``.
    """

    scan_seconds: float = 0.0
    scan_calls: int = 0
    scan_cells: int = 0
    verify_seconds: float = 0.0
    verify_calls: int = 0
    verify_cells: int = 0
    fit_seconds: float = 0.0
    fit_calls: int = 0
    fit_sweeps: int = 0
    fit_cells: int = 0
    scan_model_cells: int = 0
    scan_paths: list[dict] = field(default_factory=list)
    scan_call_seconds: list[float] = field(default_factory=list)
    verify_call_seconds: list[float] = field(default_factory=list)
    fit_call_seconds: list[float] = field(default_factory=list)
    bytes_pickled: int = 0
    bytes_shared: int = 0
    broadcasts_total: int = 0
    broadcasts_skipped: int = 0
    attach_ns: int = 0
    transports: list[dict] = field(default_factory=list)

    def record_scan_path(self, order: int, path: str, cells: int) -> None:
        self.scan_paths.append(
            {"order": order, "path": path, "cells": cells}
        )

    def add_transport(self, order: int, label: str, counters: dict) -> None:
        """Fold one sharded order's transport counters into the profile.

        ``label`` names the medium (``"pipe"`` or ``"shm"``).
        """
        self.bytes_pickled += counters.get("bytes_pickled", 0)
        self.bytes_shared += counters.get("bytes_shared", 0)
        self.broadcasts_total += counters.get("broadcasts_total", 0)
        self.broadcasts_skipped += counters.get("broadcasts_skipped", 0)
        self.attach_ns += counters.get("attach_ns", 0)
        self.transports.append(
            {"order": order, "transport": label, **counters}
        )

    def add_scan(
        self, seconds: float, cells: int, model_cells: int = 0
    ) -> None:
        self.scan_seconds += seconds
        self.scan_calls += 1
        self.scan_cells += cells
        self.scan_model_cells += model_cells
        self.scan_call_seconds.append(seconds)

    def add_verify(
        self, seconds: float, cells: int, model_cells: int = 0
    ) -> None:
        self.verify_seconds += seconds
        self.verify_calls += 1
        self.verify_cells += cells
        self.scan_model_cells += model_cells
        self.verify_call_seconds.append(seconds)

    def add_fit(self, seconds: float, sweeps: int, cells: int = 0) -> None:
        self.fit_seconds += seconds
        self.fit_calls += 1
        self.fit_sweeps += sweeps
        self.fit_cells += cells
        self.fit_call_seconds.append(seconds)

    @property
    def total_seconds(self) -> float:
        return self.scan_seconds + self.verify_seconds + self.fit_seconds

    def stage_samples(self, stage: str) -> list[float]:
        """Per-call wall-clock samples (seconds) for one stage.

        ``stage`` is ``"scan"``, ``"fit"``, or ``"verify"``; the samples
        are the individual call durations folded into the stage totals,
        in call order — the population the latency-SLO percentiles are
        computed over.
        """
        try:
            return {
                "scan": self.scan_call_seconds,
                "fit": self.fit_call_seconds,
                "verify": self.verify_call_seconds,
            }[stage]
        except KeyError:
            raise ValueError(
                f"unknown profile stage {stage!r}; "
                f"expected scan, fit, or verify"
            ) from None

    def stage_percentile_ms(self, stage: str, q: float) -> float:
        """Nearest-rank percentile of one stage's call latencies, in ms.

        Returns 0.0 when the stage recorded no calls (an order-0 run or a
        loaded result), so SLO checks treat an idle stage as trivially
        within budget.
        """
        ordered = sorted(self.stage_samples(stage))
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return 1e3 * ordered[rank]

    def rows(self) -> list[list[str]]:
        """Table rows (stage, calls, work, seconds, share) for rendering."""
        total = self.total_seconds or 1.0
        rows = []
        for stage, seconds, calls, work in (
            ("scan", self.scan_seconds, self.scan_calls,
             f"{self.scan_cells} cells"),
            ("fit", self.fit_seconds, self.fit_calls,
             f"{self.fit_sweeps} sweeps, {self.fit_cells} cells"),
            ("verify", self.verify_seconds, self.verify_calls,
             f"{self.verify_cells} cells"),
        ):
            rows.append(
                [stage, str(calls), work, f"{seconds:.4f}",
                 f"{100.0 * seconds / total:.1f}%"]
            )
        return rows
