"""Configuration of the discovery loop."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import DataError
from repro.maxent.constraints import (
    CellConstraint,
    cellkey_from_dict,
    cellkey_to_dict,
)
from repro.significance.mml import MMLPriors

#: Solver names accepted by :class:`DiscoveryConfig`.
SOLVERS = ("ipf", "gevarter")


@dataclass(frozen=True)
class DiscoveryConfig:
    """Knobs of the Figure-3 procedure.

    Attributes
    ----------
    max_order:
        Highest interaction order to scan; ``None`` means all the way to R
        (the full attribute count), the paper's default.
    priors:
        MML hypothesis priors; the default cancels the prior terms (Eq 63).
    solver:
        ``"ipf"`` (fast sweeps) or ``"gevarter"`` (the paper's sequential
        scalar updates with full traces).
    tol / max_sweeps:
        Solver convergence settings for each refit.
    max_constraints:
        Safety cap on the total number of cell constraints adopted;
        ``None`` means unlimited (the scan itself terminates because each
        cell is adopted at most once).
    given_constraints:
        Cell constraints known *a priori* — the paper's "higher-order
        marginals ... originally given as significant".  They are imposed
        before the first scan, participate in the Eq-41 range bounds, and
        are never re-tested.
    max_workers:
        Worker-process count for the per-order candidate scans.  1 (the
        default) runs serially; above 1 the engine shards each scan
        across a :class:`~repro.parallel.scan.ShardedScanExecutor`, with
        adoption decisions bit-identical to the serial path.  Purely an
        execution knob: it never changes results, only wall-clock — and
        for that reason it is machine-local and deliberately *not*
        serialized with the knowledge base (a saved artifact must not
        spawn process pools on whatever host later loads it).
    parallel_scan_threshold:
        Minimum candidate-pool size (total marginal cells at an order)
        for a sharded scan to engage.  Below it the per-shard dispatch
        and merge overhead dwarfs the scan itself, so the engine runs
        the serial kernel even when ``max_workers > 1`` — which also
        skips spawning workers entirely when every order stays small.
        The chosen path per order lands in
        :attr:`~repro.discovery.profile.DiscoveryProfile.scan_paths`.
        Machine-local like ``max_workers`` and likewise not serialized.
    worker_addresses:
        ``HOST:PORT`` addresses of remote ``repro worker`` daemons to
        shard scans across (each address is one pool slot).  Empty (the
        default) leaves a ``max_workers > 1`` run to
        ``REPRO_WORKER_ADDRESSES``, and to local workers when no
        addresses are configured anywhere.  How tensors
        move is not configured: it follows from the pool (shared memory
        for local workers where the platform has it, inline otherwise —
        see :func:`repro.parallel.shm.open_codec`), with bit-identical
        results either way.  The most machine-local knob of all — it
        names sockets on a specific network — so like ``max_workers`` it
        is deliberately *not* serialized: a stored KB must never make a
        loading host dial someone else's workers.
    """

    max_order: int | None = None
    priors: MMLPriors = field(default_factory=MMLPriors.equal)
    solver: str = "ipf"
    tol: float = 1e-10
    max_sweeps: int = 500
    max_constraints: int | None = None
    given_constraints: tuple[CellConstraint, ...] = ()
    max_workers: int = 1
    parallel_scan_threshold: int = 512
    worker_addresses: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.given_constraints, tuple):
            object.__setattr__(
                self, "given_constraints", tuple(self.given_constraints)
            )
        if self.solver not in SOLVERS:
            raise DataError(
                f"unknown solver {self.solver!r}; choose one of {SOLVERS}"
            )
        if self.max_order is not None and self.max_order < 2:
            raise DataError(
                f"max_order must be >= 2 (or None), got {self.max_order}"
            )
        if self.max_constraints is not None and self.max_constraints < 0:
            raise DataError(
                f"max_constraints must be >= 0, got {self.max_constraints}"
            )
        if self.tol <= 0:
            raise DataError(f"tol must be positive, got {self.tol}")
        if self.max_sweeps < 1:
            raise DataError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if self.max_workers < 1:
            raise DataError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.parallel_scan_threshold < 0:
            raise DataError(
                f"parallel_scan_threshold must be >= 0, got "
                f"{self.parallel_scan_threshold}"
            )
        if not isinstance(self.worker_addresses, tuple):
            object.__setattr__(
                self, "worker_addresses", tuple(self.worker_addresses)
            )
        for address in self.worker_addresses:
            if not isinstance(address, str) or ":" not in address:
                raise DataError(
                    f"worker address {address!r} is not of the form "
                    f"HOST:PORT"
                )

    def to_dict(self) -> dict:
        """JSON-ready dict (round-tripped in the knowledge-base format)."""
        return {
            "max_order": self.max_order,
            "priors": {
                "p_h1": self.priors.p_h1,
                "p_h2_prime": self.priors.p_h2_prime,
            },
            "solver": self.solver,
            "tol": self.tol,
            "max_sweeps": self.max_sweeps,
            "max_constraints": self.max_constraints,
            "given_constraints": [
                {
                    **cellkey_to_dict(given.key),
                    "probability": given.probability,
                }
                for given in self.given_constraints
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiscoveryConfig":
        """Inverse of :meth:`to_dict`."""
        try:
            priors = data.get("priors") or {}
            return cls(
                max_order=data.get("max_order"),
                priors=MMLPriors(
                    p_h1=float(priors.get("p_h1", 0.5)),
                    p_h2_prime=float(priors.get("p_h2_prime", 0.5)),
                ),
                solver=data.get("solver", "ipf"),
                tol=float(data.get("tol", 1e-10)),
                max_sweeps=int(data.get("max_sweeps", 500)),
                max_constraints=data.get("max_constraints"),
                given_constraints=tuple(
                    CellConstraint(
                        *cellkey_from_dict(item), float(item["probability"])
                    )
                    for item in data.get("given_constraints", [])
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DataError(
                f"malformed discovery config dict: {error}"
            ) from None
