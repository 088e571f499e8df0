"""Parallel execution subsystem: worker pools, sharded scans, batch serving.

Four layers:

- :mod:`repro.parallel.pool` — :class:`WorkerPool`, the fork/spawn-safe
  process pool with pinned per-worker state and a deterministic in-process
  fallback (``max_workers=1`` or ``inline=True``), plus the per-message
  :func:`~repro.parallel.pool.dispatch` every worker loop (pipe or TCP)
  shares;
- :mod:`repro.parallel.shm` — the two tensor codecs, derived from the
  pool: ``shm`` (shared-memory segments) for local workers where the
  platform has shared memory, ``inline`` (arrays inside the messages)
  for remote workers and everywhere else;
- :mod:`repro.parallel.scan` — :class:`ShardedScanExecutor`, discovery's
  per-order candidate scans sharded by attribute subset with bit-identical
  merged results over one worker protocol for every pool (plumbed
  through ``DiscoveryEngine(executor=...)`` /
  ``DiscoveryConfig.max_workers``);
- :mod:`repro.parallel.query` — :class:`ParallelQueryEvaluator`, batch
  query evaluation across per-worker sessions with their own plan and
  marginal caches (plumbed through ``kb.session(max_workers=...)``).
"""

from repro.exceptions import ParallelError
from repro.parallel.pool import (
    WorkerPool,
    default_start_method,
    shard_bounds,
)
from repro.parallel.query import ParallelQueryEvaluator
from repro.parallel.scan import ShardedScanExecutor, scan_order_sharded

__all__ = [
    "ParallelError",
    "ParallelQueryEvaluator",
    "ShardedScanExecutor",
    "WorkerPool",
    "default_start_method",
    "scan_order_sharded",
    "shard_bounds",
]
