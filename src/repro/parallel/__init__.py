"""Parallel execution: discovery's candidate scans sharded over local workers.

Three layers:

- :mod:`repro.parallel.pool` — :class:`WorkerPool`, the fork/spawn-safe
  process pool with pinned per-worker state and a deterministic in-process
  fallback (``max_workers=1`` or ``inline=True``);
- :mod:`repro.parallel.shm` — the two tensor codecs, derived from the
  platform: ``shm`` (shared-memory segments) where it has shared memory,
  ``inline`` (arrays inside the messages) everywhere else;
- :mod:`repro.parallel.scan` — :class:`ShardedScanExecutor`, discovery's
  per-order candidate scans sharded by attribute subset with bit-identical
  merged results (plumbed through ``DiscoveryEngine(executor=...)`` /
  ``DiscoveryConfig.max_workers``).
"""

from repro.exceptions import ParallelError
from repro.parallel.pool import (
    WorkerPool,
    default_start_method,
    shard_bounds,
)
from repro.parallel.scan import ShardedScanExecutor, scan_order_sharded

__all__ = [
    "ParallelError",
    "ShardedScanExecutor",
    "WorkerPool",
    "default_start_method",
    "scan_order_sharded",
    "shard_bounds",
]
