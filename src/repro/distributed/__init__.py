"""Distributed workers: pinned workers over length-prefixed TCP.

:class:`TcpWorkerPool` speaks the same ``("call", task, args)`` protocol
as the local :class:`~repro.parallel.pool.WorkerPool`, against
:class:`WorkerServer` daemons started with ``repro worker --listen``;
tensors cross it with the ``inline`` codec.  :func:`open_pool` decides
when a run goes remote: whenever worker addresses are known (explicit
addresses > ``REPRO_WORKER_ADDRESSES``), else it stays local.
"""

from repro.distributed.client import (
    TcpWorkerPool,
    WORKERS_ENV_VAR,
    open_pool,
    parse_worker_addresses,
)
from repro.distributed.protocol import (
    MAX_FRAME_BYTES,
    format_address,
    parse_address,
)
from repro.distributed.retry import DEFAULT_RETRY, RetryPolicy
from repro.distributed.worker import WorkerServer

__all__ = [
    "DEFAULT_RETRY",
    "MAX_FRAME_BYTES",
    "RetryPolicy",
    "TcpWorkerPool",
    "WORKERS_ENV_VAR",
    "WorkerServer",
    "format_address",
    "open_pool",
    "parse_address",
    "parse_worker_addresses",
]
