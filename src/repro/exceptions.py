"""Exception hierarchy for the repro package.

Every error raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """An attribute schema is malformed or an attribute lookup failed."""


class DataError(ReproError):
    """Raw data does not conform to its schema (bad labels, shapes, counts)."""


class ConstraintError(ReproError):
    """A probability constraint is invalid or inconsistent with others."""


class StaleConstraintError(ConstraintError):
    """A previously adopted constraint is no longer supported by the data.

    Raised by the discovery engine's warm-started ``rerun`` when updated
    data stop justifying a constraint the previous revision adopted — the
    signal that incremental strengthening is invalid and the caller should
    fall back to a cold refit (which is free to drop the constraint)."""


class ConvergenceError(ReproError):
    """An iterative solver failed to reach the requested tolerance."""


class ParallelError(ReproError):
    """A worker pool failed: a worker died, a task could not be shipped,
    or a worker raised an error the master could not map back onto the
    library's own exception hierarchy (those it can — any
    :class:`ReproError` subclass — are re-raised as themselves)."""


class StaleWorkerStateError(ParallelError):
    """A worker was asked to reuse pinned state it no longer holds.

    Scan workers pin data-side stats, the table and the model's
    component tensors.  A worker raises this when the master references
    cached state — a table, a kernel, a model fingerprint — that the
    worker does not hold, so the master can re-ship the full payload
    instead of silently scanning stale or missing state."""


class QueryError(ReproError):
    """A probability query is malformed or has zero-probability evidence."""
