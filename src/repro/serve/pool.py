"""Session pools: checkout/checkin of warm QuerySessions per model revision.

Handlers run blocking evaluation (``session.batch``, ``most_probable``)
on executor threads, and :class:`~repro.api.session.QuerySession` is not
thread-safe — so each concurrent evaluation checks a session out, uses it
exclusively, and checks it back in warm (plan cache, marginal LRU,
backend artifact intact) for the next request.

A pool is bound to one model revision.  On hot-swap the registry builds a
fresh pool for the new model and *retires* the old one: idle sessions are
dropped immediately, and sessions still out serving in-flight requests
finish their request and are dropped at checkin instead of being recycled.
"""

from __future__ import annotations

import threading

from repro.api.session import QuerySession
from repro.exceptions import DataError
from repro.maxent.model import MaxEntModel

__all__ = ["SessionPool"]


class SessionPool:
    """A bounded pool of :class:`QuerySession` objects for one model.

    Parameters
    ----------
    model:
        The model revision every pooled session serves.
    backend / cache_size:
        Passed through to :class:`QuerySession`.
    size:
        Retained-session cap.  Checkout never blocks: when the idle list
        is empty a fresh session is built, and checkin drops overflow
        beyond ``size`` instead of retaining it.
    """

    def __init__(
        self,
        model: MaxEntModel,
        backend: str = "auto",
        cache_size: int | None = None,
        size: int = 4,
    ):
        if size < 1:
            raise DataError(f"pool size must be >= 1, got {size}")
        self._model = model
        self._backend = backend
        self._cache_size = cache_size
        self.size = int(size)
        self._idle: list[QuerySession] = []
        self._lock = threading.Lock()
        self._retired = False
        self._created = 0
        self._outstanding = 0

    @property
    def model(self) -> MaxEntModel:
        return self._model

    @property
    def retired(self) -> bool:
        return self._retired

    @property
    def outstanding(self) -> int:
        """Sessions currently checked out."""
        return self._outstanding

    def _build(self) -> QuerySession:
        if self._cache_size is None:
            return QuerySession(self._model, backend=self._backend)
        return QuerySession(
            self._model, backend=self._backend, cache_size=self._cache_size
        )

    def checkout(self) -> QuerySession:
        """Borrow a session (exclusive use until :meth:`checkin`)."""
        with self._lock:
            if self._retired:
                raise DataError("session pool is retired")
            if self._idle:
                session = self._idle.pop()
            else:
                session = None
            self._outstanding += 1
        if session is None:
            session = self._build()
            with self._lock:
                self._created += 1
        return session

    def checkin(self, session: QuerySession) -> None:
        """Return a borrowed session; retired/overflow sessions are dropped."""
        with self._lock:
            self._outstanding = max(0, self._outstanding - 1)
            if not self._retired and len(self._idle) < self.size:
                self._idle.append(session)

    def run(self, fn):
        """Checkout → ``fn(session)`` → checkin, exception-safe."""
        session = self.checkout()
        try:
            return fn(session)
        finally:
            self.checkin(session)

    def retire(self) -> None:
        """Drop idle sessions now, outstanding ones at checkin; idempotent.

        After retirement the pool refuses checkouts, so no new request can
        land on the superseded model revision.
        """
        with self._lock:
            self._retired = True
            self._idle = []

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": self.size,
                "idle": len(self._idle),
                "outstanding": self._outstanding,
                "created": self._created,
                "retired": self._retired,
            }

    def __repr__(self) -> str:
        state = "retired" if self._retired else "active"
        return (
            f"SessionPool(size={self.size}, idle={len(self._idle)}, "
            f"outstanding={self._outstanding}, {state})"
        )
