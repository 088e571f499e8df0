"""In-memory spans recorded around calls into the program's layers.

A span has a name, a start and an end (``perf_counter_ns``), the index of
the span that caused it and a request id.  The parent is tracked with a
context variable, so spans nest correctly across asyncio tasks; a thread
pool's worker starts with an empty context, so its spans are roots.  Spans
stay in memory and are written out once, when the run ends.

:func:`wrap` replaces a function or method on its owner with a recording
wrapper; the benchmark installs these from its own files, so the program
itself carries no tracing code.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_parent", default=None
)
_REQUEST: contextvars.ContextVar[object] = contextvars.ContextVar(
    "perfbench_request", default=None
)


class Recorder:
    """Collects spans; ``enabled = False`` makes every wrapper a pass-through."""

    def __init__(self):
        self.enabled = True
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, rid]
        self._lock = threading.Lock()

    def open(self, name: str, rid=None) -> tuple[int, contextvars.Token]:
        """Start a span; returns its index and the context token to reset."""
        parent = _PARENT.get()
        if rid is None:
            rid = _REQUEST.get()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), 0, parent, rid])
        return index, _PARENT.set(index)

    def close(self, index: int, token: contextvars.Token, name=None) -> None:
        """End span ``index`` (optionally renaming it) and restore the parent."""
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if name is not None:
            span[0] = name
        _PARENT.reset(token)

    def add(self, name: str, start_ns: int, end_ns: int, rid=None) -> None:
        """Record a finished span measured by the caller."""
        with self._lock:
            self.spans.append([name, start_ns, end_ns, _PARENT.get(), rid])

    def write(self, path: Path) -> None:
        """Write every span as one JSON line each."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, rid in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )


def set_request(rid) -> None:
    """Tag spans opened later in the current context with request ``rid``."""
    _REQUEST.set(rid)


def wrap(recorder: Recorder, owner, attr: str, name: str, classify=None):
    """Replace ``owner.attr`` with a wrapper recording span ``name``.

    ``classify(result)``, when given, renames the span after the call
    from its result (e.g. a scan that found nothing is a verification).
    Coroutine functions get an async wrapper.  Returns the original.
    """
    original = inspect.getattr_static(owner, attr)
    unwrap = isinstance(original, (staticmethod, classmethod))
    target = original.__func__ if unwrap else original

    if inspect.iscoroutinefunction(target):

        @functools.wraps(target)
        async def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return await target(*args, **kwargs)
            index, token = recorder.open(name)
            result = None
            try:
                result = await target(*args, **kwargs)
                return result
            finally:
                recorder.close(
                    index, token, classify(result) if classify else None
                )

    else:

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return target(*args, **kwargs)
            index, token = recorder.open(name)
            result = None
            try:
                result = target(*args, **kwargs)
                return result
            finally:
                recorder.close(
                    index, token, classify(result) if classify else None
                )

    if isinstance(original, classmethod):
        setattr(owner, attr, classmethod(wrapper))
    elif isinstance(original, staticmethod):
        setattr(owner, attr, staticmethod(wrapper))
    else:
        setattr(owner, attr, wrapper)
    return original


def self_time_each(spans) -> list[float]:
    """Seconds each span spent outside its child spans, in span order.

    A span's self time is its duration minus the part of that interval
    covered by its children; children that overlap each other (concurrent
    tasks) are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        parent = span[3]
        if parent is not None:
            children[parent].append((span[1], span[2]))
    out = []
    for index, (_name, start, end, _parent, _rid) in enumerate(spans):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start - covered) / 1e9)
    return out


def root_of(spans) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        parent = span[3]
        roots.append(index if parent is None else roots[parent])
    return roots


def load(path: Path) -> list[list]:
    """Read spans written by :meth:`Recorder.write`."""
    spans = []
    with open(path) as handle:
        for line in handle:
            item = json.loads(line)
            spans.append(
                [
                    item["name"],
                    item["start_ns"],
                    item["end_ns"],
                    item["parent"],
                    item["rid"],
                ]
            )
    return spans
