"""Tensor codecs for the worker protocol, and the shared memory behind one.

The sharded scan speaks one protocol to its worker pool; the only
per-medium piece is how a dense float64 tensor (a model's packed
component tensors, a shard's result columns) gets from one side to the
other.  That is a *codec*, derived from the platform, never configured:

- ``shm`` (where :func:`shm_available`): the master writes the tensor
  into a :class:`SharedTensorPool` segment and ships a
  :class:`SharedTensorHandle` a few dozen bytes long; workers attach
  zero-copy read-only views and may write large results back through
  per-worker output slabs.
- ``inline`` (a platform without usable shared memory): the array itself
  travels inside the task message and results come back in the reply.

The building blocks:

- :class:`SharedTensorPool` (master side) manages
  ``multiprocessing.shared_memory`` segments with a small free list keyed
  by ``(shape, dtype)``, so repeated broadcasts of same-shaped tensors
  reuse one mapped segment instead of allocating per scan.  Every segment
  is created — and eventually unlinked — by the master, so a worker death
  can never leak a segment: cleanup runs on pool close, on garbage
  collection, and from an ``atexit`` hook.
- :class:`SegmentAttachments` (worker side) caches attachments by segment
  name and returns read-only zero-copy numpy views, timing each first
  attach (``attach_ns``) for the instrumentation.
- :class:`TransportCounters` is that instrumentation: payload bytes moved
  inline (pickled) vs through shared segments, broadcasts skipped by
  fingerprint amortization, attach time.

**Bit-identity.**  Shared views expose the exact float64 bytes the master
wrote and pickled arrays round-trip bit-exactly — no encode/decode step
exists that could perturb a ULP — so kernels compute byte-for-byte the
same results under either codec.  The property suites in
``tests/parallel`` run under both codecs to enforce this.
"""

from __future__ import annotations

import atexit
import time
import weakref
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ParallelError

__all__ = [
    "InlineCodec",
    "SegmentAttachments",
    "SharedTensorHandle",
    "SharedTensorPool",
    "ShmCodec",
    "TransportCounters",
    "open_codec",
    "read_tensor",
    "shm_available",
    "take_attach_ns",
]

_shm_probe: bool | None = None


def shm_available() -> bool:
    """True when ``multiprocessing.shared_memory`` actually works here.

    Probed once per process by creating (and immediately unlinking) a
    tiny segment — an import alone is not enough: a platform may ship the
    module but lack a usable backing filesystem (no ``/dev/shm``, locked
    down containers), which surfaces as ``OSError`` on create.
    """
    global _shm_probe
    if _shm_probe is None:
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(create=True, size=16)
            segment.close()
            segment.unlink()
            _shm_probe = True
        except Exception:
            _shm_probe = False
    return _shm_probe


@dataclass(frozen=True)
class SharedTensorHandle:
    """What crosses the pipe instead of a tensor: name, layout, generation.

    ``generation`` is a pool-wide monotonic counter stamped at publish
    time; it distinguishes successive payloads that reuse one segment
    (the whole point of the free list), so receivers and tests can assert
    they are reading the broadcast they were told about.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    generation: int

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


@dataclass
class TransportCounters:
    """Payload accounting of one executor's worker traffic.

    ``bytes_pickled`` / ``bytes_shared`` count tensor-payload bytes moved
    inline vs through shared segments (array bytes — the pickle
    framing around them is noise at these sizes).  ``broadcasts_skipped``
    counts rebroadcasts avoided because the model fingerprint had not
    changed; ``attach_ns`` is cumulative worker-side segment attach time.
    """

    bytes_pickled: int = 0
    bytes_shared: int = 0
    broadcasts_total: int = 0
    broadcasts_skipped: int = 0
    attach_ns: int = 0

    def snapshot(self) -> "TransportCounters":
        return replace(self)

    def delta(self, earlier: "TransportCounters") -> "TransportCounters":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return TransportCounters(
            bytes_pickled=self.bytes_pickled - earlier.bytes_pickled,
            bytes_shared=self.bytes_shared - earlier.bytes_shared,
            broadcasts_total=self.broadcasts_total - earlier.broadcasts_total,
            broadcasts_skipped=(
                self.broadcasts_skipped - earlier.broadcasts_skipped
            ),
            attach_ns=self.attach_ns - earlier.attach_ns,
        )

    def to_dict(self) -> dict:
        return {
            "bytes_pickled": self.bytes_pickled,
            "bytes_shared": self.bytes_shared,
            "broadcasts_total": self.broadcasts_total,
            "broadcasts_skipped": self.broadcasts_skipped,
            "attach_ns": self.attach_ns,
        }


#: Pools still alive, closed as a last resort from ``atexit`` so an
#: interpreter exit can never leave named segments behind (the POSIX
#: names outlive the process; the mappings do not).
_LIVE_POOLS: "weakref.WeakSet[SharedTensorPool]" = weakref.WeakSet()


def _close_live_pools() -> None:
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


atexit.register(_close_live_pools)


class SharedTensorPool:
    """Master-side shared-memory segments with a ``(shape, dtype)`` free list.

    All segments are created here and unlinked here — workers only ever
    attach — which is what makes cleanup guaranteeable: :meth:`close`
    (idempotent; also run by ``__del__`` and the module ``atexit`` hook)
    unlinks every segment the pool ever created, whether currently free
    or in use, so no combination of worker death, executor abandonment,
    or interpreter shutdown leaks a ``/dev/shm`` entry.

    :meth:`acquire` hands out an uninitialized segment (reusing an exact
    ``(shape, dtype)`` match from the free list when one exists) together
    with a writable master-side view; :meth:`publish` is acquire + copy.
    :meth:`release` returns a segment to the free list for the next
    same-shaped broadcast — the reuse that amortizes repeated model
    publishes down to one mapped segment per shape.
    """

    def __init__(self):
        self._segments: dict = {}  # name -> SharedMemory (everything owned)
        self._free: dict[tuple, list[str]] = {}
        self._in_use: dict[str, tuple] = {}
        self._generation = 0
        self._closed = False
        _LIVE_POOLS.add(self)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def segment_names(self) -> tuple[str, ...]:
        """Names of every live segment (free or in use) — for leak tests."""
        return tuple(self._segments)

    def next_generation(self) -> int:
        self._generation += 1
        return self._generation

    def acquire(
        self, shape, dtype
    ) -> tuple[SharedTensorHandle, np.ndarray]:
        """An owned segment for ``(shape, dtype)`` plus a writable view.

        Reuses a free exact-match segment when one exists; otherwise maps
        a new one.  The returned view aliases the shared bytes — writes
        through it are what attached workers read.
        """
        if self._closed:
            raise ParallelError("shared tensor pool is closed")
        key = (tuple(int(d) for d in shape), np.dtype(dtype).str)
        free = self._free.get(key)
        if free:
            name = free.pop()
        else:
            from multiprocessing import shared_memory

            nbytes = max(1, int(np.prod(key[0])) * np.dtype(dtype).itemsize)
            segment = shared_memory.SharedMemory(create=True, size=nbytes)
            name = segment.name
            self._segments[name] = segment
        self._in_use[name] = key
        handle = SharedTensorHandle(
            name=name,
            shape=key[0],
            dtype=key[1],
            generation=self.next_generation(),
        )
        view = np.ndarray(
            key[0], dtype=key[1], buffer=self._segments[name].buf
        )
        return handle, view

    def publish(self, array: np.ndarray) -> SharedTensorHandle:
        """Copy ``array`` into an owned segment; returns the handle."""
        array = np.ascontiguousarray(array)
        handle, view = self.acquire(array.shape, array.dtype)
        view[...] = array
        return handle

    def restamp(self, handle: SharedTensorHandle) -> SharedTensorHandle:
        """A fresh-generation handle for a segment rewritten in place."""
        return replace(handle, generation=self.next_generation())

    def release(self, handle: SharedTensorHandle) -> None:
        """Return a segment to the free list for same-shape reuse.

        Callers must only release once no worker will read the previous
        payload again (the executors release at order end / after a
        synchronous broadcast has returned).
        """
        key = self._in_use.pop(handle.name, None)
        if key is None or self._closed:
            return
        self._free.setdefault(key, []).append(handle.name)

    def close(self) -> None:
        """Close and unlink every owned segment; idempotent.

        Uses plain ``try/except`` throughout (no module-global helpers)
        so it stays safe when invoked during interpreter shutdown, where
        other modules may already be torn down.  A ``BufferError`` on
        ``close`` (a numpy view of the buffer still alive somewhere) does
        not stop the unlink: the name is removed either way and the
        mapping itself dies with the process.
        """
        self._closed = True
        segments, self._segments = self._segments, {}
        self._free = {}
        self._in_use = {}
        for segment in segments.values():
            try:
                segment.close()
            except BaseException:
                pass
            try:
                segment.unlink()
            except BaseException:
                pass

    def __enter__(self) -> "SharedTensorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except BaseException:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"{len(self._in_use)} in use, "
            f"{sum(len(v) for v in self._free.values())} free"
        )
        return f"SharedTensorPool({state})"


class SegmentAttachments:
    """Worker-side attach cache: one mapping per segment name.

    :meth:`view` returns a read-only zero-copy numpy view of the handle's
    segment, attaching (and timing the attach) only on first contact with
    a name — subsequent broadcasts that reuse the segment cost nothing
    but the ndarray construction.  Reads are ordered by the pool's pipe
    messages: the master writes the payload *before* dispatching the task
    that names it, so the view's contents are exactly that generation's.

    Views alias this object's mappings without pinning them (numpy
    releases its buffer export after construction), so the attachments
    object must outlive every view it handed out — workers keep theirs
    in per-worker state for exactly this reason.
    """

    def __init__(self):
        self._segments: dict = {}
        self._attach_ns = 0

    def view(
        self, handle: SharedTensorHandle, writable: bool = False
    ) -> np.ndarray:
        segment = self._segments.get(handle.name)
        if segment is None:
            from multiprocessing import shared_memory

            start = time.perf_counter_ns()
            try:
                segment = shared_memory.SharedMemory(name=handle.name)
            except (FileNotFoundError, OSError) as error:
                raise ParallelError(
                    f"cannot attach shared segment {handle.name!r}: {error}"
                ) from None
            self._attach_ns += time.perf_counter_ns() - start
            self._segments[handle.name] = segment
        array = np.ndarray(handle.shape, dtype=handle.dtype, buffer=segment.buf)
        if not writable:
            array.flags.writeable = False
        return array

    def take_attach_ns(self) -> int:
        """Attach time accumulated since the last take (and reset it)."""
        elapsed, self._attach_ns = self._attach_ns, 0
        return elapsed

    def close(self) -> None:
        """Drop every attachment (mappings close; names are the master's)."""
        segments, self._segments = self._segments, {}
        for segment in segments.values():
            try:
                segment.close()
            except BaseException:
                pass

    def __del__(self) -> None:
        try:
            self.close()
        except BaseException:
            pass


# -- codecs -----------------------------------------------------------------------


class InlineCodec:
    """Tensors travel inside the task message; results in the reply."""

    label = "pipe"

    def __init__(self):
        self.counters = TransportCounters()

    def put(self, array: np.ndarray, fanout: int) -> np.ndarray:
        """The reference to ship for ``array``: the array itself."""
        self.counters.bytes_pickled += array.nbytes * fanout
        return array

    def open_slabs(self, sizes: list) -> list:
        """No output slabs: every shard result returns in its reply."""
        return [None] * len(sizes)

    def release_slabs(self) -> None:
        pass

    def close(self) -> None:
        pass


class ShmCodec:
    """Tensors travel through master-owned shared segments.

    :meth:`put` keeps one segment for the model's packed factors and
    rewrites it in place while the shape holds — workers read it only
    inside the synchronous dispatch that follows, so the rewrite can
    never race a reader.  Output slabs are per-shard segments
    the workers write float results into; :meth:`read_slab` copies a
    slab's used prefix out, because the slab is rewritten next scan.
    """

    label = "shm"

    def __init__(self):
        self.counters = TransportCounters()
        self._pool = SharedTensorPool()
        self._factors: tuple[SharedTensorHandle, np.ndarray] | None = None
        self._slabs: list = []

    def put(self, array: np.ndarray, fanout: int) -> SharedTensorHandle:
        """Write ``array`` into the factors segment; returns its handle."""
        handle, view = self._factors or (None, None)
        if (
            handle is not None
            and handle.shape == array.shape
            and handle.dtype == array.dtype.str
        ):
            handle = self._pool.restamp(handle)
        else:
            if handle is not None:
                self._pool.release(handle)
            handle, view = self._pool.acquire(array.shape, array.dtype)
        view[...] = array
        self._factors = (handle, view)
        self.counters.bytes_shared += array.nbytes
        return handle

    def open_slabs(self, sizes: list) -> list:
        """Acquire one float64 slab per non-None size; returns the handles."""
        self.release_slabs()
        for size in sizes:
            self._slabs.append(
                None if size is None else self._pool.acquire((size,), "f8")
            )
        return [None if slab is None else slab[0] for slab in self._slabs]

    def read_slab(self, shard: int, floats: int) -> np.ndarray:
        """A private copy of the first ``floats`` values of a shard's slab."""
        self.counters.bytes_shared += floats * 8
        return self._slabs[shard][1][:floats].copy()

    def release_slabs(self) -> None:
        if not self._pool.closed:
            for slab in self._slabs:
                if slab is not None:
                    self._pool.release(slab[0])
        self._slabs = []

    def close(self) -> None:
        # Views first: the segments they alias are unmapped next.
        self._factors = None
        self._slabs = []
        self._pool.close()


def open_codec() -> InlineCodec | ShmCodec:
    """The tensor codec — derived, never configured: ``shm`` when
    :func:`shm_available`, else ``inline`` (label ``"pipe"``), which is
    what keeps platforms without ``/dev/shm`` working."""
    return ShmCodec() if shm_available() else InlineCodec()


def read_tensor(state: dict, ref, writable: bool = False) -> np.ndarray:
    """Worker side of both codecs: a segment handle becomes a zero-copy
    view (attachments live in the worker's ``state``, which must outlive
    the view); an inline array is returned as is."""
    if not isinstance(ref, SharedTensorHandle):
        return ref
    attachments = state.get("attachments")
    if attachments is None:
        attachments = state["attachments"] = SegmentAttachments()
    return attachments.view(ref, writable=writable)


def take_attach_ns(state: dict) -> int:
    """Segment attach time a worker accumulated since the last take."""
    attachments = state.get("attachments")
    return 0 if attachments is None else attachments.take_attach_ns()
