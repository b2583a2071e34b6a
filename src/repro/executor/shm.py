"""Shared-memory data plane for the processes backend.

Shipping a large NumPy array to a worker process through a pickle pipe
costs two full copies plus the pipe write — for the matmul panels and
image workloads that dominate the real-speedup demos, the transport
would eat the speedup.  This module moves bulk array payloads through
``multiprocessing.shared_memory`` instead:

* the parent :class:`ShmArena` *exports* each distinct live array once
  into a named segment (cached by object identity, so submitting 64
  tasks over one corpus copies it once), and :func:`encode_payload`
  rewrites args/kwargs so every qualifying ``ndarray`` becomes a tiny
  picklable :class:`ShmRef` handle;
* the worker *attaches* the named segment and reconstructs a zero-copy
  read-only view for the task body (:class:`ShmAttachments`), closing
  its mapping when the task finishes;
* worker *results* go the other way through one-shot segments: the
  worker creates/copies/closes, the parent attaches/copies/unlinks
  (:func:`export_oneshot` / :func:`consume_oneshot`).

Arrays below :data:`DEFAULT_THRESHOLD` bytes ride the normal pickle path
— a segment has fixed syscall/mmap overhead that only pays off for bulk
data.

CPython < 3.13 registers every ``SharedMemory`` with the per-process
``resource_tracker``, which then "helpfully" unlinks segments when *any*
process that touched them exits — fatal for segments whose lifetime is
managed across the parent/worker boundary.  :func:`open_untracked`
opens segments untracked, so every lifetime is explicit:

* an argument segment lives exactly as long as the array it was
  exported from: the arena unlinks it on whichever thread that array
  dies, and :meth:`ShmArena.close` frees the ones still alive.  The pool
  holds a task's arguments until its result is in, and a worker closes
  its attachments before it replies, so a segment is never freed under
  a task whose result is still wanted;
* a one-shot result segment is unlinked by the parent that consumes it,
  also when the result is dropped because its task was already
  resolved elsewhere.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

__all__ = [
    "DEFAULT_THRESHOLD",
    "ShmArena",
    "ShmAttachments",
    "ShmRef",
    "consume_oneshot",
    "decode_payload",
    "encode_payload",
    "export_oneshot",
    "open_untracked",
    "unlink_untracked",
]

#: arrays smaller than this (bytes) are pickled rather than exported
DEFAULT_THRESHOLD = 32 * 1024


@dataclass(frozen=True)
class ShmRef:
    """A picklable handle to an ndarray parked in a named shm segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    oneshot: bool = False  # worker-created result segment: consumer unlinks


#: Re-entrant: an arena frees a segment from a ``weakref`` callback, and
#: cyclic GC can run that callback inside an allocation made while this
#: thread already holds the lock.
_open_lock = threading.RLock()


def open_untracked(name: str | None = None, create: bool = False, size: int = 0):
    """``SharedMemory`` whose lifetime this module manages explicitly.

    On 3.13+ ``track=False`` does this natively.  Earlier interpreters
    register with the ``resource_tracker`` inside ``__init__`` with no
    opt-out, and unregistering afterwards is unreliable (the tracker's
    cache is a set shared by every process, so concurrent attach/detach
    of one segment double-removes and spews KeyError tracebacks) — so we
    briefly stub ``register`` out instead, under a lock so concurrent
    opens in one process cannot restore it early.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=create, size=size, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    with _open_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=create, size=size)
        finally:
            resource_tracker.register = original


def unlink_untracked(shm: Any) -> None:
    """Unlink a segment opened via :func:`open_untracked`; best effort.

    Pre-3.13 ``unlink()`` unconditionally messages the tracker to
    unregister a name it never saw (we suppressed the register), making
    the tracker daemon print KeyError tracebacks — stub the send out the
    same way.  A segment already unlinked elsewhere is not an error.
    """
    with _open_lock:
        original = resource_tracker.unregister
        resource_tracker.unregister = lambda *args, **kwargs: None
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        finally:
            resource_tracker.unregister = original


def _free(shm: Any) -> None:
    """Unmap and unlink one segment; best effort (a vanished one is gone)."""
    try:
        shm.close()
        unlink_untracked(shm)
    except Exception:
        pass


def _release(exports: dict, key: int, shm: Any) -> None:
    """``weakref`` callback run as an exported array dies.

    The entry goes first, before the id can be reused by a new array
    (the dying array's memory is only released after its callbacks), so
    a reused id never hits a stale cache entry.
    """
    exports.pop(key, None)
    _free(shm)


class ShmArena:
    """Parent-side export cache: one segment per distinct *live* array.

    Keyed by ``id(array)``.  Each export carries a ``weakref.finalize``
    on its array that drops the entry and frees the segment the moment
    the array dies, on whichever thread that happens — so a reused id
    can never be a stale cache hit, and a long-lived pool holds only the
    segments of arrays someone still references.  Every array shared by
    several tasks is still copied once, for as long as it lives.

    The callback can fire on any thread, including inside this module
    while it holds ``_open_lock``, so ``_exports`` is only touched with
    single GIL-atomic dict operations and no lock.  :meth:`close` frees
    each remaining segment once: whichever of ``close`` and the dying
    array's callback claims the finalizer first does the free.
    """

    def __init__(self, threshold: int = DEFAULT_THRESHOLD) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._exports: dict[int, tuple[ShmRef, Any, weakref.finalize]] = {}
        self.bytes_exported = 0  # cumulative: counts freed exports too

    def export(self, arr: np.ndarray) -> ShmRef:
        """Park ``arr`` in a segment (cached while it lives); returns its handle."""
        key = id(arr)
        cached = self._exports.get(key)
        if cached is not None:
            return cached[0]
        data = np.ascontiguousarray(arr)
        shm = open_untracked(create=True, size=max(1, data.nbytes))
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        view[...] = data
        ref = ShmRef(name=shm.name, shape=tuple(data.shape), dtype=str(data.dtype))
        # Watch ``arr`` (not ``data``): its id is the cache key.
        finalizer = weakref.finalize(arr, _release, self._exports, key, shm)
        self._exports[key] = (ref, shm, finalizer)
        self.bytes_exported += data.nbytes
        return ref

    def maybe_export(self, obj: Any) -> Any:
        """``obj`` itself, or its :class:`ShmRef` when it is a big array."""
        if isinstance(obj, np.ndarray) and obj.nbytes >= self.threshold:
            return self.export(obj)
        return obj

    @property
    def segments(self) -> int:
        """Segments held now: one per live exported array."""
        return len(self._exports)

    def close(self) -> None:
        """Free every segment still held; idempotent.

        Safe once workers have exited (worker mappings are closed per
        task).  Arrays that die afterwards free nothing more.
        """
        while True:
            try:
                _key, (_ref, shm, finalizer) = self._exports.popitem()
            except KeyError:
                return
            if finalizer.detach() is not None:
                _free(shm)
            # else the array is dying right now and its callback frees

    def __repr__(self) -> str:
        return f"ShmArena(segments={self.segments}, bytes={self.bytes_exported})"


class ShmAttachments:
    """Worker-side holder of the segments one task has attached.

    Views handed to the task body alias the mapping, so the mapping must
    outlive the body — the worker calls :meth:`close` after the task
    returns (never ``unlink``: the parent owns argument segments).
    """

    def __init__(self) -> None:
        self._open: list[Any] = []

    def attach(self, ref: ShmRef) -> np.ndarray:
        shm = open_untracked(name=ref.name)
        self._open.append(shm)
        arr = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)
        arr.flags.writeable = False  # arguments are shared: enforce read-only
        return arr

    def close(self) -> None:
        segments, self._open = self._open, []
        for shm in segments:
            try:
                shm.close()
            except Exception:
                pass


def encode_payload(obj: Any, arena: ShmArena) -> Any:
    """Recursively replace qualifying ndarrays in ``obj`` with refs.

    Walks lists/tuples/dicts (the shapes task args take); anything else
    pickles as-is.  Returns a structure safe to put on an mp queue.
    """
    if isinstance(obj, np.ndarray):
        return arena.maybe_export(obj)
    if isinstance(obj, tuple):
        return tuple(encode_payload(item, arena) for item in obj)
    if isinstance(obj, list):
        return [encode_payload(item, arena) for item in obj]
    if isinstance(obj, dict):
        return {key: encode_payload(value, arena) for key, value in obj.items()}
    return obj


def decode_payload(obj: Any, attachments: ShmAttachments) -> Any:
    """Inverse of :func:`encode_payload`: refs become zero-copy views."""
    if isinstance(obj, ShmRef):
        if obj.oneshot:
            return consume_oneshot(obj)
        return attachments.attach(obj)
    if isinstance(obj, tuple):
        return tuple(decode_payload(item, attachments) for item in obj)
    if isinstance(obj, list):
        return [decode_payload(item, attachments) for item in obj]
    if isinstance(obj, dict):
        return {key: decode_payload(value, attachments) for key, value in obj.items()}
    return obj


def export_oneshot(obj: Any, threshold: int = DEFAULT_THRESHOLD) -> Any:
    """Producer side of result transport: big arrays → one-shot segments.

    The producer (a worker returning a result) creates the segment,
    copies the array in and closes its own mapping; the segment persists
    until the consumer unlinks it.  Small/non-array results are returned
    unchanged and ride the pickle path.
    """
    if isinstance(obj, np.ndarray):
        if obj.nbytes < threshold:
            return obj
        data = np.ascontiguousarray(obj)
        shm = open_untracked(create=True, size=max(1, data.nbytes))
        view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        view[...] = data
        del view
        ref = ShmRef(name=shm.name, shape=tuple(data.shape), dtype=str(data.dtype), oneshot=True)
        shm.close()
        return ref
    if isinstance(obj, tuple):
        return tuple(export_oneshot(item, threshold) for item in obj)
    if isinstance(obj, list):
        return [export_oneshot(item, threshold) for item in obj]
    if isinstance(obj, dict):
        return {key: export_oneshot(value, threshold) for key, value in obj.items()}
    return obj


def consume_oneshot(obj: Any) -> Any:
    """Consumer side: materialise one-shot refs and unlink their segments."""
    if isinstance(obj, ShmRef):
        shm = open_untracked(name=obj.name)
        try:
            view = np.ndarray(obj.shape, dtype=np.dtype(obj.dtype), buffer=shm.buf)
            result = np.array(view, copy=True)
            del view
        finally:
            shm.close()
            try:
                unlink_untracked(shm)
            except Exception:
                pass
        return result
    if isinstance(obj, tuple):
        return tuple(consume_oneshot(item) for item in obj)
    if isinstance(obj, list):
        return [consume_oneshot(item) for item in obj]
    if isinstance(obj, dict):
        return {key: consume_oneshot(value) for key, value in obj.items()}
    return obj
