"""Cross-process cancellation signalling for out-of-process executors.

In-process backends cancel running tasks through shared memory: the
:class:`~repro.resilience.cancel.CancelToken` object itself is visible
to both the canceller and the task body.  Across a process boundary the
token object cannot be shared, so cancellation becomes a *message*: the
parent broadcasts ``(tid, reason)`` on a one-way pipe per worker, and a
listener thread inside each worker re-raises the signal against the
worker-local token registered for that task id.  The pipes carry
cancels and nothing else.

Two races are handled explicitly:

* **signal beats the task** — the cancel message can arrive before the
  worker dequeues the task it names.  The listener records the tid as
  *pre-cancelled*; the worker checks :meth:`WorkerCancelListener.precancelled`
  before starting a task and skips the body entirely.
* **task beats the signal** — the task may finish (and unregister)
  before the message arrives.  A cancel for an unknown, already-finished
  tid lands in the pre-cancelled map and is simply never consulted again;
  the map is bounded by the number of cancels issued, not tasks run.

This module deliberately lives in :mod:`repro.resilience`, not the
executor package: it depends only on tokens and pipes, and the executor
packages already import resilience (the reverse import would cycle).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable

from repro.resilience.cancel import CancelToken

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = ["RemoteCancelChannel", "WorkerCancelListener"]


class RemoteCancelChannel:
    """Parent-side fan-out of cancel signals to every worker.

    The parent does not know which worker holds a given task (tasks are
    pulled from a shared queue), so every cancel broadcasts to all
    workers; non-owners record a pre-cancel that is either consulted when
    the task is dequeued or never at all.  Cancels are rare events —
    broadcast cost is irrelevant next to the task bodies it saves.
    """

    def __init__(self, connections: Iterable["Connection"]) -> None:
        self._connections = list(connections)
        self._lock = threading.Lock()
        self._closed = False
        self.sent = 0

    def broadcast_cancel(self, tid: int, reason: str) -> None:
        """Tell every worker that task ``tid`` should stop."""
        with self._lock:
            if self._closed:
                return
            for conn in self._connections:
                try:
                    conn.send((tid, reason))
                except (OSError, ValueError, BrokenPipeError):
                    pass  # a dead worker cannot run the task anyway
            self.sent += 1

    def close(self) -> None:
        """Close every worker pipe; further broadcasts become no-ops."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for conn in self._connections:
                try:
                    conn.close()
                except OSError:
                    pass


class WorkerCancelListener:
    """Worker-side receiver: routes cancel signals to per-task tokens.

    For a task submitted with a token, the worker registers a fresh
    :class:`CancelToken` of the same name under the task id just before
    running the body and unregisters it after; the listener
    thread cancels the registered token when a matching signal arrives.
    Signals for unregistered tids become *pre-cancels* the worker checks
    at dequeue time.
    """

    def __init__(self, connection: "Connection") -> None:
        self._connection = connection
        self._lock = threading.Lock()
        self._tokens: dict[int, CancelToken] = {}
        self._precancelled: dict[int, str] = {}
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._listen, name="cancel-listener", daemon=True
        )
        self._thread.start()

    def _listen(self) -> None:
        while True:
            try:
                tid, reason = self._connection.recv()
            except (EOFError, OSError):
                return  # parent closed the channel: shutdown
            with self._lock:
                token = self._tokens.get(tid)
                if token is None:
                    self._precancelled[tid] = reason
            if token is not None:
                token.cancel(reason)

    def register(self, tid: int, token: CancelToken) -> None:
        """Bind ``token`` to ``tid``; applies an already-arrived signal."""
        with self._lock:
            reason = self._precancelled.pop(tid, None)
            self._tokens[tid] = token
        if reason is not None:
            token.cancel(reason)

    def unregister(self, tid: int) -> None:
        with self._lock:
            self._tokens.pop(tid, None)

    def precancelled(self, tid: int) -> str | None:
        """The cancel reason if ``tid`` was cancelled before it started."""
        with self._lock:
            reason = self._precancelled.pop(tid, None)
        return reason
