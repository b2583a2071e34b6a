"""A thread-safe future usable by every executor backend.

Unlike :mod:`concurrent.futures`, completion callbacks here are the
mechanism the Parallel Task dependence manager builds on, so their
contract is strict: a callback added after completion runs immediately on
the caller; callbacks added before completion run exactly once, on the
completing thread, in registration order.

Lifecycle
---------
A future moves through ``pending -> running -> done | failed``, or is
short-circuited to ``cancelled`` while still pending.  Cancellation is
*cooperative*: :meth:`Future.cancel` only succeeds before a worker claims
the task via :meth:`Future.try_start` — a task that has started runs to
completion (it may observe its :class:`~repro.resilience.CancelToken`
and stop itself, but the future then completes normally/with an error).
A cancelled future is *done*: waiters are released with a
:class:`CancelledError` and done-callbacks fire, which is how
cancellation propagates to dependent tasks.

Performance
-----------
Futures are the per-task allocation of every executor, so construction
and completion sit on the pool's hottest path.  Three choices keep them
cheap without weakening the contract above:

* a plain :class:`threading.Lock` guards state transitions — a
  ``Condition`` (the previous design) allocates a second lock and two
  deques per future, an order of magnitude more construction work;
* blocking waiters are served by a :class:`threading.Event` allocated
  *lazily* on the first ``result()``/``exception()`` that actually has
  to block — the common pool case (completion observed via ``done()``
  polling or callbacks) never allocates it.  The event is set-once, so
  any number of late waiters share it safely;
* state reads (``done``/``running``/``cancelled`` and the completion
  fast path of ``result``) are lock-free: ``_state`` is a single
  attribute written under the lock and read atomically under the GIL,
  and the value/exception slots are always written *before* the state
  flips to a completed one.
"""

from __future__ import annotations

import copy
import threading
from typing import Any, Callable

from repro.resilience.cancel import CancelledError

__all__ = ["Future", "FutureError", "CancelledError"]

_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"

#: states in which the future's outcome is not yet known
_INCOMPLETE = (_PENDING, _RUNNING)


class FutureError(RuntimeError):
    """Misuse of a future (double completion, reading a pending result)."""


def _per_waiter_copy(exc: BaseException) -> BaseException:
    """A shallow copy of ``exc`` safe to raise to one waiter.

    Raising an exception instance mutates it (the interpreter grows its
    ``__traceback__`` with the raise site), so concurrent waiters on
    different threads must not re-raise the one stored instance.  The
    copy shares the original traceback chain and preserves the
    cause/context links; exceptions that cannot be copied fall back to
    the shared instance (correct message, racy traceback — the best we
    can do).
    """
    try:
        clone = copy.copy(exc)
    except Exception:
        return exc
    if clone is exc or type(clone) is not type(exc):
        return exc
    clone.__cause__ = exc.__cause__
    clone.__context__ = exc.__context__
    clone.__suppress_context__ = exc.__suppress_context__
    return clone.with_traceback(exc.__traceback__)


class Future:
    """Write-once container for a task's eventual result."""

    __slots__ = (
        "_lock",
        "_state",
        "_value",
        "_exception",
        "_waiter",
        "_callbacks",
        "name",
        "meta",
    )

    def __init__(self, name: str = "") -> None:
        self._lock = threading.Lock()
        self._state = _PENDING
        self._value: Any = None
        self._exception: BaseException | None = None
        #: lazily allocated threading.Event; set exactly once on completion
        self._waiter: threading.Event | None = None
        #: lazily allocated callback list (most futures never register one)
        self._callbacks: list[Callable[["Future"], None]] | None = None
        self.name = name
        #: backend-private annotations (e.g. the sim executor stores the
        #: task's final segment id here).
        self.meta: dict[str, Any] = {}

    # -- completion (producer side) ----------------------------------------

    def set_result(self, value: Any) -> None:
        self._complete(_DONE, value, None)

    def set_exception(self, exception: BaseException) -> None:
        if not isinstance(exception, BaseException):
            raise TypeError(f"expected an exception instance, got {exception!r}")
        self._complete(_FAILED, None, exception)

    def _complete(self, state: str, value: Any, exc: BaseException | None) -> None:
        with self._lock:
            if self._state not in _INCOMPLETE:
                raise FutureError(
                    f"future {self.name!r} completed twice (was {self._state})"
                )
            self._value = value
            self._exception = exc
            self._state = state  # last: readers branch on state lock-free
            callbacks, self._callbacks = self._callbacks, None
            waiter = self._waiter
        if waiter is not None:
            waiter.set()
        if callbacks:
            for cb in callbacks:
                cb(self)

    def fail_if_pending(self, exception: BaseException) -> bool:
        """Complete with ``exception`` iff still pending; False otherwise.

        The atomic form executors use when failing *stranded* work (e.g.
        ``shutdown(drain=False)``) that may be racing an external
        :meth:`cancel` — exactly one of the two wins, never both.
        """
        return self._end_pending(_FAILED, exception)

    def _end_pending(self, state: str, exc: BaseException) -> bool:
        with self._lock:
            if self._state != _PENDING:
                return False
            self._exception = exc
            self._state = state
            callbacks, self._callbacks = self._callbacks, None
            waiter = self._waiter
        if waiter is not None:
            waiter.set()
        if callbacks:
            for cb in callbacks:
                cb(self)
        return True

    # -- cancellation --------------------------------------------------------

    def cancel(self, reason: str | BaseException | None = None) -> bool:
        """Cancel the future if its task has not started; True on success.

        ``reason`` may be a message fragment or an exception instance
        (e.g. :class:`~repro.resilience.DeadlineExceeded`) to surface to
        waiters instead of the default :class:`CancelledError`.  A
        successful cancel completes the future: waiters wake with the
        cancellation exception and done-callbacks run — that is what
        cascades cancellation through dependence managers.
        """
        if not isinstance(reason, BaseException):
            detail = f": {reason}" if reason else ""
            reason = CancelledError(f"future {self.name!r} was cancelled{detail}")
        return self._end_pending(_CANCELLED, reason)

    def try_start(self) -> bool:
        """Claim the task for execution (pending -> running); False if the
        future was cancelled (or already claimed) — the worker-side half
        of the cooperative cancellation protocol."""
        with self._lock:
            if self._state != _PENDING:
                return False
            self._state = _RUNNING
            return True

    # -- consumption (consumer side) ----------------------------------------

    def done(self) -> bool:
        return self._state not in _INCOMPLETE

    def running(self) -> bool:
        return self._state == _RUNNING

    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The stored exception (the shared instance, not a copy), or None.

        For a cancelled future this *returns* the cancellation exception
        rather than raising it, so dependence managers can branch on
        :meth:`cancelled` without try/except.
        """
        self._wait(timeout)
        return self._exception

    def result(self, timeout: float | None = None) -> Any:
        if self._state in _INCOMPLETE:
            self._wait(timeout)
        exc = self._exception
        if exc is not None:
            # Per-waiter copy: concurrent result() calls on different
            # threads must not grow one shared instance's traceback.
            raise _per_waiter_copy(exc)
        return self._value

    def peek(self) -> Any:
        """Result if done, else raise :class:`FutureError` (non-blocking)."""
        if self._state in _INCOMPLETE:
            raise FutureError(f"future {self.name!r} is still pending")
        return self.result(timeout=0)

    def _wait(self, timeout: float | None) -> None:
        if self._state not in _INCOMPLETE:
            return
        with self._lock:
            if self._state not in _INCOMPLETE:
                return
            waiter = self._waiter
            if waiter is None:
                waiter = self._waiter = threading.Event()
        if not waiter.wait(timeout):
            raise TimeoutError(f"future {self.name!r} not done after {timeout}s")

    def add_done_callback(self, cb: Callable[["Future"], None]) -> None:
        with self._lock:
            if self._state in _INCOMPLETE:
                callbacks = self._callbacks
                if callbacks is None:
                    callbacks = self._callbacks = []
                callbacks.append(cb)
                return
        cb(self)

    def __repr__(self) -> str:
        return f"Future({self.name!r}, {self._state})"
