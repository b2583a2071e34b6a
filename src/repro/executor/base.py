"""The :class:`Executor` interface all backends implement.

The interface is deliberately richer than a plain thread pool: the task
layers (Parallel Task, Pyjama) need *cost accounting* (``compute``),
*named critical sections* (``critical``), *team barriers* (``barrier``)
and *precedence constraints* (``submit(after=...)``) so that exactly the
same program text can run on real threads and in virtual time.

Cost model contract
-------------------
``cost`` values are reference-core seconds (see
:mod:`repro.machine.spec`).  On the simulated backend they drive the
virtual schedule; on real backends they may be ignored or realised as
sleeps, depending on configuration.  Code that wants its work accounted
calls ``executor.compute(cost)`` at the point the work happens.

Task lifecycle contract
-----------------------
Written once in this module, called by every backend, and run on each
of them by ``tests/executor/test_contract.py``:

* a dependent starts once every ``after`` future has succeeded; the
  first of them, in ``after`` order, that was cancelled or failed
  cancels it or fails it with the same exception instead (:func:`gate`);
* a cancelled token, or a ``deadline`` that passes (counted from
  ``submit``), cancels a task that has not started (:class:`DeadlineReaper`);
* an active :class:`~repro.resilience.FaultPlan` fails the tasks it
  picks without running them (:func:`injected_fault`);
* ``submit`` after ``shutdown()`` raises :class:`ExecutorShutdown`;
* a dead worker (``out_of_process`` backends) marks the pool broken: its
  queued and in-flight futures fail with :class:`ExecutorShutdown`,
  later submits raise it, and nothing respawns.
"""

from __future__ import annotations

import abc
import heapq
import itertools
import threading
import time
from typing import Any, Callable, Iterable, Sequence

from repro.executor.future import Future
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.resilience.cancel import CancelToken, DeadlineExceeded
from repro.resilience.faults import FaultPlan, InjectedFault

__all__ = [
    "DeadlineReaper", "Executor", "ExecutorShutdown", "emit_cancel", "emit_submit", "failed_dependency",
    "gate", "injected_fault", "missed_deadline", "settle_from", "settle_unstarted", "strand",
]


class ExecutorShutdown(RuntimeError):
    """Submit after shutdown, a task stranded by one, or any task of a
    pool broken by a dead worker."""


# -- the task lifecycle, shared by every backend --------------------------------
#
# Dependencies are read through the base ``Future.exception``: the sim
# future's override records a join edge, which would move makespans.


def failed_dependency(after: Iterable[Future]) -> Future | None:
    """The first done dependency, in ``after`` order, that was cancelled or failed."""
    for dep in after:
        if dep.done() and (dep.cancelled() or Future.exception(dep) is not None):
            return dep
    return None


def settle_from(future: Future, dep: Future) -> bool:
    """End ``future`` as its failed dependency ``dep`` ended: cancelled, or
    failed with the same exception.  True iff this call cancelled it."""
    if dep.cancelled():
        return future.cancel(f"dependency {dep.name!r} was cancelled")
    future.fail_if_pending(Future.exception(dep))
    return False


def gate(
    future: Future, after: Sequence[Future], release: Callable[[], None],
    on_cancel: Callable[[Future], None] | None = None,
) -> None:
    """Call ``release()`` once every future in ``after`` has succeeded, or
    settle ``future`` from the first that was cancelled or failed
    (:func:`settle_from`; ``on_cancel(future)`` runs if that cancelled it).

    Exactly one of the two happens, once: at once when nothing is pending,
    else on the thread that completes the last (or a failing) dependency.
    """

    def settle(dep: Future) -> None:
        if settle_from(future, dep) and on_cancel is not None:
            on_cancel(future)

    pending = [dep for dep in after if not dep.done()]
    # Scanned after ``pending`` is taken: a dependency that fails in
    # between is seen either here or by its done-callback.
    dep = failed_dependency(after)
    if dep is not None:
        settle(dep)
        return
    if not pending:
        release()
        return
    lock = threading.Lock()
    remaining = len(pending)

    def on_done(dep: Future) -> None:
        nonlocal remaining
        failed = failed_dependency((dep,)) is not None
        with lock:
            if remaining <= 0:
                return  # already settled or released
            remaining = 0 if failed else remaining - 1
            if remaining:
                return
        if failed:
            settle(dep)
        else:
            release()

    for dep in pending:
        dep.add_done_callback(on_done)


def missed_deadline(future: Future) -> DeadlineExceeded:
    """The exception an overdue task's future is cancelled with."""
    return DeadlineExceeded(f"task {future.name!r} missed its deadline")


def settle_unstarted(
    future: Future, after: Sequence[Future], cancel: CancelToken | None, deadline: float | None,
    trace: TraceRecorder, counter: str,
) -> bool:
    """Settle the task of an eager backend that must not start; True if it did.

    Checked in order: a failed dependency, a cancelled token, ``deadline=0``;
    a cancel is traced by :func:`emit_cancel` with ``counter``.  An
    unfinished dependency raises ``RuntimeError``: an eager backend ends
    each task at its submit, so that is a cycle or another executor's future.
    """
    for dep in after:
        if not dep.done():
            raise RuntimeError(f"task {future.name!r} depends on unfinished future {dep.name!r}")
    dep = failed_dependency(after)
    if dep is not None:
        cancelled = settle_from(future, dep)
    elif cancel is not None and cancel.cancelled:
        cancelled = future.cancel(f"token {cancel.name!r} cancelled")
    elif deadline == 0:
        cancelled = future.cancel(missed_deadline(future))
    else:
        return False
    if cancelled:
        emit_cancel(trace, future, counter)
    return True


class DeadlineReaper:
    """Cancels each watched future still pending at its deadline.

    One daemon thread, started by the first :meth:`watch`, serves a heap
    of ``(deadline, seq, future)``; ``on_cancel(future)`` runs after each
    cancel it wins.
    """

    def __init__(self, name: str, on_cancel: Callable[[Future], None] | None = None) -> None:
        self._name = name
        self._on_cancel = on_cancel
        self._cond = threading.Condition()
        self._heap: list[tuple[float, int, Future]] = []
        self._seq = itertools.count()
        self._thread: threading.Thread | None = None
        self._stopped = False

    def watch(self, future: Future, expires: float) -> None:
        """Cancel ``future`` if it is pending at ``expires`` (``time.monotonic()``)."""
        with self._cond:
            if self._stopped:
                return
            heapq.heappush(self._heap, (expires, next(self._seq), future))
            if self._thread is None:
                self._thread = threading.Thread(target=self._run, name=f"{self._name}-reaper", daemon=True)
                self._thread.start()
            self._cond.notify()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._heap and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                expires, _, future = self._heap[0]
                delay = expires - time.monotonic()
                if delay > 0:
                    self._cond.wait(timeout=delay)
                    continue
                heapq.heappop(self._heap)
            if future.cancel(missed_deadline(future)) and self._on_cancel is not None:
                self._on_cancel(future)

    def stop(self, timeout: float | None = None) -> None:
        """Stop the thread and drop every watch; idempotent."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)


def strand(future: Future, pool: str, trace: TraceRecorder, counter: str) -> None:
    """Fail a task that the shutdown of ``pool`` left queued with
    :class:`ExecutorShutdown`; trace a ``drain`` event if that beat a racing cancel."""
    why = f"task {future.name!r} stranded by shutdown of pool {pool!r}"
    if future.fail_if_pending(ExecutorShutdown(why)) and trace.enabled:
        trace.event("drain", future.name, task_id=future.meta["tid"])
        trace.count(counter)


def emit_submit(
    trace: TraceRecorder, future: Future, parent: int, after: Sequence[Future], counter: str
) -> None:
    """Trace a queued task: one ``submit`` event (its parent and dependency
    task ids rebuild the task graph) and one tick of ``counter``."""
    if trace.enabled:
        dep_tasks = [d.meta["tid"] for d in after if "tid" in d.meta]
        trace.event(
            "submit", future.name, task_id=future.meta["tid"],
            parent=parent, deps=len(after), dep_tasks=dep_tasks,
        )
        trace.count(counter)


def emit_cancel(trace: TraceRecorder, future: Future, counter: str) -> None:
    """Trace a cancelled task: one ``cancel`` event, one tick of ``counter``."""
    if trace.enabled:
        trace.event(
            "cancel", future.name, task_id=future.meta.get("tid", 0),
            exception=type(Future.exception(future)).__name__,
        )
        trace.count(counter)


def injected_fault(
    faults: FaultPlan, key: str, tid: int, name: str, trace: TraceRecorder, counter: str,
    worker: int | None = None,
) -> InjectedFault | None:
    """The fault ``faults`` picks for task ``(key, tid)``, traced, or None;
    the caller fails the task with it instead of running the body."""
    if not faults.should_fail_task(key, tid):
        return None
    if trace.enabled:
        trace.event("fault", name, task_id=tid, worker=worker)
        trace.count(counter)
    return InjectedFault(f"task {name!r} failed by fault plan")


class Executor(abc.ABC):
    """Common interface of inline, threaded and simulated execution."""

    #: number of processing units this executor models or uses
    cores: int = 1

    #: observability recorder (see :mod:`repro.obs`); backends set this
    #: from their ``trace=`` argument, defaulting to the disabled
    #: :data:`~repro.obs.trace.NULL_RECORDER` so instrumentation is free
    #: unless a recorder is installed.  Layers above (ptask, pyjama)
    #: emit through the same recorder, keeping one timeline per run.
    trace: TraceRecorder = NULL_RECORDER

    #: set by the default :meth:`shutdown`
    _shut: bool = False

    @abc.abstractmethod
    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        cost: float | None = None,
        name: str = "",
        after: Sequence[Future] = (),
        cancel: CancelToken | None = None,
        deadline: float | None = None,
        **kwargs: Any,
    ) -> Future:
        """Schedule ``fn(*args, **kwargs)`` as a task.

        ``cost``: declared work in reference-seconds (for the simulated
        backend); ``None`` means "unknown" — the task still runs, it just
        contributes only whatever it reports via :meth:`compute`.

        ``after``: futures that must complete before this task starts.
        The first of them, in ``after`` order, that was cancelled or
        failed settles the task without running it: a *cancelled*
        dependency cancels it (its own cancellation cascades further), a
        *failed* one fails it with the same exception.

        ``cancel``: a :class:`~repro.resilience.CancelToken`; cancelling
        it cancels the future if the task has not started, and the token
        is installed ambiently (:func:`repro.resilience.current_token`)
        while the body runs so cooperative code can stop early.

        ``deadline``: seconds from submission the task must *start*
        within; an overdue task is cancelled with
        :class:`~repro.resilience.DeadlineExceeded` rather than silently
        abandoned.  A negative deadline raises ``ValueError``.  On the
        eager backends (inline, sim) only ``deadline=0`` can trigger,
        since tasks start at submit.

        Raises :class:`ExecutorShutdown` after :meth:`shutdown`, and on
        a pool a dead worker has broken.
        """

    @abc.abstractmethod
    def compute(self, cost: float) -> None:
        """Charge ``cost`` reference-seconds of work to the current task."""

    @abc.abstractmethod
    def critical(self, name: str = "default") -> Any:
        """Context manager serialising a named critical section."""

    @abc.abstractmethod
    def barrier(self, key: str, parties: int) -> None:
        """Rendezvous of ``parties`` tasks on the named barrier.

        Barriers are cyclic: the same key can be reused for successive
        rendezvous of the same team.
        """

    @abc.abstractmethod
    def task_id(self) -> int:
        """Identity of the currently executing task (0 = the main program).

        Task identity is what task-local storage and the task-safe
        collections key on — distinct from thread identity, because one
        thread executes many tasks and (with helping) nests them.
        """

    def shutdown(self, drain: bool = True) -> None:
        """Release any resources; idempotent.

        ``drain=True`` finishes already-queued work before returning;
        ``drain=False`` completes every queued-but-unstarted task's
        future with :class:`ExecutorShutdown` so no waiter blocks
        forever.  Backends without queues accept and ignore the flag.
        Either way, a later :meth:`submit` raises :class:`ExecutorShutdown`.
        Default: set :attr:`_shut`, which the eager backends' ``submit`` checks.
        """
        self._shut = True

    # -- conveniences shared by all backends --------------------------------

    def submit_many(
        self,
        fn: Callable[..., Any],
        arg_tuples: Sequence[Sequence[Any]],
        *,
        costs: Sequence[float] | None = None,
        name: str = "batch",
    ) -> list[Future]:
        """Submit ``fn(*args)`` for each argument tuple; futures in order.

        Semantically identical to a loop of :meth:`submit` — this default
        *is* that loop — but backends may override it as a fast path that
        amortises per-submit overhead (the thread pool takes its queue
        lock once and wakes workers once for the whole group).  The
        serving gateway dispatches micro-batches through here.
        """
        arg_tuples = list(arg_tuples)
        if costs is not None and len(costs) != len(arg_tuples):
            raise ValueError(
                f"costs has {len(costs)} entries for {len(arg_tuples)} tasks"
            )
        futures = []
        for i, args in enumerate(arg_tuples):
            cost = costs[i] if costs is not None else None
            futures.append(self.submit(fn, *args, cost=cost, name=f"{name}[{i}]"))
        return futures

    def map(
        self,
        fn: Callable[..., Any],
        items: Sequence[Any],
        cost_fn: Callable[[Any], float] | None = None,
        name: str = "map",
    ) -> list[Future]:
        """Submit one task per item; returns futures in item order."""
        futures = []
        for i, item in enumerate(items):
            cost = cost_fn(item) if cost_fn is not None else None
            futures.append(self.submit(fn, item, cost=cost, name=f"{name}[{i}]"))
        return futures

    def wait_all(self, futures: Sequence[Future]) -> list[Any]:
        """Block until all futures complete; return results in order.

        Raises the first exception encountered (in future order).
        """
        return [f.result() for f in futures]

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
