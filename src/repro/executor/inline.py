"""Sequential reference executor: tasks run immediately on the caller.

This backend defines the *value semantics* the other backends must agree
with: any deterministic task program produces identical results inline,
on the thread pool and under simulation.  The equivalence tests in
``tests/executor/`` and the app test suites rely on this.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

from repro.executor.base import Executor, ExecutorShutdown, injected_fault, settle_unstarted
from repro.executor.future import Future
from repro.obs import rtrace as _rtrace
from repro.obs.trace import TraceRecorder, resolve_recorder
from repro.resilience.cancel import CancelToken, scoped_token
from repro.resilience.faults import FaultPlan, resolve_faults

__all__ = ["InlineExecutor"]


class InlineExecutor(Executor):
    """Runs every task synchronously at submit time.

    .. note:: prefer ``repro.executor.create("inline")`` over this
       constructor; the direct form stays supported for backward
       compatibility.
    """

    cores = 1

    def __init__(
        self,
        trace: TraceRecorder | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self._task_counter = 0
        self._current_task = 0
        self._barrier_counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self.trace = resolve_recorder(trace)
        self.faults = resolve_faults(faults)

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
        """Run ``fn`` right now on the caller; the future is already done."""
        if self._shut:
            raise ExecutorShutdown("inline executor is shut down")
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        future = Future(name=name or getattr(fn, "__name__", "task"))
        if (after or cancel is not None or deadline is not None) and settle_unstarted(
            future, after, cancel, deadline, self.trace, "inline.cancelled"
        ):
            return future
        self._task_counter += 1
        tid = self._task_counter
        future.meta["tid"] = tid
        future.try_start()
        if self.faults is not None:
            fault = injected_fault(
                self.faults, "inline", tid, future.name, self.trace, "inline.faults_injected", worker=0
            )
            if fault is not None:
                future.set_exception(fault)
                return future
        prev = self._current_task
        self._current_task = tid
        trace = self.trace
        if trace.enabled:
            # ``parent`` is the spawning task (0 = main), so the analyzer
            # can rebuild the spawn tree even without submit instants.
            dep_tasks = [d.meta["tid"] for d in after if "tid" in d.meta]
            trace.event(
                "task", future.name, phase="B", task_id=tid, worker=0,
                parent=prev, dep_tasks=dep_tasks,
            )
            trace.count("inline.tasks")
        rt_t0 = time.monotonic() if _rtrace.active() is not None else None
        try:
            with scoped_token(cancel):
                value = fn(*args, **kwargs)
        except Exception as exc:
            if rt_t0 is not None:
                # stamp before completion: done-callbacks read the meta
                future.meta["rt_span"] = (rt_t0, time.monotonic(), 0)
            future.set_exception(exc)
        else:
            if rt_t0 is not None:
                future.meta["rt_span"] = (rt_t0, time.monotonic(), 0)
            future.set_result(value)
        finally:
            self._current_task = prev
            if trace.enabled:
                trace.event("task", future.name, phase="E", task_id=tid, worker=0)
        return future

    def compute(self, cost: float) -> None:
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        # Inline execution does the real work already; nothing to account.

    @contextmanager
    def critical(self, name: str = "default") -> Iterator[None]:
        yield  # single-threaded: critical sections are trivially exclusive

    def barrier(self, key: str, parties: int) -> None:
        """Sequential barrier: a no-op rendezvous, but arity-checked.

        Inline execution runs team members one after another, so by the
        time member *k* reaches the barrier, members 0..k-1 have already
        passed it.  We still count arrivals so that mismatched ``parties``
        across a team is caught rather than silently ignored.
        """
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        n = self._barrier_counts.get(key, 0) + 1
        self._barrier_counts[key] = n % parties
        if self.trace.enabled:
            self.trace.event(
                "barrier", f"{key}:arrive", task_id=self._current_task, key=key, parties=parties
            )
            self.trace.count("inline.barrier_arrivals")

    def task_id(self) -> int:
        return self._current_task

    def __repr__(self) -> str:
        return f"InlineExecutor(tasks_run={self._task_counter})"
