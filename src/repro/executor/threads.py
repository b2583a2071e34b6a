"""A work-stealing thread pool with blocked-join helping.

This is the real-concurrency backend: N OS threads, each with its own
double-ended work queue (LIFO for the owner, FIFO for thieves), a shared
inbox for external submissions, and the ForkJoinPool *helping* discipline
— a worker that blocks on ``future.result()`` executes other pending
tasks instead of idling, which is what makes recursive fork-join programs
(parallel quicksort, project 2) deadlock-free on a bounded pool.

Under CPython's GIL this pool provides concurrency, not parallelism; it
exists for correctness testing (the task and collection semantics are
exercised under genuine preemption) and for the GUI responsiveness demos,
where ``compute(cost)`` can be realised as a sleep so that background
work occupies real time without needing real cores.

Hot-path design
---------------
The per-task plumbing (submit -> queue -> pop -> run -> resolve) is the
floor under every wall-clock number in the ``pool_micro`` baseline and
the serving gateway, so it is deliberately lean:

* task records are plain tuples ``(fn, args, kwargs, future, tid, cost,
  token, deadline)`` — a dataclass costs several times the allocation;
* queue pops are **lock-free**: ``deque.append``/``pop``/``popleft`` are
  GIL-atomic, so workers scan own-deque -> inbox -> victims without
  taking the pool mutex.  The mutex only coordinates *sleeping*: a
  worker that found nothing re-scans under the lock after raising the
  ``_idle`` count, and submitters notify only when ``_idle`` says
  someone is actually waiting (the 0.05 s poll remains as a backstop);
* per-worker stat counters are single-writer lists aggregated on demand
  by the :attr:`stats` property — no mutex round-trip per task;
* a blocked join helps via a **per-waiter** ``threading.Event`` set by
  the awaited future's done-callback, so one completion wakes exactly
  the helping thread instead of thundering every worker through the
  shared condition variable.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.executor.base import (
    DeadlineReaper,
    Executor,
    ExecutorShutdown,
    emit_cancel,
    emit_submit,
    gate,
    injected_fault,
    missed_deadline,
    strand,
)
from repro.executor.future import Future
from repro.obs import rtrace as _rtrace
from repro.obs.live.registry import REGISTRY, current_handle
from repro.obs.trace import TraceRecorder, resolve_recorder
from repro.resilience.cancel import CancelToken, ambient_stack
from repro.resilience.faults import FaultPlan, resolve_faults

__all__ = ["WorkStealingPool", "PoolStats"]

_local = threading.local()

# Task tuple layout: (fn, args, kwargs, future, tid, cost, token, deadline).
# ``deadline`` is absolute time.monotonic(); the shared empty kwargs dict is
# safe because calls never mutate their **mapping.
_NO_KWARGS: dict = {}


@dataclass
class PoolStats:
    """Observability counters; read after ``shutdown`` for stable values."""

    tasks_executed: int = 0
    steals: int = 0
    steal_attempts: int = 0
    helped_joins: int = 0
    per_worker_executed: list[int] = field(default_factory=list)


class _PoolFuture(Future):
    """Future whose ``result`` lets a blocked worker help."""

    __slots__ = ("_pool",)

    def __init__(self, pool: "WorkStealingPool", name: str = "") -> None:
        super().__init__(name=name)
        self._pool = pool

    def result(self, timeout: float | None = None) -> Any:
        if self.done():
            return super().result(timeout)
        # Live state: blocked on this join for the whole wait; tasks
        # executed while helping nest their own running scopes inside it.
        handle = current_handle()
        scope = handle.blocked(f"join:{self.name}") if handle is not None else nullcontext()
        with scope:
            if not self.done() and getattr(_local, "worker", None) is not None:
                # One deadline for the whole wait: helping consumes part of
                # the budget, the blocking wait below gets only the remainder.
                deadline = None if timeout is None else time.monotonic() + timeout
                self._pool._help_until(self, deadline)
                timeout = None if deadline is None else max(0.0, deadline - time.monotonic())
            return super().result(timeout)

    def cancel(self, reason: str | BaseException | None = None) -> bool:
        if not super().cancel(reason):
            return False
        pool = self._pool
        emit_cancel(pool.trace, self, "pool.cancelled")
        with pool._work_available:  # wake workers so the dead task is dropped promptly
            pool._work_available.notify_all()
        return True


class WorkStealingPool(Executor):
    """Bounded pool of worker threads with per-worker deques.

    .. note:: prefer ``repro.executor.create("threads", cores=N, ...)``
       over this constructor; the direct form stays supported for
       backward compatibility (``ThreadPoolExecutor`` is an alias).
    """

    def __init__(
        self,
        workers: int = 4,
        compute_mode: str = "noop",
        time_scale: float = 1.0,
        steal_seed: int = 0,
        name: str = "pool",
        trace: TraceRecorder | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        """
        Parameters
        ----------
        workers:
            Number of worker threads.
        compute_mode:
            How ``compute(cost)`` is realised: ``"noop"`` (account
            nothing), ``"sleep"`` (sleep ``cost * time_scale`` — releases
            the GIL, used by responsiveness demos) or ``"spin"`` (busy
            loop — holds a core, used to create genuine CPU pressure).
        time_scale:
            Seconds of real time per reference-second of cost.
        steal_seed:
            Seed for each worker's victim-selection order.
        trace:
            Observability recorder (:mod:`repro.obs`); ``None`` picks up
            the ambient recorder (disabled by default).  When enabled the
            pool emits submit instants, per-task spans, steal/help
            instants, critical-section spans and barrier events — plus
            cancel/fault/drain lifecycle events.
        faults:
            Optional :class:`~repro.resilience.FaultPlan`; ``None`` picks
            up the ambient plan installed by
            :func:`repro.resilience.use_faults` (normally none).  An
            active plan may fail task bodies with
            :class:`~repro.resilience.InjectedFault` and persistently
            throttle a seeded subset of workers (realised ``compute``
            stretched by the plan's slow-worker factor).
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if compute_mode not in ("noop", "sleep", "spin"):
            raise ValueError(f"unknown compute_mode {compute_mode!r}")
        self.cores = workers
        self.name = name
        self.compute_mode = compute_mode
        self.time_scale = time_scale
        self.trace = resolve_recorder(trace)
        self.faults = resolve_faults(faults)

        self._mutex = threading.Lock()
        self._work_available = threading.Condition(self._mutex)
        self._deques: list[deque[tuple]] = [deque() for _ in range(workers)]
        self._inbox: deque[tuple] = deque()
        self._shutdown = False
        self._task_counter = 0
        #: workers parked in _work_available.wait (maintained under the
        #: mutex, read lock-free by submitters to gate the notify)
        self._idle = 0
        # Per-worker counters: each index is written by exactly one
        # thread (the worker, including while it helps), so plain int
        # increments are safe under the GIL; ``stats`` aggregates.
        self._executed_w = [0] * workers
        self._steals_w = [0] * workers
        self._steal_attempts_w = [0] * workers
        self._helped_w = [0] * workers
        self._critical_locks: dict[str, threading.RLock] = {}
        self._barriers: dict[str, threading.Barrier] = {}

        # Seeded straggler injection: each worker's compute throttle is
        # fixed at construction, so a "slow worker" stays slow for the
        # pool's lifetime (the scenario work stealing should absorb).
        if self.faults is not None and self.faults.active:
            self._worker_throttle = [
                self.faults.worker_factor(name, w) for w in range(workers)
            ]
        else:
            self._worker_throttle = [1.0] * workers

        # _PoolFuture.cancel emits the cancel event and wakes the workers.
        self._reaper = DeadlineReaper(name)

        # Live observability: queue depth is a *pull* gauge — nothing is
        # updated on push/pop; the sampler/exporter computes the depth at
        # scrape time from the deque lengths (len() is GIL-atomic).
        self._queue_gauge = REGISTRY.register_gauge(
            f"{name}.queue_depth",
            lambda: sum(map(len, self._deques)) + len(self._inbox),
        )

        rng = np.random.default_rng(steal_seed)
        self._victim_orders = [
            [v for v in rng.permutation(workers).tolist() if v != w] for w in range(workers)
        ]
        self._victim_queues = [
            [self._deques[v] for v in order] for order in self._victim_orders
        ]
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(w,), name=f"{name}-w{w}", daemon=True)
            for w in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission -----------------------------------------------------------

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
        """Enqueue ``fn`` for a worker; ``after`` gates via done-callbacks."""
        if after or cancel is not None or deadline is not None or self.trace.enabled:
            return self._submit_slow(fn, args, kwargs, cost, name, after, cancel, deadline)
        # Fast path: independent task, tracing off — one lock round
        # covers tid allocation, the shutdown check, the enqueue and the
        # idle-gated wakeup.
        future = _PoolFuture(self, name=name or getattr(fn, "__name__", "task"))
        worker = getattr(_local, "worker", None)
        with self._mutex:
            if self._shutdown:
                raise ExecutorShutdown(f"pool {self.name!r} is shut down")
            self._task_counter += 1
            tid = self._task_counter
            future.meta["tid"] = tid  # lets dependants trace their dep edges
            task = (fn, args, kwargs or _NO_KWARGS, future, tid, cost, None, None)
            if worker is not None and worker[0] is self:
                self._deques[worker[1]].append(task)  # LIFO for the owner
            else:
                self._inbox.append(task)
            if self._idle:
                self._work_available.notify()
        return future

    def _submit_slow(
        self,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        cost: float | None,
        name: str,
        after: Sequence[Future],
        cancel: CancelToken | None,
        deadline: float | None,
    ) -> Future:
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        future = _PoolFuture(self, name=name or getattr(fn, "__name__", "task"))
        with self._mutex:
            if self._shutdown:
                raise ExecutorShutdown(f"pool {self.name!r} is shut down")
            self._task_counter += 1
            tid = self._task_counter
        future.meta["tid"] = tid  # lets dependants trace their dep edges
        abs_deadline = None if deadline is None else time.monotonic() + deadline
        task = (fn, args, kwargs, future, tid, cost, cancel, abs_deadline)
        if cancel is not None:
            # A cancelled token cancels the future while it is queued;
            # Future.cancel is a no-op once a worker has claimed the task.
            cancel.on_cancel(
                lambda: future.cancel(f"token {cancel.name!r} cancelled")
            )
        if abs_deadline is not None:
            self._reaper.watch(future, abs_deadline)
        if self.trace.enabled:
            emit_submit(self.trace, future, self.task_id(), after, "pool.submitted")
        if after:
            gate(future, after, lambda: self._enqueue(task))  # _PoolFuture.cancel traces
        else:
            self._enqueue(task)
        return future

    def submit_many(
        self,
        fn: Callable[..., Any],
        arg_tuples: Sequence[Sequence[Any]],
        *,
        costs: Sequence[float] | None = None,
        name: str = "batch",
    ) -> list[Future]:
        """Group-submit fast path: futures built outside the lock.

        Independent tasks only (no ``after``/``cancel``/``deadline`` —
        use :meth:`submit` for those).  A tid range is reserved in one
        lock round, the futures and task tuples are built without the
        lock (future construction is the bulk of submission cost), and a
        second lock round lands the whole group atomically — workers see
        either none or all of it, and at most ``idle`` waiters are woken.
        """
        arg_tuples = list(arg_tuples)
        n = len(arg_tuples)
        if costs is not None and len(costs) != n:
            raise ValueError(
                f"costs has {len(costs)} entries for {n} tasks"
            )
        with self._mutex:
            if self._shutdown:
                raise ExecutorShutdown(f"pool {self.name!r} is shut down")
            base = self._task_counter
            self._task_counter = base + n
        futures: list[Future] = []
        tasks: list[tuple] = []
        tid = base
        for i, args in enumerate(arg_tuples):
            tid += 1
            future = _PoolFuture(self, name=f"{name}[{i}]")
            future.meta["tid"] = tid
            futures.append(future)
            tasks.append(
                (
                    fn,
                    tuple(args),
                    _NO_KWARGS,
                    future,
                    tid,
                    costs[i] if costs is not None else None,
                    None,
                    None,
                )
            )
        worker = getattr(_local, "worker", None)
        with self._mutex:
            if self._shutdown:
                raise ExecutorShutdown(f"pool {self.name!r} is shut down")
            if worker is not None and worker[0] is self:
                self._deques[worker[1]].extend(tasks)
            else:
                self._inbox.extend(tasks)
            idle = self._idle
            if idle:
                if idle > 1 and n > 1:
                    self._work_available.notify_all()
                else:
                    self._work_available.notify()
        if self.trace.enabled:
            parent = self.task_id()
            for task in tasks:
                self.trace.event(
                    "submit",
                    task[3].name,
                    task_id=task[4],
                    parent=parent,
                    deps=0,
                    dep_tasks=[],
                )
            self.trace.count("pool.submitted", len(tasks))
        return futures

    def _enqueue(self, task: tuple) -> None:
        worker = getattr(_local, "worker", None)
        with self._mutex:
            if self._shutdown:
                task[3].fail_if_pending(
                    ExecutorShutdown(f"pool {self.name!r} is shut down")
                )
                return
            if worker is not None and worker[0] is self:
                self._deques[worker[1]].append(task)  # LIFO for the owner
            else:
                self._inbox.append(task)  # external submit
            if self._idle:
                self._work_available.notify()

    # -- worker machinery ----------------------------------------------------------

    def _poll(self, wid: int, count_attempt: bool = True) -> tuple[tuple | None, bool]:
        """Pop a task (own LIFO, inbox FIFO, else steal) without the mutex.

        All three queues are deques, whose append/pop/popleft are
        GIL-atomic, so concurrent owners and thieves never corrupt them;
        the try/except guards the pop-vs-pop race on a queue that just
        went empty.  An empty own-deque + empty inbox counts as one steal
        *attempt* (a scan of every victim queue), whether or not it finds
        work — steals/attempts is the scheduler-health success rate the
        analyzer reports.  Idle polling counts too, deliberately: a pool
        that scans and finds nothing is telling you it is starved.
        """
        own = self._deques[wid]
        if own:
            try:
                return own.pop(), False
            except IndexError:
                pass
        inbox = self._inbox
        if inbox:
            try:
                return inbox.popleft(), False
            except IndexError:
                pass
        if count_attempt:
            self._steal_attempts_w[wid] += 1
            if self.trace.enabled:
                self.trace.count("pool.steal_attempts")
        for vq in self._victim_queues[wid]:
            if vq:
                try:
                    return vq.popleft(), True  # FIFO steal from the cold end
                except IndexError:
                    continue
        return None, False

    def _run_task(self, task: tuple, wid: int, handle: Any, tid_stack: list, tok_stack: list) -> None:
        fn, args, kwargs, future, tid, _cost, token, deadline = task
        if deadline is not None and time.monotonic() > deadline:
            # Overdue at pop time: cancel rather than silently abandon.
            future.cancel(missed_deadline(future))
            return
        if not future.try_start():
            # Cancelled (token, deadline reaper, or dep cascade) while
            # queued — the future is already complete, drop the task.
            return
        trace = self.trace
        tracing = trace.enabled
        faults = self.faults
        if faults is not None:
            fault = injected_fault(
                faults, self.name, tid, future.name, trace, "pool.faults_injected", worker=wid
            )
            if fault is not None:
                future.set_exception(fault)
                return
        tid_stack.append(tid)
        # Live state: running <this task>.  begin/end save and restore the
        # previous scope, so a task executed *inside* a blocked join
        # (_help_until) nests correctly instead of clobbering the outer one.
        live_prev = handle.begin_task(future.name, tid) if handle is not None else None
        if tracing:
            trace.event("task", future.name, phase="B", task_id=tid, worker=wid)
            started = time.monotonic()
        rt_t0 = time.monotonic() if _rtrace.active() is not None else None
        # Ambient-token scope, inlined: a task with no token running at
        # the top of a worker loop (empty stack) needs no push at all; a
        # nested task (helping) still pushes None so it does not inherit
        # the token of the task that spawned it.
        pushed = token is not None or bool(tok_stack)
        if pushed:
            tok_stack.append(token)
        try:
            value = fn(*args, **kwargs)
        except BaseException as exc:
            # BaseException too (SystemExit, KeyboardInterrupt): the task
            # fails, the worker lives on to run the next one.
            if pushed:
                tok_stack.pop()
            if rt_t0 is not None:
                # stamp before completion: done-callbacks read the meta
                future.meta["rt_span"] = (rt_t0, time.monotonic(), wid)
            future.set_exception(exc)
        else:
            if pushed:
                tok_stack.pop()
            if rt_t0 is not None:
                future.meta["rt_span"] = (rt_t0, time.monotonic(), wid)
            future.set_result(value)
        finally:
            tid_stack.pop()
            if handle is not None:
                handle.end_task(live_prev)
            if tracing:
                trace.event("task", future.name, phase="E", task_id=tid, worker=wid)
                trace.observe("pool.task_seconds", time.monotonic() - started)
                trace.count("pool.tasks_executed")
            self._executed_w[wid] += 1

    def _worker_loop(self, wid: int) -> None:
        _local.worker = (self, wid)
        handle = REGISTRY.register(f"{self.name}-w{wid}", role="pool")
        tid_stack = getattr(_local, "tid_stack", None)
        if tid_stack is None:
            tid_stack = _local.tid_stack = []
        tok_stack = ambient_stack()
        own = self._deques[wid]
        inbox = self._inbox
        poll = self._poll
        run_task = self._run_task
        cond = self._work_available
        try:
            while True:
                # Lock-free fast path: pop own LIFO / inbox FIFO directly.
                task = None
                stolen = False
                if own:
                    try:
                        task = own.pop()
                    except IndexError:
                        pass
                if task is None:
                    if inbox:
                        try:
                            task = inbox.popleft()
                        except IndexError:
                            pass
                    if task is None:
                        task, stolen = poll(wid)
                if task is None:
                    with cond:
                        if self._shutdown:
                            return
                        # Raise _idle *before* the locked re-scan: a
                        # submitter that reads _idle == 0 enqueued before
                        # this point, so the re-scan below sees its task
                        # and no wakeup is lost.
                        self._idle += 1
                        task, stolen = poll(wid, count_attempt=False)
                        if task is None:
                            cond.wait(timeout=0.05)
                        self._idle -= 1
                    if task is None:
                        continue
                if stolen:
                    self._steals_w[wid] += 1
                    if self.trace.enabled:
                        self.trace.event("steal", f"w{wid}-steals", task_id=task[4], worker=wid)
                        self.trace.count("pool.steals")
                run_task(task, wid, handle, tid_stack, tok_stack)
        finally:
            _local.worker = None
            REGISTRY.unregister(handle)

    def _help_until(self, future: Future, deadline: float | None) -> None:
        """Called by a worker blocked on ``future``: run other tasks.

        ``deadline`` is absolute (``time.monotonic()``) and is checked at
        the top of every iteration — including the no-work idle path, so
        a bounded wait with an empty pool still returns on time and lets
        ``Future.result`` raise ``TimeoutError`` uniformly.

        The wakeup is scoped to *this* thread: the awaited future's
        done-callback sets a private event, so its completion never
        touches the pool-wide condition variable (which used to wake
        every idle worker per completed join under heavy fanout).
        """
        worker = _local.worker
        wid = worker[1]
        handle = current_handle()
        tid_stack = getattr(_local, "tid_stack", None)
        if tid_stack is None:
            tid_stack = _local.tid_stack = []
        tok_stack = ambient_stack()
        waiter = threading.Event()
        future.add_done_callback(lambda _f: waiter.set())
        while not future.done():
            if deadline is not None and time.monotonic() > deadline:
                return
            task, stolen = self._poll(wid)
            if task is None:
                if future.done():
                    return
                # Parked until new work *could* exist (poll backstop) or
                # the join target completes (event set by the callback).
                waiter.wait(timeout=0.01)
                continue
            if stolen:
                self._steals_w[wid] += 1
            self._helped_w[wid] += 1
            if self.trace.enabled:
                if stolen:
                    self.trace.event("steal", f"w{wid}-steals", task_id=task[4], worker=wid)
                    self.trace.count("pool.steals")
                self.trace.event("help", f"w{wid}-helps", task_id=task[4], worker=wid)
                self.trace.count("pool.helped_joins")
            self._run_task(task, wid, handle, tid_stack, tok_stack)

    # -- Executor interface --------------------------------------------------------

    def compute(self, cost: float) -> None:
        """Realise ``cost`` per the pool's compute_mode (noop/sleep/spin).

        A fault plan's slow-worker throttle stretches the realised
        duration on throttled workers (noop mode realises nothing, so
        there is nothing to stretch there).
        """
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        if self.compute_mode == "noop" or cost == 0:
            return
        duration = cost * self.time_scale
        worker = getattr(_local, "worker", None)
        if worker is not None and worker[0] is self:
            duration *= self._worker_throttle[worker[1]]
        if self.compute_mode == "sleep":
            time.sleep(duration)
        else:  # spin
            end = time.monotonic() + duration
            while time.monotonic() < end:
                pass

    def _acquire_critical(self, lock: threading.RLock, name: str) -> None:
        """Acquire ``lock``, surfacing contention as a live ``blocked`` state.

        Uncontended acquisition stays on the fast path (one non-blocking
        try); only an actual wait flips the worker's registry state to
        ``blocked`` with a ``lock:<name>`` detail the sampler attributes.
        """
        if lock.acquire(blocking=False):
            return
        handle = current_handle()
        if handle is None:
            lock.acquire()
            return
        with handle.blocked(f"lock:{name}"):
            lock.acquire()

    @contextmanager
    def critical(self, name: str = "default") -> Iterator[None]:
        """Named critical section (re-entrant per thread, see base class)."""
        with self._mutex:
            lock = self._critical_locks.setdefault(name, threading.RLock())
        trace = self.trace
        if not trace.enabled:
            self._acquire_critical(lock, name)
            try:
                yield
            finally:
                lock.release()
            return
        # The span opens at the acquire *request*, so lock wait time is
        # visible in the trace; "acquired" marks the transition.
        tid = self.task_id()
        worker = getattr(_local, "worker", None)
        wid = worker[1] if worker is not None and worker[0] is self else None
        trace.event("critical", name, phase="B", task_id=tid, worker=wid, lock=name)
        requested = time.monotonic()
        try:
            self._acquire_critical(lock, name)
            try:
                trace.event("critical", f"{name}:acquired", task_id=tid, worker=wid)
                trace.observe("pool.lock_wait_seconds", time.monotonic() - requested)
                trace.count("pool.critical_sections")
                yield
            finally:
                lock.release()
        finally:
            trace.event("critical", name, phase="E", task_id=tid, worker=wid)

    def barrier(self, key: str, parties: int) -> None:
        """Block on a real threading.Barrier shared by the named team."""
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        if parties > self.cores:
            raise RuntimeError(
                f"barrier {key!r} needs {parties} parties but the pool has only "
                f"{self.cores} workers; this would deadlock"
            )
        with self._mutex:
            bar = self._barriers.get(key)
            if bar is None:
                bar = self._barriers[key] = threading.Barrier(parties)
            elif bar.parties != parties:
                raise RuntimeError(
                    f"barrier {key!r} reused with parties={parties}, was {bar.parties}"
                )
        handle = current_handle()
        scope = handle.blocked(f"barrier:{key}") if handle is not None else nullcontext()
        if not self.trace.enabled:
            with scope:
                bar.wait()
            return
        tid = self.task_id()
        self.trace.event("barrier", f"{key}:arrive", task_id=tid, key=key, parties=parties)
        waited = time.monotonic()
        with scope:
            bar.wait()
        self.trace.event("barrier", f"{key}:pass", task_id=tid, key=key, parties=parties)
        self.trace.observe("pool.barrier_wait_seconds", time.monotonic() - waited)
        self.trace.count("pool.barrier_passes")

    def task_id(self) -> int:
        stack = getattr(_local, "tid_stack", None)
        return stack[-1] if stack else 0

    def shutdown(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop the pool; idempotent.

        ``drain=True``: workers finish every already-queued task before
        exiting.

        ``drain=False``: queued-but-unstarted tasks are *not* run; their
        futures complete with :class:`ExecutorShutdown` so every waiter
        is released.  Running tasks still finish (cooperative model —
        threads are never killed).
        """
        with self._work_available:
            if self._shutdown:
                return
            stranded: list[tuple] = []
            if not drain:
                # Drain by popping (not iterating): workers pop these
                # deques lock-free, and a concurrent pop during iteration
                # would raise.  Each task lands on exactly one side.
                for dq in self._deques:
                    while True:
                        try:
                            stranded.append(dq.pop())
                        except IndexError:
                            break
                while True:
                    try:
                        stranded.append(self._inbox.popleft())
                    except IndexError:
                        break
            self._shutdown = True
            self._work_available.notify_all()
        for task in stranded:
            why = f"task {task[3].name!r} stranded by non-draining shutdown of pool {self.name!r}"
            strand(task[3], why, self.trace, "pool.drained")
        for t in self._threads:
            t.join(timeout=timeout)
        self._reaper.stop(timeout)
        self._queue_gauge.dispose()

    @property
    def stats(self) -> PoolStats:
        """Aggregated view over the per-worker counters (see __init__)."""
        per_worker = list(self._executed_w)
        return PoolStats(
            tasks_executed=sum(per_worker),
            steals=sum(self._steals_w),
            steal_attempts=sum(self._steal_attempts_w),
            helped_joins=sum(self._helped_w),
            per_worker_executed=per_worker,
        )

    def __repr__(self) -> str:
        return f"WorkStealingPool({self.name!r}, workers={self.cores}, mode={self.compute_mode!r})"
