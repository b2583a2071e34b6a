"""Out-of-process executor: worker processes, real multi-core speedup.

This is the backend that closes DESIGN.md's standing fidelity gap: the
GIL serialises Python bytecode across *threads*, so
:class:`~repro.executor.threads.WorkStealingPool` demonstrates
scheduling behaviour but never measured speedup.  :class:`ProcessPool`
runs task bodies in spawned worker *processes* — each with its own
interpreter and its own GIL — so CPU-bound NumPy-ish workloads
(``apps.kernels``, ``apps.images``, chunked quicksort) show wall-clock
speedup that is measured, not simulated.

Design notes
------------
* **Same claim protocol.**  Futures are the ordinary
  :class:`~repro.executor.future.Future`: a submitted task sits in a
  parent-side ready queue (cancellable) until the feeder thread *claims*
  it via ``try_start()`` and ships it to the worker queue.  Shipping is
  bounded (``workers * prefetch`` in flight), so a genuine cancellable
  window exists even under load.
* **Cross-process cancel.**  A task submitted with a token runs under
  a worker-local token of the same name (a task without one sees no
  token).  Once shipped, a cancel becomes a message: the parent
  broadcasts on per-worker pipes, which carry nothing else
  (:class:`~repro.resilience.remote.RemoteCancelChannel`); a listener
  thread in each worker cancels the worker-local token of a running
  task, or pre-cancels one that has not started (see
  :mod:`repro.resilience.remote`).
* **Shared-memory data plane.**  Large ndarray arguments travel through
  named ``multiprocessing.shared_memory`` segments instead of the pickle
  pipe (:mod:`repro.executor.shm`).  The pool's arena parks the segment
  of an argument that died, still mapped, and copies a later argument
  of similar size into it, so a long-lived pool stops paying for fresh
  pages every round.  Results come back through one-shot segments that
  workers name ``psm_<token>_<wid>_<n>``, with a random token per pool:
  a worker killed between creating one and replying leaves it behind,
  and :meth:`ProcessPool.shutdown` sweeps the pool's prefix once the
  workers are gone.
* **Trace shards.**  Workers cannot reach the parent recorder, so each
  writes a JSONL shard timestamped on the parent's timeline; shutdown
  merges the shards back (:mod:`repro.obs.shards`), giving ``obs.analyze``
  one coherent timeline with per-worker/per-pid attribution.
* **Faults.**  The seeded :class:`~repro.resilience.FaultPlan` is frozen
  data, so it ships to workers verbatim: ``should_fail_task(pool, tid)``
  draws identically in any process, keeping chaos runs reproducible.
* **No barriers, flat tasks only.**  Executors are not picklable, so a
  task body cannot submit nested tasks; workloads decompose flat
  (``matmul_tasks``, ``quicksort_chunks``).  ``barrier()`` raises.
* **Native-thread budget.**  Each worker's BLAS/OpenMP runtime gets
  ``max(1, usable_cpus() // workers)`` threads, through
  ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS``
  set in ``os.environ`` while the workers start (spawn has no
  per-child environment) and removed afterwards.  Left alone, every
  worker sizes its pool to the whole host, and those threads keep
  spinning after each call, so N workers oversubscribe the CPUs and
  starve the parent.  If the user set any of the three, the
  environment passes through untouched.

Workers are started with the ``spawn`` method unconditionally — it is
the only start method that is safe with threads in the parent and
portable across platforms, and it forces the spawn-safe ``__main__``
discipline the CI smoke job checks.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import secrets
import shutil
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.executor import shm as shm_plane
from repro.executor.base import (
    DeadlineReaper,
    Executor,
    ExecutorShutdown,
    emit_cancel,
    emit_submit,
    gate,
    missed_deadline,
    strand,
)
from repro.executor.future import Future
from repro.obs.shards import merge_shards, replay_into, shard_path
from repro.obs.sinks import JsonlSink
from repro.obs.trace import TraceRecorder, resolve_recorder
from repro.obs.trace import use as obs_use
from repro.resilience.cancel import CancelledError, CancelToken, scoped_token
from repro.resilience.faults import FaultPlan, InjectedFault, resolve_faults
from repro.resilience.remote import RemoteCancelChannel, WorkerCancelListener

__all__ = ["ProcessPool", "usable_cpus"]

#: The variables BLAS and OpenMP runtimes size their thread pools from.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: Held while a pool starts workers with :data:`_THREAD_VARS` set in ``os.environ``.
_env_lock = threading.Lock()
#: Where POSIX shared-memory segments show up as files (Linux).
_SHM_DIR = Path("/dev/shm")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (``taskset``,
    cgroup cpusets) where the platform has one, else the host's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _sweep_segments(prefix: str) -> None:
    """Unlink every segment whose name starts with ``prefix``.

    Only where segments show up as files under ``/dev/shm`` (Linux);
    elsewhere there is nothing to list, and the sweep is skipped.
    """
    if not _SHM_DIR.is_dir():
        return
    for path in _SHM_DIR.glob(f"{prefix}*"):
        path.unlink(missing_ok=True)


@contextmanager
def _native_thread_budget(threads: int) -> Iterator[None]:
    """Give a process started inside the block ``threads`` native threads.

    Spawn has no per-child environment: a child copies ``os.environ`` as
    it starts.  So the budget goes into the parent's environment for the
    block and comes out after it.  If the user set any of
    :data:`_THREAD_VARS`, the environment passes through untouched.
    """
    with _env_lock:
        if any(var in os.environ for var in _THREAD_VARS):
            yield
            return
        os.environ.update(dict.fromkeys(_THREAD_VARS, str(threads)))
        try:
            yield
        finally:
            for var in _THREAD_VARS:
                os.environ.pop(var, None)


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a spawned worker needs, as picklable plain data."""

    pool_name: str
    wid: int
    faults: FaultPlan | None
    shard_file: str | None
    wall_epoch: float  # parent time.time() at the recorder's t=0
    shm_threshold: int
    oneshot_prefix: str  # this worker's result segments are named prefix + n


@dataclass
class _Task:
    tid: int
    future: Future
    fn: Callable[..., Any]
    args: tuple[Any, ...]
    kwargs: dict[str, Any]
    deadline_wall: float | None = None
    token_name: str | None = None  # the submitted cancel token's name


def _portable_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round-trip, else a plain stand-in.

    Result-queue messages are pickled; an exception type with unpicklable
    state would otherwise kill delivery and hang the waiter.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_main(cfg: _WorkerConfig, task_q: Any, result_q: Any, cancel_conn: Any) -> None:
    """Worker-process entry point (module-level: spawn needs to import it)."""
    listener = WorkerCancelListener(cancel_conn)
    listener.start()
    recorder = TraceRecorder(sink=JsonlSink(cfg.shard_file)) if cfg.shard_file else None
    pid = os.getpid()
    oneshot_names = (f"{cfg.oneshot_prefix}{n}" for n in itertools.count())

    def now() -> float:
        # Same-host wall clock minus the parent's epoch: timestamps land
        # on the parent recorder's timeline, so merged shards interleave.
        return time.time() - cfg.wall_epoch

    if recorder:
        # Align the recorder's own clock too, and make it ambient so task
        # bodies (e.g. a RetryPolicy.run's retry events) land in the
        # shard without threading a recorder argument through pickling.
        recorder.rebase(now())
        ambient = obs_use(recorder)
        ambient.__enter__()

    while True:
        message = task_q.get()
        if message is None:
            break
        tid, name, fn, enc_args, enc_kwargs, deadline_wall, token_name = message
        reason = listener.precancelled(tid)
        if reason is not None:
            if recorder:
                recorder.event("cancel", name, ts=now(), task_id=tid, worker=cfg.wid,
                               exception="CancelledError")
            result_q.put(("cancelled", tid, reason))
            continue
        if deadline_wall is not None and time.time() > deadline_wall:
            if recorder:
                recorder.event("cancel", name, ts=now(), task_id=tid, worker=cfg.wid,
                               exception="DeadlineExceeded")
            result_q.put(("deadline", tid, None))
            continue
        if cfg.faults is not None and cfg.faults.should_fail_task(cfg.pool_name, tid):
            if recorder:
                recorder.event("fault", name, ts=now(), task_id=tid, worker=cfg.wid)
            result_q.put(("error", tid, InjectedFault(f"task {name!r} failed by fault plan")))
            continue
        # A submitted token gets a worker-local stand-in of its name,
        # which a cancel of the original reaches by message.
        scope: Any = nullcontext()
        if token_name is not None:
            token = CancelToken(token_name)
            listener.register(tid, token)
            scope = scoped_token(token)
        attachments = shm_plane.ShmAttachments()
        if recorder:
            recorder.event("task", name, phase="B", ts=now(), task_id=tid, worker=cfg.wid, pid=pid)
        try:
            try:
                args = shm_plane.decode_payload(enc_args, attachments)
                kwargs = shm_plane.decode_payload(enc_kwargs, attachments)
                with scope:
                    value = fn(*args, **kwargs)
            finally:
                attachments.close()
            result_q.put(("done", tid, shm_plane.export_oneshot(value, cfg.shm_threshold, oneshot_names)))
        except CancelledError as exc:
            if recorder:
                recorder.event("cancel", name, ts=now(), task_id=tid, worker=cfg.wid,
                               exception=type(exc).__name__)
            result_q.put(("cancelled", tid, str(exc) or "cancelled"))
        except BaseException as exc:
            result_q.put(("error", tid, _portable_exception(exc)))
        finally:
            if token_name is not None:
                listener.unregister(tid)
            if recorder:
                recorder.event("task", name, phase="E", ts=now(), task_id=tid, worker=cfg.wid)
    if recorder:
        recorder.close()


class ProcessPool(Executor):
    """Bounded pool of spawned worker processes behind the Executor API.

    .. note:: construct via ``repro.executor.create("processes", cores=N)``
       — the factory resolves traces, fault plans and worker counts
       uniformly (and honours ``backend_override``).

    Parameters
    ----------
    workers:
        Number of worker processes (the pool's ``cores``).
    name:
        Label used in trace events, metrics and fault-plan keys.
    prefetch:
        In-flight bound per worker: at most ``workers * prefetch`` tasks
        are shipped-but-incomplete at once.  Keeping it small preserves
        the cancellable parent-side window; raising it hides queue latency
        for swarms of tiny tasks.
    shm_threshold:
        Minimum ndarray payload (bytes) routed through shared memory
        instead of the pickle pipe.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        name: str = "procs",
        prefetch: int = 2,
        shm_threshold: int = shm_plane.DEFAULT_THRESHOLD,
        trace: TraceRecorder | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if prefetch < 1:
            raise ValueError(f"prefetch must be >= 1, got {prefetch}")
        self.cores = workers
        self.name = name
        self.prefetch = prefetch
        self.trace = resolve_recorder(trace)
        self.faults = resolve_faults(faults)
        self._arena = shm_plane.ShmArena(shm_threshold)
        self._oneshot_prefix = f"psm_{secrets.token_hex(4)}_"

        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._ready: deque[_Task] = deque()
        self._shipped: dict[int, _Task] = {}
        self._inflight = 0
        self._closing = False
        self._closed = False
        self._broken = False
        # Tasks a worker death reclaimed: their arguments stay exported
        # until shutdown() has joined the workers, because a surviving
        # worker may still be reading those segments.
        self._reclaimed: list[_Task] = []
        self._tid_counter = itertools.count(1)
        self._critical_locks: dict[str, threading.RLock] = {}

        # Parent side: cancels futures still queued here at their deadline.
        self._reaper = DeadlineReaper(name, on_cancel=self._cancelled)

        ctx = mp.get_context("spawn")
        self._task_q = ctx.SimpleQueue()
        self._result_q = ctx.SimpleQueue()

        self._shard_dir = tempfile.mkdtemp(prefix="repro-shards-") if self.trace.enabled else None
        # Workers stamp wall-clock time relative to this epoch so their
        # events land directly on the parent recorder's timeline.
        wall_epoch = time.time() - self.trace.now()

        send_conns = []
        self._processes = []
        threads = max(1, usable_cpus() // workers)
        for wid in range(workers):
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            send_conns.append(send_conn)
            cfg = _WorkerConfig(
                pool_name=name,
                wid=wid,
                faults=self.faults if (self.faults is not None and self.faults.active) else None,
                shard_file=shard_path(self._shard_dir, wid) if self._shard_dir else None,
                wall_epoch=wall_epoch,
                shm_threshold=shm_threshold,
                oneshot_prefix=f"{self._oneshot_prefix}{wid}_",
            )
            proc = ctx.Process(
                target=_worker_main,
                args=(cfg, self._task_q, self._result_q, recv_conn),
                name=f"{name}-w{wid}",
                daemon=True,
            )
            with _native_thread_budget(threads):
                proc.start()
            recv_conn.close()  # the child holds its own copy now
            self._processes.append(proc)
        self._channel = RemoteCancelChannel(send_conns)

        self._feeder = threading.Thread(target=self._feed, name=f"{name}-feeder", daemon=True)
        self._feeder.start()
        self._collector = threading.Thread(target=self._collect, name=f"{name}-collector", daemon=True)
        self._collector.start()
        self._watchdog = threading.Thread(target=self._watch, name=f"{name}-watchdog", daemon=True)
        self._watchdog.start()

    def _watch(self) -> None:
        """Fail fast when a worker dies instead of hanging its waiters.

        A worker that exits without being asked (spawn import error,
        ``os._exit``, OOM kill) can never complete the tasks it holds;
        without this thread the parent would block forever on their
        futures.  Any unexpected death marks the pool broken: in-flight
        and queued futures fail with :class:`ExecutorShutdown` (the
        BrokenProcessPool discipline).
        """
        while True:
            with self._cond:
                if self._closing:
                    return
            dead = [p for p in self._processes if not p.is_alive()]
            if dead:
                with self._cond:
                    if self._closing:
                        return
                    # Under the lock: _schedule appends nothing after this.
                    self._broken = True
                    broken = list(self._ready)
                    self._ready.clear()
                    self._cond.notify_all()
                codes = sorted({p.exitcode for p in dead})
                why = ExecutorShutdown(
                    f"pool {self.name!r} is broken: {len(dead)} worker(s) died (exitcodes {codes})"
                )
                for task in broken:
                    task.future.fail_if_pending(why)
                reclaimed = self._fail_shipped(why)
                self._reclaimed.extend(reclaimed)
                with self._cond:
                    # The collector skips tids we reclaimed, so account
                    # for them here or shutdown's drain wait never ends.
                    self._inflight -= len(reclaimed)
                    self._cond.notify_all()
                return
            time.sleep(0.2)

    def _fail_shipped(self, why: BaseException) -> list[_Task]:
        """Take every shipped task back and fail its future with ``why``."""
        popped = (self._shipped.pop(tid, None) for tid in list(self._shipped))
        tasks = [task for task in popped if task is not None]  # None: the collector got it first
        for task in tasks:
            if not task.future.done():
                try:
                    task.future.set_exception(why)
                except Exception:
                    pass  # lost the race to a late completion
        return tasks

    # -- submission ----------------------------------------------------------

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
        """Queue ``fn(*args, **kwargs)`` for a worker process.

        ``fn`` and its arguments must be picklable by the spawn start
        method (module-level callables; no lambdas or closures).  Large
        NumPy arrays travel through the shared-memory plane instead of
        the pickle stream.  ``cost`` is accepted for interface parity
        with the virtual-time backends and ignored.  A task waiting on
        ``after`` is held in the parent, and one cancelled there never
        reaches a worker; a token cancelled after the task shipped
        chases it to its worker.
        """
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        with self._mutex:
            if self._closing:
                raise ExecutorShutdown(f"pool {self.name!r} is shut down")
            if self._broken:
                raise ExecutorShutdown(f"pool {self.name!r} is broken (a worker died)")
        future = Future(name=name or getattr(fn, "__name__", "task"))
        tid = next(self._tid_counter)
        future.meta["tid"] = tid
        task = _Task(
            tid=tid, future=future, fn=fn, args=args, kwargs=kwargs,
            token_name=cancel.name if cancel is not None else None,
        )
        if deadline is not None:
            task.deadline_wall = time.time() + deadline

        if self.trace.enabled:
            emit_submit(self.trace, future, self.task_id(), after, f"{self.name}.submitted")

        if cancel is not None:
            def on_token_cancel() -> None:
                reason = f"token {cancel.name!r} cancelled"
                if future.cancel(reason):
                    self._cancelled(future)
                else:
                    # Already claimed: the cancel must chase the task
                    # across the process boundary.
                    self._channel.broadcast_cancel(tid, reason)

            cancel.on_cancel(on_token_cancel)
            if future.done():  # token was already cancelled at submit
                return future
        if deadline is not None:
            self._reaper.watch(future, time.monotonic() + deadline)

        if after:
            gate(future, after, lambda: self._schedule(task), self._cancelled)
        else:
            self._schedule(task)
        return future

    def _schedule(self, task: _Task) -> None:
        with self._cond:
            refused = self._closing or self._broken
            if not refused:
                self._ready.append(task)
                if self.trace.enabled:
                    self.trace.set_gauge(f"{self.name}.ready", float(len(self._ready)))
                self._cond.notify_all()
        if refused:
            # A dependency completed after shutdown began or a worker
            # died: fail rather than leave the waiter hanging on a queue
            # nobody feeds.
            task.future.fail_if_pending(
                ExecutorShutdown(
                    f"pool {self.name!r} shut down or broke before task {task.future.name!r} ran"
                )
            )

    def _cancelled(self, future: Future) -> None:
        """Trace a parent-side cancel and wake the feeder to drop the task."""
        emit_cancel(self.trace, future, f"{self.name}.cancelled")
        with self._cond:
            self._cond.notify_all()

    # -- feeder / collector threads ------------------------------------------

    def _feed(self) -> None:
        """Claim ready tasks and ship them to the worker queue, bounded."""
        limit = self.cores * self.prefetch
        while True:
            with self._cond:
                while not (self._ready and self._inflight < limit):
                    if self._closing and not self._ready:
                        return  # shutdown: nothing left to ship
                    self._cond.wait()
                task = self._ready.popleft()
                self._inflight += 1
            if not task.future.try_start():
                # Cancelled (or deadline-reaped) while queued: drop it.
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()
                continue
            self._shipped[task.tid] = task
            try:
                enc_args = shm_plane.encode_payload(task.args, self._arena)
                enc_kwargs = shm_plane.encode_payload(task.kwargs, self._arena)
                self._task_q.put(
                    (task.tid, task.future.name, task.fn, enc_args, enc_kwargs,
                     task.deadline_wall, task.token_name)
                )
            except Exception as exc:  # unpicklable fn/args: fail, don't hang
                self._shipped.pop(task.tid, None)
                task.future.set_exception(
                    RuntimeError(f"task {task.future.name!r} could not be shipped to a worker: {exc}")
                )
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()
            # Not at the next popleft: an array dying there would park
            # its segment while this thread holds ``_cond``.
            del task

    def _collect(self) -> None:
        """Complete futures from worker result messages."""
        while True:
            message = self._result_q.get()
            if message is None:
                return
            kind, tid, payload = message
            task = self._shipped.pop(tid, None)
            if task is None:
                # Completed via another path (worker-death reclaim,
                # shutdown strand): still unlink the result's segments.
                if kind == "done":
                    try:
                        shm_plane.consume_oneshot(payload)
                    except Exception:
                        pass  # best effort: the value is discarded anyway
                continue
            future = task.future
            try:
                if kind == "done":
                    try:
                        future.set_result(shm_plane.consume_oneshot(payload))
                    except Exception as exc:
                        future.set_exception(RuntimeError(f"result transport failed: {exc}"))
                    if self.trace.enabled:
                        self.trace.count(f"{self.name}.tasks_executed")
                elif kind == "error":
                    future.set_exception(payload)
                    if self.trace.enabled and isinstance(payload, InjectedFault):
                        self.trace.count(f"{self.name}.faults_injected")
                elif kind == "cancelled":
                    future.set_exception(
                        CancelledError(f"task {future.name!r} was cancelled: {payload}")
                    )
                    if self.trace.enabled:
                        self.trace.count(f"{self.name}.cancelled")
                elif kind == "deadline":
                    future.set_exception(missed_deadline(future))
                    if self.trace.enabled:
                        self.trace.count(f"{self.name}.cancelled")
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()
            # Now, not at the next message: an exported array nobody
            # else holds parks its segment here.
            del task

    # -- executor interface --------------------------------------------------

    def compute(self, cost: float) -> None:
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        # Out-of-process tasks do real work; cost declarations need no
        # realisation (and this parent-side object never runs task bodies).

    @contextmanager
    def critical(self, name: str = "default") -> Iterator[None]:
        """Parent-side named critical section.

        Task bodies run in workers and cannot reach this object (it is
        not picklable), so this serialises *parent* threads only — e.g.
        done-callbacks racing the submitting thread.
        """
        with self._mutex:
            lock = self._critical_locks.setdefault(name, threading.RLock())
        with lock:
            yield

    def barrier(self, key: str, parties: int) -> None:
        raise RuntimeError(
            "the processes backend has no cross-process barriers: task bodies "
            "cannot rendezvous across workers — decompose the workload into "
            "flat tasks (see matmul_tasks / quicksort_chunks) or use the "
            "threads/sim backends for barrier demos"
        )

    def task_id(self) -> int:
        return 0  # task bodies run out of process; the parent is task 0

    # -- shutdown ------------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop workers; ``drain=True`` finishes queued work first.

        ``drain=False`` strands parent-side queued tasks with
        :class:`ExecutorShutdown` (tasks already shipped to workers still
        finish — the in-flight bound keeps that set small).  Once the
        workers are gone, every segment of the pool is freed: the
        arena's, and any result segment a killed worker left behind
        (swept by name prefix where ``/dev/shm`` lists them).
        """
        with self._cond:
            if self._closed:
                return
            already_closing = self._closing
            self._closing = True
            self._cond.notify_all()
            if already_closing:
                return
            if drain:
                self._cond.wait_for(
                    lambda: not self._ready and self._inflight == 0, timeout=timeout
                )
                stranded = list(self._ready)  # non-empty only on timeout
                self._ready.clear()
            else:
                stranded = list(self._ready)
                self._ready.clear()
        for task in stranded:
            strand(task.future, self.name, self.trace, f"{self.name}.drained")
        self._feeder.join(timeout=timeout)

        for _ in self._processes:
            self._task_q.put(None)
        for proc in self._processes:
            proc.join(timeout=timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._reclaimed.clear()
        # Anything still incomplete after the workers are gone (a crashed
        # worker's task) must not leave waiters hanging.
        self._fail_shipped(ExecutorShutdown(f"pool {self.name!r}: a worker exited before its task completed"))

        self._result_q.put(None)
        self._collector.join(timeout=timeout)
        # After the collector: it unlinks every result it consumes.
        _sweep_segments(self._oneshot_prefix)
        self._reaper.stop(timeout)
        self._channel.close()

        if self._shard_dir is not None:
            events, malformed = merge_shards(
                shard_path(self._shard_dir, wid) for wid in range(self.cores)
            )
            replay_into(self.trace, events)
            if malformed:
                self.trace.count(f"{self.name}.shard_lines_dropped", malformed)
            shutil.rmtree(self._shard_dir, ignore_errors=True)
            self._shard_dir = None
        self._arena.close()
        self._closed = True

    def __repr__(self) -> str:
        return (
            f"ProcessPool({self.name!r}, workers={self.cores}, "
            f"inflight={self._inflight}, shm={self._arena!r})"
        )
