"""Process-wide registry of executor workers for live observation.

Post-hoc tracing (:mod:`repro.obs.trace`) answers "what happened";
this module answers "what is happening *now*".  Every real thread that
executes work — thread-pool workers, the GUI event-dispatch thread, the
driver thread a CLI run registers — announces itself here with a
:class:`WorkerHandle` and keeps three facts current: its *state*
(``idle`` on the queue, ``running`` a task, ``blocked`` in a lock or
join), the *task* it is executing, and *since when*.  The sampling
profiler (:mod:`repro.obs.live.sampler`) joins those facts with
``sys._current_frames()`` to attribute each stack sample; the metrics
exporter reads the same registry for live gauges.

Hot-path cost is deliberately tiny: state transitions are plain
attribute writes (GIL-atomic, no lock), and queue depths are *pull*
gauges — executors register a callable at construction and pay nothing
per push/pop; the depth is computed at scrape time.

:data:`REGISTRY` is the module-wide default instance.  Executors use it
unconditionally: registration is cheap, and a registry nobody samples
is just a few idle attribute writes per task.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator

__all__ = [
    "IDLE",
    "RUNNING",
    "BLOCKED",
    "STATES",
    "WorkerHandle",
    "GaugeHandle",
    "WorkerRegistry",
    "REGISTRY",
    "current_handle",
    "attribute_task",
]

#: The three live worker states the sampler distinguishes.
IDLE = "idle"
RUNNING = "running"
BLOCKED = "blocked"
STATES = (IDLE, RUNNING, BLOCKED)

_thread = threading.local()


def current_handle() -> "WorkerHandle | None":
    """The :class:`WorkerHandle` registered *by this thread*, if any."""
    return getattr(_thread, "handle", None)


class _BlockedScope:
    """Context manager marking a handle blocked for the duration."""

    __slots__ = ("_handle", "_detail", "_prev")

    def __init__(self, handle: "WorkerHandle", detail: str) -> None:
        self._handle = handle
        self._detail = detail

    def __enter__(self) -> None:
        h = self._handle
        self._prev = (h.state, h.detail, h.since)
        h.detail = self._detail
        h.since = time.monotonic()
        h.state = BLOCKED

    def __exit__(self, *exc: Any) -> None:
        h = self._handle
        h.state, h.detail, h.since = self._prev


class _TaskScope:
    """Context manager marking a handle as running one task."""

    __slots__ = ("_handle", "_name", "_task_id", "_prev")

    def __init__(self, handle: "WorkerHandle", name: str, task_id: int) -> None:
        self._handle = handle
        self._name = name
        self._task_id = task_id

    def __enter__(self) -> None:
        self._prev = self._handle.begin_task(self._name, self._task_id)

    def __exit__(self, *exc: Any) -> None:
        self._handle.end_task(self._prev)


class WorkerHandle:
    """One registered worker thread's live state.

    Mutations are single attribute writes on purpose: a handle is
    written only by its own thread and read (racily, by design) by the
    sampler/exporter — a momentarily stale state is exactly as accurate
    as sampling can ever be, and the hot path stays lock-free.
    """

    __slots__ = (
        "wid", "name", "role", "ident",
        "state", "task_name", "task_id", "detail",
        "since", "tasks_done", "registered_at",
    )

    def __init__(self, wid: int, name: str, role: str, ident: int) -> None:
        self.wid = wid
        self.name = name
        self.role = role
        self.ident = ident
        self.state = IDLE
        self.task_name = ""
        self.task_id = 0
        self.detail = ""
        now = time.monotonic()
        self.since = now
        self.registered_at = now
        self.tasks_done = 0

    # -- transitions (called by the worker's own thread) ---------------------

    def begin_task(self, name: str, task_id: int = 0) -> tuple:
        """Enter ``running``; returns the previous scope for :meth:`end_task`.

        A zero ``task_id`` inherits the current one, so an inner
        attribution wrapper (e.g. the ptask runtime's) refines the task
        *name* without erasing the id the executor already set.
        """
        prev = (self.state, self.task_name, self.task_id, self.since)
        self.task_name = name
        if task_id:
            self.task_id = task_id
        self.since = time.monotonic()
        self.state = RUNNING
        return prev

    def end_task(self, prev: tuple) -> None:
        """Leave the task begun by the matching :meth:`begin_task`."""
        self.tasks_done += 1
        self.state, self.task_name, self.task_id, _ = prev
        self.since = time.monotonic()

    def task(self, name: str, task_id: int = 0) -> _TaskScope:
        """``with handle.task("quicksort", 17):`` — running for the body."""
        return _TaskScope(self, name, task_id)

    def blocked(self, detail: str = "") -> _BlockedScope:
        """``with handle.blocked("lock:tree"):`` — blocked for the body."""
        return _BlockedScope(self, detail)

    def idle(self) -> None:
        """Explicitly park the worker (waiting on its queue)."""
        self.state = IDLE
        self.task_name = ""
        self.task_id = 0
        self.detail = ""
        self.since = time.monotonic()

    # -- reading -------------------------------------------------------------

    def age(self, now: float | None = None) -> float:
        """Seconds spent in the current state."""
        return (time.monotonic() if now is None else now) - self.since

    def __repr__(self) -> str:
        what = f" {self.task_name!r}" if self.task_name else ""
        return f"WorkerHandle({self.name!r}, {self.role}, {self.state}{what})"


class GaugeHandle:
    """A registered pull-gauge; :meth:`dispose` deregisters it (idempotent)."""

    __slots__ = ("name", "fn", "_registry")

    def __init__(self, name: str, fn: Callable[[], float], registry: "WorkerRegistry") -> None:
        self.name = name
        self.fn = fn
        self._registry = registry

    def read(self) -> float:
        return float(self.fn())

    def dispose(self) -> None:
        self._registry._remove_gauge(self)

    def __repr__(self) -> str:
        return f"GaugeHandle({self.name!r})"


class WorkerRegistry:
    """Thread-safe directory of live workers and pull-gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._workers: dict[int, WorkerHandle] = {}
        self._gauges: list[GaugeHandle] = []
        self._next_wid = 0

    # -- workers -------------------------------------------------------------

    def register(self, name: str, role: str = "worker", ident: int | None = None) -> WorkerHandle:
        """Add a worker; ``ident`` defaults to the calling thread.

        When registered from its own thread (the normal case) the handle
        also becomes :func:`current_handle` for that thread, which is how
        executors and the ptask runtime find it without plumbing.
        """
        own = ident is None
        if ident is None:
            ident = threading.get_ident()
        with self._lock:
            wid = self._next_wid
            self._next_wid += 1
            handle = WorkerHandle(wid, name, role, ident)
            self._workers[wid] = handle
        if own:
            _thread.handle = handle
        return handle

    def unregister(self, handle: WorkerHandle) -> None:
        """Remove a worker; idempotent, clears the thread-local if it matches."""
        with self._lock:
            self._workers.pop(handle.wid, None)
        if getattr(_thread, "handle", None) is handle:
            _thread.handle = None

    def workers(self) -> list[WorkerHandle]:
        """Snapshot of live handles, ordered by registration."""
        with self._lock:
            return [self._workers[w] for w in sorted(self._workers)]

    def by_ident(self) -> dict[int, WorkerHandle]:
        """thread ident → handle (last registration wins per ident)."""
        out: dict[int, WorkerHandle] = {}
        for handle in self.workers():
            out[handle.ident] = handle
        return out

    def state_counts(self) -> dict[str, int]:
        """``{"idle": n, "running": n, "blocked": n}`` — always all three keys."""
        counts = dict.fromkeys(STATES, 0)
        for handle in self.workers():
            counts[handle.state] = counts.get(handle.state, 0) + 1
        return counts

    def __len__(self) -> int:
        with self._lock:
            return len(self._workers)

    def __iter__(self) -> Iterator[WorkerHandle]:
        return iter(self.workers())

    # -- pull gauges ---------------------------------------------------------

    def register_gauge(self, name: str, fn: Callable[[], float]) -> GaugeHandle:
        """Register a pull-gauge (e.g. a queue-depth lambda); returns a
        disposer handle.  Same-named gauges sum at read time, so several
        pools with the default name still report a meaningful total."""
        handle = GaugeHandle(name, fn, self)
        with self._lock:
            self._gauges.append(handle)
        return handle

    def _remove_gauge(self, handle: GaugeHandle) -> None:
        with self._lock:
            try:
                self._gauges.remove(handle)
            except ValueError:
                pass

    def gauges(self) -> dict[str, float]:
        """name → value snapshot; a gauge whose callable raises reads 0
        (an executor mid-teardown must not break a scrape)."""
        with self._lock:
            handles = list(self._gauges)
        out: dict[str, float] = {}
        for g in handles:
            try:
                value = g.read()
            except Exception:
                value = 0.0
            out[g.name] = out.get(g.name, 0.0) + value
        return dict(sorted(out.items()))

    # -- aggregates the exporter serves ---------------------------------------

    def busy_workers(self) -> int:
        """Workers currently in the ``running`` state."""
        return self.state_counts()[RUNNING]

    def inflight_tasks(self) -> float:
        """Submitted-but-unfinished work visible live: everything still
        queued (the queue-depth gauges) plus tasks executing right now."""
        queued = sum(v for n, v in self.gauges().items() if n.endswith("queue_depth"))
        return queued + self.busy_workers()

    def clear(self) -> None:
        """Drop every worker and gauge (test isolation only)."""
        with self._lock:
            self._workers.clear()
            self._gauges.clear()

    def __repr__(self) -> str:
        return f"WorkerRegistry(workers={len(self)}, gauges={len(self._gauges)})"


#: The process-wide registry every executor registers with.
REGISTRY = WorkerRegistry()


class attribute_task:
    """Attribute the current thread's samples to ``name`` for the body.

    ``with attribute_task("search", tid):`` marks the registered handle
    (if any) as running that task — the hook the ptask runtime wraps
    around task bodies so samples attribute correctly even on backends
    that execute on the caller's thread (inline, sim).  On a thread-pool
    worker it nests inside the pool's own scope and simply refines the
    name.  No-op on unregistered threads.
    """

    __slots__ = ("_name", "_task_id", "_handle", "_prev")

    def __init__(self, name: str, task_id: int = 0) -> None:
        self._name = name
        self._task_id = task_id

    def __enter__(self) -> None:
        handle = current_handle()
        self._handle = handle
        if handle is not None:
            self._prev = handle.begin_task(self._name, self._task_id)

    def __exit__(self, *exc: Any) -> None:
        if self._handle is not None:
            self._handle.end_task(self._prev)
