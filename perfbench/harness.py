"""Shared plumbing of the repo benchmark: statistics, memory, spans, output.

Nothing here imports ``repro`` or NumPy, so ``run.py`` can start the
set-up clock before the workload's first ``repro`` import.

The percentile is the benchmark's own (nearest-rank) and deliberately
does not reuse the program's percentile helpers: the program is free to
change its definitions, the benchmark's must stay fixed across commits.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

NS = 1_000_000_000


def now_ns() -> int:
    """System-wide monotonic clock in integer nanoseconds.

    ``CLOCK_MONOTONIC`` is shared by every process on the host, so stamps
    taken inside pool worker processes line up with the parent's, and
    integer stamps make per-request segments telescope exactly.
    """
    return time.monotonic_ns()


def percentile(xs: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def median(xs: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for even counts)."""
    if not xs:
        return 0.0
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (``ru_maxrss`` counts
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_mb() -> float:
    """Current resident memory of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def children_peak_rss_mb() -> float:
    """Largest peak RSS (``VmHWM``) among this process's live children.

    Read before a pool shuts down, this is the worker processes' peak;
    ``RUSAGE_CHILDREN`` alone would also count the set-up probes, which
    are children of the benchmark process too.
    """
    peak = 0.0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024)
        except OSError:
            continue  # exited between the listing and the read
    return peak


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine so far."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def host_note(since: tuple[int, int]) -> str:
    """How the host treated this run: hypervisor steal since ``since``
    and the time of a fixed pure-Python loop.  Neither feeds a metric;
    they tell a noisy run from a regression."""
    steal, total = (b - a for a, b in zip(since, cpu_ticks()))
    t0 = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x += i % 7
    loop_ms = (time.perf_counter() - t0) * 1e3
    return f"host: steal {100 * steal / max(total, 1):.1f}% of CPU time during the run; 1M-step loop {loop_ms:.1f} ms"


def fingerprint(seed: int) -> dict[str, Any]:
    """The machine and interpreter a result was measured on."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "seed": seed,
    }


#: body of a keep-awake process: lowest scheduling class, exits once
#: orphaned so it cannot outlive the benchmark
_SPIN = """
import os
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    os.nice(19)
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


@contextmanager
def keep_awake() -> Iterator[None]:
    """Keep every CPU out of its idle state while the block runs.

    On a virtual machine an idle vCPU halts, and waking it again waits
    for the hypervisor to reschedule it; that wait swung the serve
    workloads' median latency fivefold between identical runs.  One
    ``SCHED_IDLE`` busy process per CPU (the user-space equivalent of
    booting with ``idle=poll``) keeps the vCPUs running; any runnable
    task of the measured program preempts it at once.
    """
    procs = [
        subprocess.Popen([sys.executable, "-c", _SPIN], stdin=subprocess.DEVNULL)
        for _ in range(len(os.sched_getaffinity(0)))
    ]
    try:
        yield
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait()


# -- spans ---------------------------------------------------------------------


class Spans:
    """In-memory span log, written out once the run is over.

    A span is ``(name, start_ns, end_ns, parent, rid)``: ``parent`` names
    the enclosing span of the same ``rid`` (request, round or experiment
    index), or is ``None`` at the top.  Appending is a single
    ``list.append``, so wrappers on several threads may record at once.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[str, int, int, str | None, int | None]] = []

    def add(self, name: str, start: int, end: int, parent: str | None = None, rid: int | None = None) -> None:
        self.rows.append((name, start, end, parent, rid))

    def wrap(self, fn: Callable[..., Any], name: str, context: Callable[[], tuple[str | None, int | None] | None]) -> Callable[..., Any]:
        """``fn`` recording a span per call; ``context()`` gives
        ``(parent, rid)``, or ``None`` to skip recording that call."""
        rows = self.rows

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            t0 = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                ctx = context()
                if ctx is not None:
                    rows.append((name, t0, now_ns(), ctx[0], ctx[1]))

        return wrapped

    def self_times(self) -> dict[str, list[int]]:
        """Per span name, each span's duration minus the part of it that
        its child spans cover (children may overlap one another)."""
        children: dict[tuple[str, int | None], list[tuple[int, int]]] = {}
        for name, start, end, parent, rid in self.rows:
            if parent is not None:
                children.setdefault((parent, rid), []).append((start, end))
        out: dict[str, list[int]] = {}
        for name, start, end, _parent, rid in self.rows:
            covered = 0
            cursor = start
            for c0, c1 in sorted(children.get((name, rid), ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out.setdefault(name, []).append(end - start - covered)
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


# -- traced executor -----------------------------------------------------------


def traced_executor(inner: Any, on_dispatch: Callable[[int, Any, Sequence[tuple], list[Any]], None]) -> Any:
    """An :class:`~repro.executor.base.Executor` delegating to ``inner``.

    Every ``submit``/``submit_many`` stamps the dispatch time before
    handing the work on and reports ``(t_dispatch, fn, arg_tuples,
    futures)`` to ``on_dispatch``, which typically adds done-callbacks.
    Built lazily so this module stays free of ``repro`` imports.
    """
    from repro.executor.base import Executor

    class TracedExecutor(Executor):
        def __init__(self) -> None:
            self.cores = inner.cores
            self.trace = inner.trace

        def submit(self, fn, *args, **kwargs):
            t = now_ns()
            future = inner.submit(fn, *args, **kwargs)
            on_dispatch(t, fn, [args], [future])
            return future

        def submit_many(self, fn, arg_tuples, *, costs=None, name="batch"):
            arg_tuples = list(arg_tuples)
            t = now_ns()
            futures = inner.submit_many(fn, arg_tuples, costs=costs, name=name)
            on_dispatch(t, fn, arg_tuples, futures)
            return futures

        def compute(self, cost):
            inner.compute(cost)

        def critical(self, name="default"):
            return inner.critical(name)

        def barrier(self, key, parties):
            inner.barrier(key, parties)

        def task_id(self):
            return inner.task_id()

        def signal(self, name, value=True):
            inner.signal(name, value)

        def shutdown(self, drain=True):
            inner.shutdown(drain=drain)

    return TracedExecutor()


def warm_workers(executor: Any, timeout: float = 120.0) -> None:
    """Return once every worker of ``executor`` has answered a no-op task.

    Each no-op naps briefly so an already-warm worker cannot drain the
    whole round before a slower one starts; rounds repeat until as many
    distinct workers as ``executor.cores`` have answered.
    """
    from perfbench.bodies import whoami

    seen: set[tuple[int, int]] = set()
    deadline = time.monotonic() + timeout
    while len(seen) < executor.cores:
        if time.monotonic() > deadline:
            raise RuntimeError(f"only {len(seen)} of {executor.cores} workers answered")
        futures = [executor.submit(whoami, 0.005) for _ in range(executor.cores)]
        seen.update(f.result() for f in futures)


# -- results -------------------------------------------------------------------


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    #: operation label -> why it failed (only failed operations appear)
    failures: dict[str, str] = field(default_factory=dict)
    #: labels in ``failures`` that are documented known defects -> why
    known: dict[str, str] = field(default_factory=dict)
    #: counted failures without a per-operation label (shed, errors, ...)
    failed_unlabelled: int = 0
    #: benchmark-side invariants that did not hold (e.g. segment sums)
    broken: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: human-readable lines printed above the result
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures) + self.failed_unlabelled

    @property
    def correct(self) -> bool:
        """Every output was checked, and the only failures are known
        defects (they still count in ``failed``)."""
        return not self.broken and not self.failed_unlabelled and set(self.failures) <= set(self.known)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def emit(lines: Iterable[str], correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the human-readable block, then the one-line JSON result."""
    for line in lines:
        print(line)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
