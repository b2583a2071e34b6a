"""Execution backends shared by Parallel Task and Pyjama.

Interchangeable executors implement the same :class:`Executor`
interface.  The four backends are one closed table in
:mod:`repro.executor.factory`:

* :class:`~repro.executor.inline.InlineExecutor` — sequential reference
  semantics (tasks run at submit time on the caller);
* :class:`~repro.executor.threads.WorkStealingPool` — real OS threads with
  per-worker work-stealing deques and blocked-join *helping* (the
  ForkJoinPool discipline), used for all concurrency-correctness tests and
  responsiveness demos;
* :class:`~repro.executor.processes.ProcessPool` — spawned worker
  *processes* with a shared-memory NumPy data plane: the only backend
  that delivers **measured** multi-core speedup (no GIL);
* :class:`~repro.executor.simulated.SimExecutor` — eager value execution
  plus virtual-time scheduling of the recorded task graph on a
  :class:`~repro.machine.spec.MachineSpec`, used for every deterministic
  speedup experiment (see DESIGN.md §2 for why).

**Construction:** use the :func:`create` factory (or its declarative twin
:class:`ExecutorConfig`) — it is the single front door that resolves core
counts, machine models, observability (``trace=``) and fault plans
uniformly across backends::

    from repro.executor import create
    ex = create("sim", cores=16)          # virtual time
    ex = create("processes", cores=4)     # real multi-core speedup

:func:`available` names the backends and :func:`get_backend` returns one
:class:`Backend` row (aliases resolved) with its declared
:class:`BackendCapabilities`.  Direct constructor imports remain
supported for backward compatibility only; prefer ``create()``.
"""

from repro.executor.base import Executor, ExecutorShutdown
from repro.executor.factory import (
    Backend,
    BackendCapabilities,
    ExecutorConfig,
    available,
    backend_override,
    create,
    get_backend,
)
from repro.executor.future import CancelledError, Future, FutureError
from repro.executor.inline import InlineExecutor
from repro.executor.simulated import SimExecutor
from repro.executor.threads import WorkStealingPool


def __getattr__(name):
    # ProcessPool pulls in multiprocessing machinery; defer that cost (and
    # keep spawned workers from re-importing it transitively) until asked.
    if name == "ProcessPool":
        from repro.executor.processes import ProcessPool

        return ProcessPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Executor",
    "ExecutorShutdown",
    "Future",
    "FutureError",
    "CancelledError",
    "InlineExecutor",
    "SimExecutor",
    "WorkStealingPool",
    "ProcessPool",
    "create",
    "backend_override",
    "ExecutorConfig",
    "Backend",
    "BackendCapabilities",
    "available",
    "get_backend",
]
