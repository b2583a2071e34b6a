"""One front door for constructing any executor backend.

:func:`create` is the canonical way to build an executor::

    from repro.executor import create

    ex = create("inline")                      # sequential reference
    ex = create("threads", cores=4)            # real work-stealing pool
    ex = create("processes", cores=4)          # real multi-core worker processes
    ex = create("sim", cores=16)               # virtual time on PARC64@16c
    ex = create("sim", machine=ANDROID_PHONE)  # virtual time, given machine
    ex = create("threads", cores=2, compute_mode="sleep", trace=recorder)

Every backend accepts the same cross-cutting arguments (``cores``,
``machine``, ``trace``, ``faults``) plus backend-specific options passed
through ``**opts``.  The four backends are one closed table in this
module, next to their builders: each :class:`Backend` row names its
builder, its :class:`BackendCapabilities`, the options it accepts and
its aliases.  :func:`get_backend` is the one lookup and
:func:`available` lists the canonical names.

The :class:`ExecutorConfig` dataclass is the declarative twin: it
validates eagerly, can be stored and compared, and
:meth:`ExecutorConfig.build` makes the executor.

Direct constructors (:class:`~repro.executor.inline.InlineExecutor`,
:class:`~repro.executor.threads.WorkStealingPool`,
:class:`~repro.executor.simulated.SimExecutor`) remain importable for
backward compatibility, but they are a deprecated construction path —
``create()``/``ExecutorConfig`` is the one place where defaults, machine
resolution, trace injection and backend redirection are decided.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.executor.base import Executor
from repro.executor.inline import InlineExecutor
from repro.executor.simulated import SimExecutor
from repro.executor.threads import WorkStealingPool
from repro.machine.spec import PARC64, MachineSpec
from repro.obs.trace import TraceRecorder
from repro.resilience.faults import FaultPlan

__all__ = [
    "Backend", "BackendCapabilities", "ExecutorConfig", "available", "backend_override",
    "create", "get_backend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution substrate can do, declared up front.

    Parameters
    ----------
    virtual_time:
        The backend schedules declared costs on a machine model and
        reports virtual seconds — deterministic speedup *shapes*.
    out_of_process:
        Task bodies run outside the submitting process (argument/result
        transport and cancellation cross a process boundary), so a
        worker can die under a task.  A dead worker marks the pool
        broken: its in-flight and queued futures fail with
        :class:`~repro.executor.base.ExecutorShutdown`, later submits
        raise it, and nothing respawns.  The ambient token
        (:func:`~repro.resilience.current_token`) does not cross the
        process boundary: a body sees a worker-local token of the
        submitted token's name (or ``None`` if none was submitted),
        which a cancel of the submitted token reaches by message.  A
        body cannot return that token: it holds a lock, which does not
        pickle.
    barriers:
        ``executor.barrier(key, parties)`` performs a real rendezvous.

    Cancellation, deadlines and fault injection are no capability: every
    backend keeps the lifecycle of :mod:`repro.executor.base`.
    """

    virtual_time: bool = False
    out_of_process: bool = False
    barriers: bool = True


@dataclass(frozen=True)
class Backend:
    """One execution substrate: a row of the backend table.

    ``builder`` receives the validated :class:`ExecutorConfig` and returns
    a live :class:`~repro.executor.base.Executor`.  ``options`` is the
    closed set of backend-specific keyword options the config accepts for
    this kind (unknown options are rejected eagerly at config time).
    ``single_core`` marks definitionally sequential backends (they reject
    ``cores`` other than 1); ``accepts_machine`` is False for backends
    that have no use for a :class:`~repro.machine.spec.MachineSpec` at
    all (machine-driven *defaults* are handled by the builder).
    """

    name: str
    builder: Callable[[ExecutorConfig], Executor] = field(compare=False)
    capabilities: BackendCapabilities = field(default_factory=BackendCapabilities)
    options: frozenset[str] = frozenset()
    aliases: tuple[str, ...] = ()
    single_core: bool = False
    accepts_machine: bool = True


@dataclass(frozen=True)
class ExecutorConfig:
    """A validated, storable description of an executor to build.

    Parameters
    ----------
    kind:
        A backend name or alias (``"inline"``, ``"threads"`` /
        ``"pool"``, ``"sim"`` / ``"simulated"`` / ``"virtual"``,
        ``"processes"`` / ``"mp"``); normalised to the canonical name.
    cores:
        Worker count (threads/processes) or simulated core count (sim).
        Defaults: threads and processes 4; sim takes the machine's core
        count.  Single-core backends (``inline``) reject any other value.
    machine:
        A :class:`~repro.machine.spec.MachineSpec` for the sim backend
        (default PARC64, rescaled to ``cores`` when both are given).
        For threads/processes it only supplies a default worker count.
    trace:
        Observability recorder handed to the backend; ``None`` defers to
        the ambient recorder (see :mod:`repro.obs`).
    faults:
        Optional :class:`~repro.resilience.FaultPlan` handed to the
        backend; ``None`` defers to the ambient plan (see
        :func:`repro.resilience.use_faults`) — normally no faults.
    options:
        Backend-specific keyword options, validated eagerly against the
        backend's declared option set.
    """

    kind: str
    cores: int | None = None
    machine: MachineSpec | None = None
    trace: TraceRecorder | None = None
    faults: FaultPlan | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        backend = get_backend(self.kind)  # raises "unknown executor kind ..." with the full listing
        kind = backend.name
        object.__setattr__(self, "kind", kind)
        if self.cores is not None and self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        unknown = set(self.options) - set(backend.options)
        if unknown:
            raise ValueError(
                f"options {sorted(unknown)} not understood by the {kind!r} backend; "
                f"it accepts {sorted(backend.options) or 'no options'}"
            )
        if backend.single_core and self.cores not in (None, 1):
            raise ValueError(f"{kind} execution is single-core; got cores={self.cores}")
        if not backend.accepts_machine and self.machine is not None:
            raise ValueError(f"{kind} execution takes no machine model")

    def resolved_machine(self) -> MachineSpec:
        """The machine the sim backend will run on (PARC64-derived default)."""
        machine = self.machine if self.machine is not None else PARC64
        if self.cores is not None and machine.cores != self.cores:
            machine = machine.with_cores(self.cores)
        return machine

    def resolved_workers(self, default: int = 4) -> int:
        """Worker count for pool-style backends: cores, else the machine's, else ``default``."""
        if self.cores is not None:
            return self.cores
        if self.machine is not None:
            return self.machine.cores
        return default

    def build(self) -> Executor:
        """Construct the configured executor via its backend's builder."""
        return get_backend(self.kind).builder(self)


# ---------------------------------------------------------------------------
# The four backends.


def _build_inline(cfg: ExecutorConfig) -> Executor:
    return InlineExecutor(trace=cfg.trace, faults=cfg.faults)


def _build_threads(cfg: ExecutorConfig) -> Executor:
    return WorkStealingPool(
        workers=cfg.resolved_workers(), trace=cfg.trace, faults=cfg.faults, **cfg.options
    )


def _build_sim(cfg: ExecutorConfig) -> Executor:
    return SimExecutor(cfg.resolved_machine(), trace=cfg.trace, faults=cfg.faults, **cfg.options)


def _build_processes(cfg: ExecutorConfig) -> Executor:
    from repro.executor.processes import ProcessPool  # heavy import deferred to first use

    return ProcessPool(
        workers=cfg.resolved_workers(), trace=cfg.trace, faults=cfg.faults, **cfg.options
    )


_BACKENDS = (
    Backend("inline", _build_inline, single_core=True, accepts_machine=False),
    Backend(
        "threads",
        _build_threads,
        options=frozenset({"compute_mode", "time_scale", "steal_seed", "name"}),
        aliases=("pool", "thread"),
    ),
    Backend(
        "sim",
        _build_sim,
        BackendCapabilities(virtual_time=True),
        options=frozenset({"policy"}),
        aliases=("simulated", "virtual"),
    ),
    Backend(
        "processes",
        _build_processes,
        BackendCapabilities(out_of_process=True, barriers=False),
        options=frozenset({"name", "prefetch", "shm_threshold"}),
        aliases=("mp", "process"),
    ),
)
_BY_KIND = {kind: b for b in _BACKENDS for kind in (b.name, *b.aliases)}


def get_backend(kind: str) -> Backend:
    """The :class:`Backend` for ``kind``, a canonical name or an alias.

    Unknown kinds raise ``ValueError`` naming every backend *and* its
    aliases, so the error is self-documenting::

        unknown executor kind 'gpu'; registered backends: inline,
        processes (aliases: mp, process), sim (aliases: simulated,
        virtual), threads (aliases: pool, thread)
    """
    backend = _BY_KIND.get(kind)
    if backend is None:
        listing = ", ".join(
            b.name + (f" (aliases: {', '.join(sorted(b.aliases))})" if b.aliases else "")
            for b in sorted(_BACKENDS, key=lambda b: b.name)
        )
        raise ValueError(f"unknown executor kind {kind!r}; registered backends: {listing}")
    return backend


def available() -> tuple[str, ...]:
    """Canonical names of the four backends, in table order."""
    return tuple(b.name for b in _BACKENDS)


# ---------------------------------------------------------------------------
# Ambient backend redirection (the CLI's --backend/--cores option group).

#: Every backend without a virtual clock: the kinds ``backend_override`` redirects.
_REDIRECTABLE = frozenset(b.name for b in _BACKENDS if not b.capabilities.virtual_time)

_override_local = threading.local()


@contextmanager
def backend_override(kind: str | None = None, cores: int | None = None) -> Iterator[None]:
    """Redirect ``create()`` calls for *real* backends inside the block.

    While active, any ``create()`` of a backend without ``virtual_time``
    (``inline``, ``threads``, ``processes``) builds ``kind`` instead
    (with ``cores`` workers when given); options the target backend does
    not accept are dropped rather than raising, so existing call sites
    keep working.  Virtual-time (``sim``) call sites are deliberately
    left alone — experiments interrogate sim-specific APIs
    (``elapsed()``, ``schedule()``) that no real backend provides.

    This is how ``python -m repro <cmd> --backend processes --cores 4``
    retargets every real executor an experiment builds without each
    experiment growing backend plumbing.
    """
    if cores is not None and cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    if kind is not None:
        kind = get_backend(kind).name
        if kind not in _REDIRECTABLE:
            raise ValueError(
                f"backend override cannot target the virtual-time backend {kind!r}; "
                f"it redirects real execution (e.g. {sorted(_REDIRECTABLE)})"
            )
    prev = getattr(_override_local, "value", None)
    _override_local.value = (kind, cores)
    try:
        yield
    finally:
        _override_local.value = prev


def _apply_override(cfg: ExecutorConfig) -> ExecutorConfig:
    override = getattr(_override_local, "value", None)
    if override is None or cfg.kind not in _REDIRECTABLE:
        return cfg
    kind, cores = override
    new_kind = kind if kind is not None else cfg.kind
    new_cores = cores if cores is not None else cfg.cores
    backend = get_backend(new_kind)
    if backend.single_core:
        new_cores = None
    machine = cfg.machine if backend.accepts_machine else None
    options = {k: v for k, v in cfg.options.items() if k in backend.options}
    if (new_kind, new_cores, machine, options) == (cfg.kind, cfg.cores, cfg.machine, cfg.options):
        return cfg
    return ExecutorConfig(
        kind=new_kind,
        cores=new_cores,
        machine=machine,
        trace=cfg.trace,
        faults=cfg.faults,
        options=options,
    )


def create(
    kind: str,
    *,
    cores: int | None = None,
    machine: MachineSpec | None = None,
    trace: TraceRecorder | None = None,
    faults: FaultPlan | None = None,
    **opts: Any,
) -> Executor:
    """Build an executor backend; the canonical construction path.

    See :class:`ExecutorConfig` for parameter semantics.  Unknown kinds
    and options raise ``ValueError`` eagerly, naming what is accepted
    (including every backend and its aliases).
    """
    cfg = ExecutorConfig(
        kind=kind, cores=cores, machine=machine, trace=trace, faults=faults, options=dict(opts)
    )
    return _apply_override(cfg).build()
