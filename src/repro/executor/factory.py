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
through ``**opts``.  Which kinds exist is no longer fixed here: backends
live in the open registry (:mod:`repro.executor.registry`), this module
merely registers the built-ins and validates configs against whatever is
registered.  ``KINDS`` is a live view of the registry, so external
registrations show up in it immediately.

The :class:`ExecutorConfig` dataclass is the declarative twin: it
validates eagerly, can be stored/compared, round-trips to plain dicts
(:meth:`ExecutorConfig.to_dict` / :meth:`ExecutorConfig.from_dict`) so
orchestration layers can persist and replay configurations, and
:meth:`ExecutorConfig.build` makes the executor.

Direct constructors (:class:`~repro.executor.inline.InlineExecutor`,
:class:`~repro.executor.threads.WorkStealingPool`,
:class:`~repro.executor.simulated.SimExecutor`) remain importable for
backward compatibility, but they are a deprecated construction path —
``create()``/``ExecutorConfig`` is the one place where defaults, machine
resolution, trace injection and backend redirection are decided.
"""

from __future__ import annotations

import dataclasses
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.executor.base import Executor
from repro.executor.inline import InlineExecutor
from repro.executor.registry import (
    BackendCapabilities,
    KindsView,
    get_backend,
    register_backend,
    resolve_kind,
)
from repro.executor.simulated import SimExecutor
from repro.executor.threads import WorkStealingPool
from repro.machine.spec import PARC64, MachineSpec
from repro.obs.trace import TraceRecorder
from repro.resilience.faults import FaultPlan

__all__ = ["create", "ExecutorConfig", "KINDS", "backend_override"]

#: Live, read-only sequence of registered backend kinds (aliases resolve
#: via ``create()``; see :func:`repro.executor.registry.backend_aliases`).
KINDS = KindsView()


@dataclass(frozen=True)
class ExecutorConfig:
    """A validated, storable description of an executor to build.

    Parameters
    ----------
    kind:
        Any registered backend name or alias (``"inline"``, ``"threads"``
        / ``"pool"``, ``"sim"`` / ``"simulated"`` / ``"virtual"``,
        ``"processes"`` / ``"mp"`` out of the box); normalised to the
        canonical name.
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
        registered backend's declared option set.
    """

    kind: str
    cores: int | None = None
    machine: MachineSpec | None = None
    trace: TraceRecorder | None = None
    faults: FaultPlan | None = None
    options: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        kind = resolve_kind(self.kind)  # raises "unknown executor kind ..." with the full listing
        object.__setattr__(self, "kind", kind)
        backend = get_backend(kind)
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

    @property
    def capabilities(self) -> BackendCapabilities:
        """The registered capability declaration for this config's backend."""
        return get_backend(self.kind).capabilities

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
        """Construct the configured executor via its registered builder."""
        return get_backend(self.kind).builder(self)

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict snapshot that :meth:`from_dict` reconstructs exactly.

        Only declarative fields serialise; a live ``trace`` recorder is a
        runtime object and raises ``ValueError`` (inject it at build time
        instead, or rely on the ambient recorder).
        """
        if self.trace is not None:
            raise ValueError(
                "ExecutorConfig with a live trace recorder cannot be serialised; "
                "attach the recorder at build time or use the ambient one"
            )
        return {
            "kind": self.kind,
            "cores": self.cores,
            "machine": None if self.machine is None else dataclasses.asdict(self.machine),
            "faults": None if self.faults is None else dataclasses.asdict(self.faults),
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExecutorConfig":
        """Rebuild a config from :meth:`to_dict` output, rejecting unknown keys eagerly."""
        if not isinstance(data, dict):
            raise ValueError(f"ExecutorConfig.from_dict expects a dict, got {type(data).__name__}")
        allowed = {"kind", "cores", "machine", "faults", "options"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(
                f"unknown ExecutorConfig keys {sorted(unknown)}; expected a subset of {sorted(allowed)}"
            )
        if "kind" not in data:
            raise ValueError("ExecutorConfig dict is missing the required 'kind' key")
        machine = data.get("machine")
        if machine is not None:
            try:
                machine = MachineSpec(**machine)
            except TypeError as exc:
                raise ValueError(f"bad machine spec in ExecutorConfig dict: {exc}") from exc
        faults = data.get("faults")
        if faults is not None:
            try:
                faults = FaultPlan(**faults)
            except TypeError as exc:
                raise ValueError(f"bad fault plan in ExecutorConfig dict: {exc}") from exc
        options = data.get("options") or {}
        if not isinstance(options, dict):
            raise ValueError(f"ExecutorConfig options must be a dict, got {type(options).__name__}")
        return cls(
            kind=data["kind"],
            cores=data.get("cores"),
            machine=machine,
            faults=faults,
            options=dict(options),
        )


# ---------------------------------------------------------------------------
# Built-in backend registrations.


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


register_backend(
    "inline",
    _build_inline,
    capabilities=BackendCapabilities(),
    single_core=True,
    accepts_machine=False,
    summary="sequential reference semantics; tasks run at submit time on the caller",
)
register_backend(
    "threads",
    _build_threads,
    capabilities=BackendCapabilities(),
    options=("compute_mode", "time_scale", "steal_seed", "name", "scheduling"),
    aliases=("pool", "thread"),
    summary="real OS threads with work-stealing deques and blocked-join helping (GIL-bound)",
)
register_backend(
    "sim",
    _build_sim,
    capabilities=BackendCapabilities(virtual_time=True),
    options=("policy",),
    aliases=("simulated", "virtual"),
    summary="eager values plus virtual-time scheduling on a MachineSpec",
)
register_backend(
    "processes",
    _build_processes,
    capabilities=BackendCapabilities(real_parallel=True, out_of_process=True, barriers=False),
    options=("name", "prefetch", "shm_threshold"),
    aliases=("mp", "process"),
    summary="spawned worker processes with a shared-memory NumPy data plane (no GIL)",
)


# ---------------------------------------------------------------------------
# Ambient backend redirection (the CLI's --backend/--cores option group).

_REDIRECTABLE = frozenset({"inline", "threads", "processes"})

_override_local = threading.local()


@contextmanager
def backend_override(kind: str | None = None, cores: int | None = None) -> Iterator[None]:
    """Redirect ``create()`` calls for *real* backends inside the block.

    While active, any ``create()`` of a redirectable kind (``inline``,
    ``threads``, ``processes``) builds ``kind`` instead (with ``cores``
    workers when given); options the target backend does not accept are
    dropped rather than raising, so existing call sites keep working.
    Virtual-time (``sim``) call sites are deliberately left alone —
    experiments interrogate sim-specific APIs (``elapsed()``,
    ``schedule()``) that no real backend provides.

    This is how ``python -m repro <cmd> --backend processes --cores 4``
    retargets every real executor an experiment builds without each
    experiment growing backend plumbing.
    """
    if cores is not None and cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores}")
    if kind is not None:
        kind = resolve_kind(kind)
        if get_backend(kind).capabilities.virtual_time:
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
    (including every registered backend and its aliases).
    """
    cfg = ExecutorConfig(
        kind=kind, cores=cores, machine=machine, trace=trace, faults=faults, options=dict(opts)
    )
    return _apply_override(cfg).build()
