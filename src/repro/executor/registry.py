"""An open registry of executor backends.

Historically :func:`repro.executor.create` was a closed three-way
``if/elif`` over ``("inline", "threads", "sim")``; adding a backend meant
editing the factory.  This module replaces that with a *registry*: a
backend is a named :class:`Backend` descriptor — a builder callable, a
:class:`BackendCapabilities` declaration, the option names it accepts —
and anything (including code outside this repository) can add one with
:func:`register_backend` without touching the factory.

The capability declaration is what orchestration layers branch on: a
sweep that wants *measured* speedup filters for ``real_parallel``, a
deterministic golden test insists on ``virtual_time``, a serving layer
that isolates tenants requires ``out_of_process``.  Capabilities describe
what the backend *supports*, not what a given configuration enables.

The built-in backends (``inline``/``threads``/``sim``/``processes``) are
registered by :mod:`repro.executor.factory` at import time; user code
normally goes through :func:`repro.executor.create` and only meets this
module when registering a new substrate::

    from repro.executor.registry import BackendCapabilities, register_backend

    register_backend(
        "mycluster",
        build_cluster_executor,          # ExecutorConfig -> Executor
        capabilities=BackendCapabilities(real_parallel=True, out_of_process=True),
        options=("scheduler", "hosts"),
        aliases=("cluster",),
    )
    create("mycluster", cores=32, scheduler="fifo")
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # avoid the cycle: factory imports this module
    from repro.executor.base import Executor
    from repro.executor.factory import ExecutorConfig

__all__ = [
    "Backend",
    "BackendCapabilities",
    "available",
    "backend_aliases",
    "get_backend",
    "register_backend",
    "resolve_kind",
    "unregister_backend",
]


@dataclass(frozen=True)
class BackendCapabilities:
    """What an execution substrate can do, declared up front.

    Parameters
    ----------
    real_parallel:
        Tasks can make simultaneous progress on multiple hardware cores
        (wall-clock speedup is *measured*, not simulated).  False for
        GIL-bound threads and for virtual time.
    virtual_time:
        The backend schedules declared costs on a machine model and
        reports virtual seconds — deterministic speedup *shapes*.
    out_of_process:
        Task bodies run outside the submitting process (argument/result
        transport and cancellation cross a process boundary), so a
        worker can die under a task.  A dead worker marks the pool
        broken: its in-flight and queued futures fail with
        :class:`~repro.executor.base.ExecutorShutdown`, later submits
        raise it, and nothing respawns.
    barriers:
        ``executor.barrier(key, parties)`` performs a real rendezvous.

    Cancellation, deadlines and fault injection are no capability: every
    backend keeps the lifecycle of :mod:`repro.executor.base`.
    """

    real_parallel: bool = False
    virtual_time: bool = False
    out_of_process: bool = False
    barriers: bool = True


@dataclass(frozen=True)
class Backend:
    """One registered execution substrate.

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
    builder: Callable[["ExecutorConfig"], "Executor"] = field(compare=False)
    capabilities: BackendCapabilities = field(default_factory=BackendCapabilities)
    options: frozenset[str] = frozenset()
    aliases: tuple[str, ...] = ()
    single_core: bool = False
    accepts_machine: bool = True
    summary: str = ""


_lock = threading.Lock()
_backends: dict[str, Backend] = {}  # insertion-ordered: registration order
_aliases: dict[str, str] = {}


def register_backend(
    name: str,
    builder: Callable[["ExecutorConfig"], "Executor"],
    *,
    capabilities: BackendCapabilities | None = None,
    options: Sequence[str] = (),
    aliases: Sequence[str] = (),
    single_core: bool = False,
    accepts_machine: bool = True,
    summary: str = "",
    replace: bool = False,
) -> Backend:
    """Add (or with ``replace=True`` swap) a backend under ``name``.

    ``name`` and every alias must be unused (unless replacing the same
    canonical name); collisions raise ``ValueError`` eagerly so a typo'd
    registration fails at import time, not at first ``create()``.
    """
    if not name or not name.isidentifier():
        raise ValueError(f"backend name must be an identifier, got {name!r}")
    backend = Backend(
        name=name,
        builder=builder,
        capabilities=capabilities if capabilities is not None else BackendCapabilities(),
        options=frozenset(options),
        aliases=tuple(aliases),
        single_core=single_core,
        accepts_machine=accepts_machine,
        summary=summary,
    )
    with _lock:
        if not replace and name in _backends:
            raise ValueError(f"backend {name!r} is already registered")
        for alias in backend.aliases:
            owner = _aliases.get(alias)
            if alias in _backends or (owner is not None and owner != name):
                raise ValueError(f"backend alias {alias!r} collides with an existing registration")
        if replace:
            # Drop aliases the previous registration owned but the new one no longer claims.
            for alias in [a for a, target in _aliases.items() if target == name]:
                del _aliases[alias]
        _backends[name] = backend
        for alias in backend.aliases:
            _aliases[alias] = name
    return backend


def unregister_backend(name: str) -> None:
    """Remove ``name`` and its aliases (primarily for tests)."""
    with _lock:
        backend = _backends.pop(name, None)
        if backend is None:
            raise ValueError(f"backend {name!r} is not registered")
        for alias in backend.aliases:
            _aliases.pop(alias, None)


def resolve_kind(kind: str) -> str:
    """Canonical backend name for ``kind`` (which may be an alias).

    Unknown kinds raise ``ValueError`` naming every registered backend
    *and* its aliases, so the error is self-documenting::

        unknown executor kind 'gpu'; registered backends: inline,
        processes (aliases: mp, process), sim (aliases: simulated,
        virtual), threads (aliases: pool, thread)
    """
    with _lock:
        if kind in _backends:
            return kind
        target = _aliases.get(kind)
        if target is not None:
            return target
        listing = ", ".join(
            name + (f" (aliases: {', '.join(sorted(b.aliases))})" if b.aliases else "")
            for name, b in sorted(_backends.items())
        )
    raise ValueError(f"unknown executor kind {kind!r}; registered backends: {listing}")


def get_backend(kind: str) -> Backend:
    """The :class:`Backend` descriptor for ``kind`` (aliases resolved)."""
    name = resolve_kind(kind)
    with _lock:
        return _backends[name]


def available() -> tuple[str, ...]:
    """Canonical names of every registered backend, in registration order."""
    with _lock:
        return tuple(_backends)


def backend_aliases() -> dict[str, str]:
    """A copy of the alias table (alias -> canonical name)."""
    with _lock:
        return dict(_aliases)


class KindsView(Sequence):
    """A live, read-only sequence view of :func:`available`.

    ``repro.executor.KINDS`` has historically been a tuple; keeping it a
    *sequence* (``in``, ``len``, iteration, indexing all work) that reads
    the registry on every access means code holding an imported ``KINDS``
    reference sees backends registered after the import.
    """

    def __getitem__(self, index):  # type: ignore[override]
        return available()[index]

    def __len__(self) -> int:
        return len(available())

    def __contains__(self, kind: object) -> bool:
        return kind in available()

    def __eq__(self, other: object) -> bool:
        return tuple(self) == other if isinstance(other, (tuple, list)) else NotImplemented

    def __repr__(self) -> str:
        return repr(available())
