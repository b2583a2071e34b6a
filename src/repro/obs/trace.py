"""Structured trace recording with a zero-overhead disabled mode.

A :class:`TraceRecorder` turns runtime happenings into
:class:`TraceEvent` records and hands them to a sink
(:mod:`repro.obs.sinks`).  Events carry a *kind* (``task``, ``steal``,
``critical``, ``barrier``, ``edt``, ``region`` ...), a *phase* in the
Chrome ``trace_event`` vocabulary (``"B"``/``"E"`` span edges, ``"X"``
complete spans with a duration, ``"i"`` instants), a timestamp in
seconds, and the task/worker identity the event belongs to.

Two timelines coexist:

* **wall time** — the thread pool, EDT and inline executor stamp events
  with seconds since the recorder was created (:meth:`TraceRecorder.now`);
* **virtual time** — the simulated executor emits its schedule *post
  hoc* via :meth:`TraceRecorder.emit_span` with explicit virtual-second
  timestamps, one trace group (Chrome "process") per ``schedule()`` call
  so core sweeps stay separable in the viewer.

:data:`NULL_RECORDER` is the module-wide disabled recorder: every method
is a no-op, ``enabled`` is ``False``, and its metrics registry is a
:class:`~repro.obs.metrics.NullMetrics`.  Instrumented code may either
call it unconditionally (calls are cheap) or guard hot paths with
``if recorder.enabled:``.

An *ambient* recorder can be installed with :func:`use`; constructors
that take ``trace=None`` resolve it via :func:`resolve_recorder`, which
is how ``python -m repro analyze <exp>`` captures executors built deep
inside an experiment without threading a parameter through every layer.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple

from repro.obs.metrics import Metrics, NullMetrics
from repro.obs.sinks import MemorySink, Sink

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "resolve_recorder",
    "use",
]

#: Chrome trace_event phases this layer emits.
_PHASES = ("B", "E", "X", "i", "M")


#: shared default for events constructed without attrs — never mutated
#: (events are immutable; readers only iterate/copy it)
_EMPTY_ATTRS: dict[str, Any] = {}

_tuple_new = tuple.__new__


class _TraceEventFields(NamedTuple):
    kind: str
    name: str
    phase: str = "i"
    ts: float = 0.0
    dur: float | None = None
    task_id: int = 0
    worker: int | None = None
    group: int = 0
    # plain ``dict`` (not dict[str, Any]) so strategy inference in
    # property tests can resolve every field of the named tuple
    attrs: dict = _EMPTY_ATTRS


class TraceEvent(_TraceEventFields):
    """One structured record of something the runtime did.

    ``ts`` and ``dur`` are seconds (wall or virtual, per the emitting
    backend); sinks that need microseconds convert on serialisation.
    ``group`` maps to the Chrome "pid" so unrelated timelines (e.g. the
    same recording scheduled on 1, 2, 4 ... cores) don't overlap.

    Events are tuple-backed (a ``NamedTuple``): construction on the
    recorder's hot path is one ``tuple.__new__`` plus the two validity
    checks below — the previous frozen dataclass paid nine
    ``object.__setattr__`` calls per event.  Immutability comes with the
    tuple; field access, equality and ``_replace`` behave as before.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        name: str,
        phase: str = "i",
        ts: float = 0.0,
        dur: float | None = None,
        task_id: int = 0,
        worker: int | None = None,
        group: int = 0,
        attrs: dict = _EMPTY_ATTRS,
    ) -> "TraceEvent":
        if phase not in _PHASES:
            raise ValueError(f"unknown trace phase {phase!r}; expected one of {_PHASES}")
        if dur is not None and dur < 0:
            raise ValueError(f"event duration must be >= 0, got {dur}")
        return _tuple_new(cls, (kind, name, phase, ts, dur, task_id, worker, group, attrs))

    def to_json(self) -> dict[str, Any]:
        """Plain-dict form used by the JSONL sink (seconds, flat keys)."""
        out: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "ph": self.phase,
            "ts": self.ts,
            "task": self.task_id,
            "group": self.group,
        }
        if self.dur is not None:
            out["dur"] = self.dur
        if self.worker is not None:
            out["worker"] = self.worker
        if self.attrs:
            out["args"] = dict(self.attrs)
        return out

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_json`: rebuild an event from its JSONL dict.

        This is how cross-process trace *shards* (JSONL files written by
        worker processes) are read back for merging — see
        :mod:`repro.obs.shards`.
        """
        return cls(
            kind=data["kind"],
            name=data["name"],
            phase=data.get("ph", "i"),
            ts=float(data.get("ts", 0.0)),
            dur=data.get("dur"),
            task_id=int(data.get("task", 0)),
            worker=data.get("worker"),
            group=int(data.get("group", 0)),
            attrs=dict(data.get("args") or {}),
        )

    def to_chrome(self) -> dict[str, Any]:
        """Chrome ``trace_event`` dict (timestamps in microseconds)."""
        lane = self.worker if self.worker is not None else self.task_id
        out: dict[str, Any] = {
            "name": self.name,
            "cat": self.kind,
            "ph": self.phase,
            "ts": self.ts * 1e6,
            "pid": self.group,
            "tid": lane,
            "args": {"task": self.task_id, **self.attrs},
        }
        if self.phase == "X":
            out["dur"] = (self.dur or 0.0) * 1e6
        if self.phase == "i":
            out["s"] = "t"  # instant scope: thread
        return out


class TraceRecorder:
    """Collects trace events into a sink and metrics into a registry."""

    #: real recorders record; :class:`NullRecorder` flips this to False
    enabled = True

    def __init__(
        self,
        sink: Sink | None = None,
        metrics: Metrics | None = None,
        max_events: int | None = None,
        track_overhead: bool = False,
    ) -> None:
        """``max_events`` bounds how many events reach the sink; beyond it
        events are counted in :attr:`dropped_events` instead of recorded,
        so heavy-traffic runs cannot grow a MemorySink without bound.
        Metadata events (group labels, phase ``M``) are exempt — they are
        tiny and the analyzer needs them to name timelines.

        ``track_overhead`` times every sink emission so the recorder's
        own cost is observable (:meth:`overhead`); off by default — the
        timing itself costs two clock reads per event, and the numbers
        are wall-clock noise that must never reach baseline gating."""
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.sink: Sink = sink if sink is not None else MemorySink()
        self.metrics: Metrics = metrics if metrics is not None else Metrics()
        self.max_events = max_events
        self.track_overhead = track_overhead
        self._epoch = time.monotonic()
        self._lock = threading.Lock()
        self._next_group = 1  # group 0 is the wall-clock timeline
        self._emitted = 0
        self._dropped = 0
        self._overhead_seconds = 0.0
        self._overhead_events = 0

    # -- clocks & grouping ---------------------------------------------------

    def now(self) -> float:
        """Wall seconds since this recorder was created."""
        return time.monotonic() - self._epoch

    def rebase(self, now: float) -> None:
        """Shift the epoch so :meth:`now` reads ``now`` at this instant.

        Worker processes use this to put their shard recorders on the
        parent's timeline (the parent ships its wall epoch at spawn), so
        merged shards need no per-event timestamp translation."""
        self._epoch = time.monotonic() - now

    def new_group(self, label: str = "", **attrs: Any) -> int:
        """Allocate a trace group (Chrome "process") for a separate
        timeline; emits the metadata event that names it in the viewer.

        Extra ``attrs`` (e.g. ``cores=8`` from the simulated executor)
        ride on the metadata event, which is how the analyzer learns a
        timeline's machine shape for speedup-model fitting."""
        with self._lock:
            group = self._next_group
            self._next_group += 1
        if label:
            self._emit(
                TraceEvent(kind="meta", name="process_name", phase="M",
                           group=group, attrs={"name": label, **attrs})
            )
        return group

    # -- event emission ------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        """Hand one event to the sink, honouring the ``max_events`` cap
        (metadata events are always recorded — see ``__init__``)."""
        if self.max_events is not None and event.phase != "M":
            with self._lock:
                if self._emitted >= self.max_events:
                    self._dropped += 1
                    return
                self._emitted += 1
        if not self.track_overhead:
            self.sink.emit(event)
            return
        t0 = time.perf_counter()
        self.sink.emit(event)
        dt = time.perf_counter() - t0
        with self._lock:
            self._overhead_seconds += dt
            self._overhead_events += 1

    @property
    def dropped_events(self) -> int:
        """Events discarded because the ``max_events`` cap was reached."""
        return self._dropped

    def overhead(self) -> dict[str, float]:
        """Recorder self-cost: events timed and seconds spent in the sink.

        All zeros unless the recorder was built with
        ``track_overhead=True`` — the accounting is for the live views
        (``flame``, ``/metrics``) and never feeds :mod:`repro.obs.baseline`.
        """
        with self._lock:
            return {"events": float(self._overhead_events), "seconds": self._overhead_seconds}

    def event(
        self,
        kind: str,
        name: str,
        *,
        phase: str = "i",
        ts: float | None = None,
        task_id: int = 0,
        worker: int | None = None,
        group: int = 0,
        **attrs: Any,
    ) -> None:
        """Record one event; ``ts=None`` stamps wall time now."""
        event = TraceEvent(
            kind,
            name,
            phase,
            time.monotonic() - self._epoch if ts is None else ts,
            None,
            task_id,
            worker,
            group,
            attrs,
        )
        # Thin fast path for the common configuration (no event cap, no
        # overhead tracking): hand the event straight to the sink.
        if self.max_events is None and not self.track_overhead:
            self.sink.emit(event)
        else:
            self._emit(event)

    def record(self, event: TraceEvent) -> None:
        """Record a pre-built event verbatim (cap rules still apply).

        The replay entry point: shard merging
        (:func:`repro.obs.shards.replay_into`) uses it to splice events
        recorded in other processes — with their original timestamps,
        workers and task ids — into this recorder's timeline.
        """
        self._emit(event)

    def emit_span(
        self,
        kind: str,
        name: str,
        start: float,
        end: float,
        *,
        task_id: int = 0,
        worker: int | None = None,
        group: int = 0,
        **attrs: Any,
    ) -> None:
        """Record a complete span with explicit (e.g. virtual) timestamps."""
        self._emit(
            TraceEvent(
                kind=kind,
                name=name,
                phase="X",
                ts=start,
                dur=max(0.0, end - start),
                task_id=task_id,
                worker=worker,
                group=group,
                attrs=attrs,
            )
        )

    @contextmanager
    def span(
        self,
        kind: str,
        name: str,
        *,
        task_id: int = 0,
        worker: int | None = None,
        **attrs: Any,
    ) -> Iterator[None]:
        """Wall-clock span: emits matched ``B``/``E`` events around the body.

        The ``E`` event is emitted even when the body raises, so spans
        are always well-nested per task (the obs test suite pins this).
        """
        self.event(kind, name, phase="B", task_id=task_id, worker=worker, **attrs)
        try:
            yield
        finally:
            self.event(kind, name, phase="E", task_id=task_id, worker=worker)

    # -- metrics facade ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.count(name, n)

    def set_gauge(self, name: str, value: float) -> None:
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    # -- convenience ---------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """The recorded events, if the sink keeps them (MemorySink does);
        raises ``TypeError`` for write-only sinks."""
        events = getattr(self.sink, "events", None)
        if events is None:
            raise TypeError(f"sink {self.sink!r} does not retain events")
        return list(events)

    def clear(self) -> None:
        """Discard recorded events and reset the cap accounting, so one
        recorder can observe several phases of a long run in bounded
        memory; raises ``TypeError`` for sinks that cannot clear."""
        clear = getattr(self.sink, "clear", None)
        if clear is None:
            raise TypeError(f"sink {self.sink!r} does not support clear()")
        clear()
        with self._lock:
            self._emitted = 0
            self._dropped = 0

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"TraceRecorder(sink={self.sink!r}, metrics={self.metrics!r})"


class NullRecorder(TraceRecorder):
    """The disabled recorder: records nothing, costs (almost) nothing.

    Every emission method is an immediate-return no-op and the metrics
    registry is a :class:`~repro.obs.metrics.NullMetrics`, so leaving
    instrumentation calls in hot paths is safe when tracing is off.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(sink=MemorySink(), metrics=NullMetrics())

    def event(self, kind: str, name: str, **kwargs: Any) -> None:  # type: ignore[override]
        pass

    def record(self, event: TraceEvent) -> None:  # type: ignore[override]
        pass

    def emit_span(self, kind: str, name: str, start: float, end: float, **kwargs: Any) -> None:  # type: ignore[override]
        pass

    @contextmanager
    def span(self, kind: str, name: str, **kwargs: Any) -> Iterator[None]:  # type: ignore[override]
        yield

    def new_group(self, label: str = "", **attrs: Any) -> int:
        return 0

    def count(self, name: str, n: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass


#: Shared disabled recorder; the default everywhere ``trace=`` is omitted.
NULL_RECORDER = NullRecorder()

_ambient = threading.local()


def current_recorder() -> TraceRecorder:
    """The ambient recorder installed by :func:`use` (NULL when none)."""
    return getattr(_ambient, "recorder", None) or NULL_RECORDER


def resolve_recorder(trace: TraceRecorder | None) -> TraceRecorder:
    """What constructors do with their ``trace=`` argument: an explicit
    recorder wins; ``None`` falls back to the ambient one."""
    return trace if trace is not None else current_recorder()


@contextmanager
def use(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Install ``recorder`` as the ambient recorder for this thread.

    Constructors that default ``trace=None`` pick it up, which lets a
    driver (the CLI, a test) observe executors created arbitrarily deep
    inside the code under observation.
    """
    prev = getattr(_ambient, "recorder", None)
    _ambient.recorder = recorder
    try:
        yield recorder
    finally:
        _ambient.recorder = prev
