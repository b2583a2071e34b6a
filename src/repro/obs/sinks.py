"""Where trace events go: memory, JSONL, or Chrome ``trace_event`` JSON.

Sinks receive :class:`~repro.obs.trace.TraceEvent` records one at a time
via :meth:`Sink.emit`; emission must be cheap and thread-safe because the
thread-pool backend emits from worker threads.  A finished run's events
become a Chrome trace in one call, :func:`write_chrome_trace`.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # import cycle: trace.py imports this module
    from repro.obs.trace import TraceEvent

__all__ = ["Sink", "MemorySink", "JsonlSink", "write_chrome_trace"]


class Sink:
    """Base sink: subclasses override :meth:`emit`; :meth:`flush` and
    :meth:`close` are idempotent and optional.  Every sink is a context
    manager — leaving the ``with`` block flushes and closes it
    deterministically, so file-backed sinks never rely on interpreter
    exit to get their bytes on disk."""

    def emit(self, event: "TraceEvent") -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output toward its destination; no-op by default."""

    def close(self) -> None:
        pass

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class MemorySink(Sink):
    """Keeps every event in a list — the test and default sink.

    Lock-free by design: ``list.append`` (and ``clear``) are GIL-atomic,
    so concurrent emitters from pool workers never corrupt the list and
    the recorder's hot path pays no lock round-trip per event.  Readers
    that need a stable view copy the list (``TraceRecorder.events``).
    """

    def __init__(self) -> None:
        self.events: list["TraceEvent"] = []

    def emit(self, event: "TraceEvent") -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"MemorySink(events={len(self.events)})"


class JsonlSink(Sink):
    """One JSON object per line, written as events arrive.

    Accepts a path (opened lazily, closed by :meth:`close`) or an open
    text file object (flushed but left open — the caller owns it).  Use
    it as a context manager for deterministic flush+close::

        with JsonlSink(path) as sink:
            recorder = TraceRecorder(sink=sink)
            ...
        # every line is on disk here, whatever happened in the body
    """

    def __init__(self, target: str | Path | IO[str]) -> None:
        self._lock = threading.Lock()
        if isinstance(target, (str, Path)):
            self._path: Path | None = Path(target)
            self._fp: IO[str] | None = None
            self._owns_fp = True
        else:
            self._path = None
            self._fp = target
            self._owns_fp = False
        self._count = 0

    def emit(self, event: "TraceEvent") -> None:
        line = json.dumps(event.to_json(), sort_keys=True, default=str)
        with self._lock:
            if self._fp is None:
                if self._path is None:
                    raise ValueError("JsonlSink already closed")
                self._fp = self._path.open("w")
            self._fp.write(line + "\n")
            self._count += 1

    def flush(self) -> None:
        """Flush the underlying file object (owned or caller-provided)."""
        with self._lock:
            if self._fp is not None:
                self._fp.flush()

    def close(self) -> None:
        """Flush, then close the handle if this sink opened it; a
        caller-provided stream is flushed but left open."""
        with self._lock:
            if self._fp is None:
                return
            self._fp.flush()
            if self._owns_fp:
                self._fp.close()
                self._fp = None

    def __repr__(self) -> str:
        where = str(self._path) if self._path is not None else "<stream>"
        return f"JsonlSink({where!r}, events={self._count})"


def write_chrome_trace(events: Iterable["TraceEvent"], path: str | Path) -> Path:
    """Write ``events`` (e.g. ``TraceRecorder.events()``) to ``path`` as
    Chrome ``trace_event`` JSON and return the path.

    The output is the *object* form (``{"traceEvents": [...]}``), which
    both ``chrome://tracing`` and Perfetto load directly.
    """
    doc = {"traceEvents": [e.to_chrome() for e in events], "displayTimeUnit": "ms"}
    out = Path(path)
    out.write_text(json.dumps(doc, default=str))
    return out
