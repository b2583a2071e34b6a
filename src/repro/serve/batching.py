"""Micro-batching of small homogeneous requests.

Small tasks (a matmul panel, a thumbnail, a text-search shard) pay more
in per-task overhead than in work.  The batcher groups *same-kind*
requests into one executor task.  Waiting for company only pays while
the pool is busy, so the gateway closes batches by Nagle's rule
(RFC 896):

* while fewer than ``executor.cores`` batches are in flight, the oldest
  open batch closes at once, whatever its kind
  (:meth:`MicroBatcher.close_oldest`);
* otherwise a batch waits for company, bounded by the policy's two
  knobs: ``max_size`` closes it as soon as it holds this many requests,
  ``max_delay`` once its oldest request has waited this long.

So batching amortises dispatch when the pool is saturated and costs no
latency when it is not.  ``max_size=1`` (or ``max_delay=0``)
degenerates to one-task-per-request, which is how the equivalence tests
pin that batching changes *when* work runs, never *what* it computes.

:func:`run_batch` is the module-level body the gateway submits — it must
be importable by name so the processes backend can pickle it.  Failures
are per-item: one bad request in a batch yields one ``("err", exc)``
slot without poisoning its batchmates.  A gateway that traces requests
on a real pool submits :func:`run_batch_timed` instead: the one place a
traced request's execution is timed, on the host-wide monotonic clock.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = ["Batch", "BatchPolicy", "MicroBatcher", "run_batch", "run_batch_timed"]


@dataclass(frozen=True)
class BatchPolicy:
    """How long a batch may wait for company once every core is busy:
    until it holds ``max_size`` requests, or its oldest request has
    waited ``max_delay`` seconds."""

    max_size: int = 8
    max_delay: float = 0.002

    def __post_init__(self) -> None:
        if self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")


@dataclass
class Batch:
    """A closed batch, ready for dispatch."""

    kind: str
    requests: list[Any]
    opened_at: float

    @property
    def size(self) -> int:
        return len(self.requests)


@dataclass
class _Open:
    kind: str
    opened_at: float
    requests: list[Any] = field(default_factory=list)


class MicroBatcher:
    """Groups requests by kind; not locked (the gateway holds its mutex).

    Requests only need ``.task`` (the kind string); the batcher treats
    them opaquely, so the gateway can carry whatever per-request state
    it likes through a batch.
    """

    def __init__(self, policy: BatchPolicy | None = None) -> None:
        self.policy = policy or BatchPolicy()
        self._open: dict[str, _Open] = {}

    def pending(self) -> int:
        """Requests sitting in open batches."""
        return sum(len(o.requests) for o in self._open.values())

    def add(self, request: Any, now: float) -> Batch | None:
        """Queue ``request``; returns the batch if this filled it."""
        kind = request.task
        open_ = self._open.get(kind)
        if open_ is None:
            open_ = self._open[kind] = _Open(kind, now)
        open_.requests.append(request)
        if len(open_.requests) >= self.policy.max_size:
            del self._open[kind]
            return Batch(kind, open_.requests, open_.opened_at)
        return None

    def due(self, now: float) -> list[Batch]:
        """Close and return batches whose oldest request has aged out.

        Deterministic order: batches come out in kind-insertion order
        (dict order), which under a seeded arrival trace is itself
        deterministic.
        """
        out: list[Batch] = []
        for kind in [
            k
            for k, o in self._open.items()
            if now - o.opened_at >= self.policy.max_delay
        ]:
            open_ = self._open.pop(kind)
            out.append(Batch(kind, open_.requests, open_.opened_at))
        return out

    def next_deadline(self) -> float | None:
        """Earliest instant a batch becomes due (dispatcher wake-up)."""
        if not self._open:
            return None
        return min(o.opened_at for o in self._open.values()) + self.policy.max_delay

    def close_oldest(self) -> Batch | None:
        """Close and return the batch that opened first (the one
        :meth:`next_deadline` times), whatever its kind; None when no
        batch is open."""
        if not self._open:
            return None
        open_ = min(self._open.values(), key=lambda o: o.opened_at)
        del self._open[open_.kind]
        return Batch(open_.kind, open_.requests, open_.opened_at)

    def flush(self) -> list[Batch]:
        """Close everything (drain path)."""
        out = [Batch(o.kind, o.requests, o.opened_at) for o in self._open.values()]
        self._open.clear()
        return out


def run_batch(
    calls: Sequence[tuple[Callable[..., Any], tuple, dict]],
) -> list[tuple[str, Any]]:
    """Execute a batch; one ``("ok", value)`` / ``("err", exc)`` per item."""
    out: list[tuple[str, Any]] = []
    for fn, args, kwargs in calls:
        try:
            out.append(("ok", fn(*args, **kwargs)))
        except Exception as exc:  # noqa: BLE001 — per-item isolation is the point
            out.append(("err", exc))
    return out


def run_batch_timed(
    calls: Sequence[tuple[Callable[..., Any], tuple, dict]],
) -> tuple[list[tuple[str, Any]], dict[str, Any]]:
    """:func:`run_batch` plus where each call ran.

    Returns ``(pairs, info)``: ``pairs`` as :func:`run_batch` returns
    them, and ``info`` with ``pid`` (the process that ran the batch) and
    ``spans``, one ``(start, end)`` per call on ``time.monotonic()``.
    That is the clock the gateway's ``WallClock`` reads, and every
    process on the host shares it, so the gateway marks each traced
    request's ``queue`` at its call's start and ``execute`` at its end
    on any backend.  Module-level and picklable, like :func:`run_batch`.
    """
    clock = time.monotonic
    out: list[tuple[str, Any]] = []
    spans: list[tuple[float, float]] = []
    for fn, args, kwargs in calls:
        start = clock()
        try:
            out.append(("ok", fn(*args, **kwargs)))
        except Exception as exc:  # noqa: BLE001 — per-item isolation is the point
            out.append(("err", exc))
        spans.append((start, clock()))
    return out, {"pid": os.getpid(), "spans": spans}
