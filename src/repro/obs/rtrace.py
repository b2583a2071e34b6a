"""Request-scoped tracing for the serving gateway (``repro.serve``).

A served request reports one end-to-end latency scalar; this module
records *where* that latency went.  Each **admitted** request gets a
:class:`RequestTrace` — a request id plus a monotonic stage clock —
whose life is a chain of stage *marks*::

    arrive ──admit──cache──batch──queue──execute──(retry)──resolve

Each mark ``(stage, ts)`` closes the named segment: the segment's
duration is the gap since the previous mark (or since arrival, for the
first).  Durations therefore *telescope*: they sum to exactly
``resolve_ts - arrival``, which the gateway guarantees equals the
latency it reports on the response, so per-stage attribution and the
end-to-end number can never disagree (the hypothesis property in
``tests/serve/test_rtrace.py`` pins this).  Stage vocabulary:

=========  ==========================================================
admit      admission decision (zero-width in driven mode)
cache      cache lookup; for coalesced followers, the whole wait on
           the in-flight leader
batch      waiting for the micro-batch to close (a free core, company or
           age-out)
queue      closed batch waiting for a free core; on real backends up
           to the start of this request's call (pool queue, the task
           pipe on processes, batchmates that run before it)
execute    the batch's virtual cost in driven mode; on real backends
           this request's call, timed where it ran
retry      re-execution after a failed attempt (immediate, so
           zero-width in driven mode)
resolve    call end to the gateway's callback (on processes the return
           trip: result pipe, collector, callback; zero-width in
           driven mode)
=========  ==========================================================

The clock is whatever the gateway uses — virtual seconds under the
driven (sim/inline) mode, so golden reports stay byte-stable, and
``time.monotonic()`` wall seconds on real pools, where the batch body
(:func:`repro.serve.batching.run_batch_timed`) stamps each call's start
and end on that same host-wide clock (see the fidelity note in
DESIGN.md).

Zero overhead when off, same discipline as ``NullMetrics``: the gateway
keeps ``req.rt is None`` fast paths, and nothing outside the gateway
and its batch body holds request-tracing state.  This module imports
nothing from the executor or serve packages, so every layer may depend
on it without cycles.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any

__all__ = [
    "STAGES",
    "RequestTrace",
    "RequestSummary",
    "RequestTraceCollector",
]

#: canonical stage order (also the display order of the decomposition)
STAGES = ("admit", "cache", "batch", "queue", "execute", "retry", "resolve")


def _settle(prefix: float, target: float) -> float | None:
    """Find ``x`` with ``prefix + x == target`` exactly, or ``None``.

    Starts from the residual and steps through adjacent floats; a few
    ulps suffice whenever ``target`` is reachable at all (either the
    subtraction was exact by Sterbenz's lemma, or ``x``'s grid is at
    least as fine as the sum's).  Returns ``None`` in the round-to-even
    midpoint regime where no ``x`` rounds onto ``target``.
    """
    x = target - prefix
    r = prefix + x
    for _ in range(8):
        if r == target:
            return x
        x = math.nextafter(x, math.inf if r < target else -math.inf)
        r = prefix + x
    return None


class RequestTrace:
    """Stage clock of one admitted request.

    Mutable and unlocked on purpose: the gateway only touches a trace
    while holding its own mutex (or from the single callback that
    resolves the request), exactly like the ``_Request`` it rides on.
    """

    __slots__ = (
        "request_id",
        "task",
        "arrival",
        "marks",
        "attempts",
        "pid",
        "cached",
        "status",
    )

    def __init__(self, request_id: int, task: str, arrival: float) -> None:
        self.request_id = request_id
        self.task = task
        self.arrival = arrival
        self.marks: list[tuple[str, float]] = []
        self.attempts = 1
        self.pid: int | None = None
        self.cached = False
        self.status = "open"

    def mark(self, stage: str, ts: float) -> None:
        """Close the ``stage`` segment at ``ts``.

        Timestamps are clamped monotonic: a wall-clock reading that
        lands before the previous mark — or before arrival — (scheduler
        jitter between the worker's clock read and the callback's)
        yields a zero-width segment instead of a negative one.
        """
        if ts < self.resolve_ts:
            ts = self.resolve_ts
        self.marks.append((stage, ts))

    @property
    def resolve_ts(self) -> float:
        """Timestamp of the last mark (arrival while the trace is open)."""
        return self.marks[-1][1] if self.marks else self.arrival

    def total(self) -> float:
        """End-to-end seconds, identical to the reported response latency
        (the gateway marks ``resolve`` with the same clock reading it
        computes the latency from)."""
        return self.resolve_ts - self.arrival

    def stages(self) -> dict[str, float]:
        """Per-stage durations; guaranteed to sum to exactly :meth:`total`.

        ``sum()`` over the returned dict (left-to-right, insertion
        order) equals ``total()`` with ``==``, not merely ``isclose``:
        the final entry is rebuilt as ``total - prefix`` and nudged by
        ulps until the running sum lands exactly on ``total``.  Two
        float traps hide here.  The naive one-shot residual absorption
        oscillates when the target sits midway between two reachable
        running sums; worse, with round-to-even the reachable sums can
        *skip* the target entirely (every true sum ``prefix + x`` lands
        exactly on a rounding midpoint, so adjacent ``x`` values round
        to the two neighbours of ``total`` and never to ``total``
        itself).  No choice of last value fixes that, so on failure the
        *penultimate* value is nudged one grid point down — that shifts
        the prefix off the midpoint alignment (its ulp is strictly
        smaller than the target's in the failing regime) and retries.
        """
        out: dict[str, float] = {}
        prev = self.arrival
        for stage, ts in self.marks:
            out[stage] = out.get(stage, 0.0) + (ts - prev)
            prev = ts
        if not self.marks:
            return out
        total = self.total()
        keys = list(out)
        if len(keys) == 1:
            out[keys[0]] = total
            return out
        prefix = 0.0
        for k in keys[:-2]:
            prefix = prefix + out[k]
        pen = out[keys[-2]]
        last = _settle(prefix + pen, total)
        for _ in range(8):
            if last is not None:
                break
            pen = math.nextafter(prefix + pen, -math.inf) - prefix
            last = _settle(prefix + pen, total)
        if last is None:  # pragma: no cover — see the docstring argument
            last = total - (prefix + pen)
        out[keys[-2]] = pen
        out[keys[-1]] = last
        return out


@dataclass(frozen=True)
class RequestSummary:
    """Frozen aggregate of one collection run (what reports consume).

    ``stage_samples`` maps each stage (in :data:`STAGES` order) to the
    per-request durations of every finished trace that passed through
    it.  ``latencies``/``resolves``/``oks``/``statuses`` are parallel
    arrays over finished traces in resolution order — the windowed SLO
    evaluator (:mod:`repro.obs.slo`) slices them.  ``exemplars`` are
    the N slowest traces, slowest first, for the waterfall view.
    """

    requests: int
    completed: int
    failed: int
    rejected: int
    cached: int
    stage_samples: dict[str, tuple[float, ...]]
    latencies: tuple[float, ...]
    resolves: tuple[float, ...]
    oks: tuple[bool, ...]
    statuses: tuple[str, ...]
    sheds: tuple[float, ...]
    exemplars: tuple[RequestTrace, ...]


class RequestTraceCollector:
    """Accumulates finished :class:`RequestTrace` records.

    ``exemplars`` bounds how many full traces are retained (the N
    slowest, by a deterministic ``(latency, order)`` heap); aggregates
    are kept for every finished trace regardless.  The collector is
    unlocked for the same reason the traces are: every ``finish`` call
    happens under the gateway mutex or its single resolving callback.
    """

    def __init__(self, exemplars: int = 24) -> None:
        if exemplars < 1:
            raise ValueError(f"exemplars must be >= 1, got {exemplars}")
        self.max_exemplars = exemplars
        self._stage_samples: dict[str, list[float]] = {s: [] for s in STAGES}
        self._latencies: list[float] = []
        self._resolves: list[float] = []
        self._oks: list[bool] = []
        self._statuses: list[str] = []
        self._sheds: list[float] = []
        self._heap: list[tuple[float, int, RequestTrace]] = []
        self._seq = 0
        self.requests = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.cached = 0

    def begin(self, request_id: int, task: str, arrival: float) -> RequestTrace:
        """Open a trace for one admitted request."""
        return RequestTrace(request_id, task, arrival)

    def shed(self, ts: float) -> None:
        """Record an admission shed (the request never got a trace)."""
        self._sheds.append(ts)

    def finish(self, rt: RequestTrace, response: Any) -> None:
        """Fold a resolved trace into the aggregates.

        ``response`` is duck-typed against the serve response union
        (``reason`` ⇒ rejected, ``error`` ⇒ failed, else completed) so
        this module stays import-free of ``repro.serve``.
        """
        if hasattr(response, "reason"):
            rt.status = "rejected"
            self.rejected += 1
            ok = False
        elif hasattr(response, "error"):
            rt.status = "failed"
            rt.attempts = getattr(response, "attempts", rt.attempts)
            self.failed += 1
            ok = False
        else:
            rt.status = "completed"
            rt.cached = bool(getattr(response, "cached", False))
            rt.attempts = getattr(response, "attempts", rt.attempts)
            self.completed += 1
            if rt.cached:
                self.cached += 1
            ok = True
        self.requests += 1
        for stage, dur in rt.stages().items():
            self._stage_samples[stage].append(dur)
        total = rt.total()
        self._latencies.append(total)
        self._resolves.append(rt.resolve_ts)
        self._oks.append(ok)
        self._statuses.append(rt.status)
        self._seq += 1
        entry = (total, self._seq, rt)
        if len(self._heap) < self.max_exemplars:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def summary(self) -> RequestSummary:
        """Freeze the aggregates (stages in canonical order, exemplars
        slowest-first with a deterministic tie-break)."""
        exemplars = tuple(
            rt for _, _, rt in sorted(self._heap, key=lambda e: (-e[0], e[1]))
        )
        return RequestSummary(
            requests=self.requests,
            completed=self.completed,
            failed=self.failed,
            rejected=self.rejected,
            cached=self.cached,
            stage_samples={s: tuple(v) for s, v in self._stage_samples.items()},
            latencies=tuple(self._latencies),
            resolves=tuple(self._resolves),
            oks=tuple(self._oks),
            statuses=tuple(self._statuses),
            sheds=tuple(self._sheds),
            exemplars=exemplars,
        )

