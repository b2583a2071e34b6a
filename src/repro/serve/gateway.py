"""The submission gateway: one front door over any executor backend.

``Gateway.submit()`` is the serving analogue of ``Executor.submit()``:
it admits (or sheds), consults the memoizing cache, micro-batches, and
dispatches to the wrapped executor, resolving each request's
:class:`~repro.serve.requests.Ticket` with a typed response.  The same
client code runs identically over every backend.

Every request walks one state machine — admit → cache → batch →
dispatch → resolve.  It has one dispatch step (``_dispatch_locked``),
one place where a dispatched batch is resolved (``_complete_locked``,
which also releases the followers coalesced on a batch's cache keys),
and one follower map.  It also has one close rule (Nagle's, RFC 896):
while fewer than ``executor.cores`` batches are in flight, the oldest
open batch closes and dispatches at once (``_fill_locked``); only while
every core is busy does a batch wait for ``max_size`` or ``max_delay``.
A slot can open only when a request joins or a batch resolves, so the
rule is checked after ``submit`` adds a request and at the end of
``_complete_locked``.  Only the *completion source* differs, and the
executor picks it (``gateway.mode``):

* **driven** (inline/sim, virtual time) — the gateway owns a
  :class:`~repro.util.stopwatch.ManualClock` and a service-time model
  (``executor.cores`` servers, earliest-free assignment).  Work still
  *executes* eagerly at dispatch (real values come back); only time is
  modeled: each batch's outcome goes onto a heap keyed by its virtual
  finish time and is delivered when the clock gets there, like the
  Occam ``Runner``'s ``ev_queue``.  Age-outs and completions are walked
  in time order, so a batch that finishes at ``f`` hands its core to
  the oldest open batch at ``f``.  A seeded arrival trace therefore
  yields byte-identical latency/shed/hit numbers on every run.
* **thread** (threads/processes, wall time) — a dispatcher thread ages
  out open batches on the real clock, each dispatch goes to the
  executor as one ``submit_many`` call, and completions arrive through
  the futures' done-callbacks, which also refill the freed slot on the
  thread that resolved the future; latency is measured wall time.

Overload can only shed, never block: ``submit`` returns a resolved
``Rejected`` ticket instead of queueing past the admission limits, and
``shutdown(drain=False)`` resolves every queued-but-undispatched
request with ``Rejected("shutdown")`` — the serving mirror of the
executor's ``ExecutorShutdown`` stranded-future guarantee.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.executor.base import Executor, ExecutorShutdown
from repro.executor.future import Future
from repro.executor.inline import InlineExecutor
from repro.executor.simulated import SimExecutor
from repro.obs.rtrace import RequestTrace, RequestTraceCollector
from repro.obs.trace import TraceRecorder, resolve_recorder
from repro.resilience.cancel import CancelToken
from repro.resilience.retry import RetryPolicy
from repro.serve.admission import AdmissionController, AdmissionPolicy
from repro.serve.batching import (
    Batch,
    BatchPolicy,
    MicroBatcher,
    run_batch,
    run_batch_timed,
)
from repro.serve.cache import LRUTTLCache, ModeledCache
from repro.serve.requests import (
    Completed,
    Failed,
    Rejected,
    Response,
    Ticket,
    Uncacheable,
    canonical_key,
)
from repro.util.stopwatch import ManualClock, WallClock

__all__ = ["Gateway", "GatewayStats"]

_AUTO = object()  # sentinel: derive the cache key from (task, args, kwargs)

#: no backoff sleeps inside the gateway — retries are immediate, so the
#: driven mode stays a pure function of the arrival trace
_DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)


@dataclass
class GatewayStats:
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    batches: int = 0
    shed: dict[str, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())


@dataclass
class _Request:
    ticket: Ticket
    fn: Callable[..., Any]
    args: tuple
    kwargs: dict
    task: str
    cost: float
    key: str | None
    arrival: float
    deadline: float | None
    cancel: CancelToken | None
    #: per-request stage clock; None when request tracing is off
    rt: RequestTrace | None = None


def _batch_name(survivors: list[_Request]) -> str:
    return f"serve:{survivors[0].task}[{len(survivors)}]"


class Gateway:
    """Serving front door over an :class:`~repro.executor.base.Executor`.

    The gateway *uses* the executor but does not own it: ``shutdown()``
    releases gateway resources only, and the caller remains responsible
    for ``executor.shutdown()``.  ``mode`` follows from the executor
    type: the eager virtual-time backends (inline, sim) are driven,
    every other backend is thread.  A cache belongs to one gateway:
    requests coalesced on an in-flight key wait in the gateway that
    admitted them.

    A batch waits for company only while ``executor.cores`` of this
    gateway's batches are in flight; below that the oldest open batch
    dispatches at once.  The count is per gateway: two gateways sharing
    one pool do not see each other's batches.
    """

    def __init__(
        self,
        executor: Executor,
        *,
        admission: AdmissionPolicy | None = None,
        batching: BatchPolicy | None = None,
        cache: LRUTTLCache | ModeledCache | None = None,
        retry: RetryPolicy | None = None,
        trace: TraceRecorder | None = None,
        rtrace: RequestTraceCollector | None = None,
    ) -> None:
        driven = isinstance(executor, (InlineExecutor, SimExecutor))
        self.executor = executor
        self.mode = "driven" if driven else "thread"
        self.clock = ManualClock() if driven else WallClock()
        self.cache = cache
        self.retry = retry or _DEFAULT_RETRY
        self.trace = resolve_recorder(trace)
        self.rtrace = rtrace
        # traced thread mode times each call where it runs: batches go
        # through run_batch_timed
        self._timed = rtrace is not None and not driven
        self.stats = GatewayStats()
        self._admission = AdmissionController(admission, now=self.clock.now())
        self._batcher = MicroBatcher(batching)
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._next_id = 0
        self._depth = 0  # admitted-but-unresolved requests
        self._shut = False
        # key -> coalesced followers waiting on an in-flight leader
        self._waiters: dict[str, list[_Request]] = {}
        # unresolved admitted requests (drain waits on these)
        self._live: dict[int, _Request] = {}
        # batches dispatched and not yet resolved (a retry keeps its
        # slot); an open batch waits only while this is at _cores
        self._cores = max(1, executor.cores)
        self._inflight = 0
        # driven source: per-core earliest-free times, and one
        # (finish, seq, survivors, outcome, attempts) entry per batch
        self._core_free = [self.clock.now()] * self._cores
        self._completions: list[tuple[float, int, list[_Request], Any, int]] = []
        self._seq = 0
        self._dispatcher: threading.Thread | None = None
        if not driven:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="serve-dispatcher", daemon=True
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------ API

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        task: str | None = None,
        cost: float = 0.0,
        key: Any = _AUTO,
        deadline: float | None = None,
        cancel: CancelToken | None = None,
        **kwargs: Any,
    ) -> Ticket:
        """Submit one request; never blocks, never raises for overload.

        ``task`` names the request kind (batching groups by it; defaults
        to the function name).  ``cost`` is the declared service cost in
        reference-seconds — it drives the latency model in driven mode
        and is ignored on real backends.  ``key`` controls memoization:
        the default derives a canonical key from the arguments, ``None``
        bypasses the cache, a string is used verbatim.  ``deadline`` is
        seconds from arrival the request must be *dispatched* within
        (the same start-by contract as ``Executor.submit``).
        """
        kind = task or getattr(fn, "__name__", "request")
        with self._lock:
            now = self.clock.now()
            if self.mode == "driven":
                self._advance_locked(now)
            self._next_id += 1
            ticket = Ticket(self._next_id, kind)
            self.stats.submitted += 1
            self.trace.count("serve.submitted")
            if self._shut:
                return self._shed(ticket, "shutdown", "gateway is shut down", now)
            reason = self._admission.decide(now, self._depth)
            if reason is not None:
                detail = (
                    f"queue depth {self._depth} at limit"
                    if reason == "queue"
                    else "rate limit exceeded"
                )
                return self._shed(ticket, reason, detail, now)
            self.stats.admitted += 1
            self.trace.count("serve.admitted")
            rt = None
            if self.rtrace is not None:
                # admitted requests get a stage clock; admission itself
                # is instantaneous from the request's point of view
                rt = self.rtrace.begin(self._next_id, kind, now)
                rt.mark("admit", now)
            if key is _AUTO:
                if self.cache is None:
                    key = None
                else:
                    try:
                        key = canonical_key(kind, args, kwargs)
                    except Uncacheable:
                        key = None
            ticket.key = key
            req = _Request(
                ticket, fn, args, dict(kwargs), kind, cost, key, now, deadline, cancel,
                rt=rt,
            )
            if key is not None and self.cache is not None:
                if self._try_cache_locked(req, now):
                    return ticket
            elif rt is not None:
                # no cacheable key: the lookup segment is zero-width
                rt.mark("cache", now)
            self._depth += 1
            self._live[ticket.request_id] = req
            self.trace.set_gauge("serve.queue_depth", self._depth)
            batch = self._batcher.add(req, now)
            if batch is not None:
                self._dispatch_locked([batch], now)
            self._fill_locked(now)
            if self.mode == "thread" and self._batcher.pending():
                # a batch stays open: the dispatcher re-reads its deadline
                self._wake.notify_all()
        return ticket

    def result(self, ticket: Ticket, timeout: float | None = None) -> Response:
        """Resolve ``ticket`` to its :class:`Response`.

        In driven mode an unresolved ticket means its batch has not been
        dispatched or its virtual completion time not reached — the
        gateway drains to resolve it.  In thread mode this blocks (up to
        ``timeout``) like ``Future.result``.
        """
        if not ticket.done() and self.mode == "driven":
            self.drain()
        return ticket.response(timeout)

    def pump(self, now: float | None = None) -> None:
        """Driven mode: advance to ``now`` (default: current clock),
        dispatching due batches and delivering due completions."""
        with self._lock:
            if now is not None and self.mode == "driven" and now > self.clock.now():
                self.clock.advance_to(now)
            self._advance_locked(self.clock.now())

    def drain(self) -> float:
        """Flush open batches and deliver everything in flight.

        Driven mode advances the virtual clock to the last completion
        and returns it; thread mode blocks until live requests resolve
        and returns the wall clock.  The gateway stays open.
        """
        with self._wake:
            now = self.clock.now()
            if self.mode == "driven":
                self._advance_locked(now)
            flushed = sorted(self._batcher.flush(), key=lambda b: b.opened_at)
            self._dispatch_locked(flushed, now)
            if self.mode == "driven":
                end = max((entry[0] for entry in self._completions), default=now)
                if end > now:
                    self.clock.advance_to(end)
                self._advance_locked(end)
                return end
            self._wake.notify_all()
        while True:
            with self._lock:
                live = list(self._live.values())
            if not live:
                return self.clock.now()
            for req in live:
                req.ticket.response(timeout=30.0)

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting requests; idempotent.

        ``drain=True`` flushes and delivers queued work first.
        ``drain=False`` resolves every queued-but-undispatched request
        with ``Rejected("shutdown")`` and its coalesced followers with
        ``Failed(ExecutorShutdown)``, so no client waits forever —
        batches already handed to the executor still complete.
        """
        with self._lock:
            if self._shut:
                return
            self._shut = True
            if not drain:
                now = self.clock.now()
                detail = "gateway shut down before dispatch"
                for batch in self._batcher.flush():
                    for req in batch.requests:
                        self._release_locked(req, False, ExecutorShutdown(detail), now)
                        if req.rt is not None:
                            req.rt.mark("resolve", now)
                        self._resolve_locked(req, Rejected("shutdown", detail))
                # driven mode: completed-but-undelivered work is real
                # results — deliver the whole heap rather than discarding
                self._advance_locked(float("inf"))
            self._wake.notify_all()
        if drain:
            self.drain()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
            self._dispatcher = None

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth

    # ------------------------------------------------------- state machine

    def _shed(self, ticket: Ticket, reason: str, detail: str, now: float) -> Ticket:
        self.stats.shed[reason] = self.stats.shed.get(reason, 0) + 1
        self.trace.count("serve.shed")
        if self.rtrace is not None:
            self.rtrace.shed(now)
        ticket._resolve(Rejected(reason, detail))
        return ticket

    def _rt_finish(self, req: _Request, response: Response) -> None:
        """Fold a resolved request's stage trace into the collector."""
        if req.rt is not None:
            assert self.rtrace is not None
            self.rtrace.finish(req.rt, response)
            req.rt = None

    def _resolve_locked(self, req: _Request, response: Response) -> None:
        if not req.ticket._resolve(response):
            return
        self._rt_finish(req, response)
        self._depth -= 1
        self._live.pop(req.ticket.request_id, None)
        self.trace.set_gauge("serve.queue_depth", self._depth)
        if isinstance(response, Completed):
            self.stats.completed += 1
            self.trace.observe("serve.latency_seconds", response.latency)
        elif isinstance(response, Failed):
            self.stats.failed += 1
            self.trace.count("serve.failures")
        elif isinstance(response, Rejected):
            self.stats.shed[response.reason] = (
                self.stats.shed.get(response.reason, 0) + 1
            )
            self.trace.count("serve.shed")

    def _release_locked(self, req: _Request, ok: bool, value: Any, at: float) -> None:
        """Settle ``req``'s cache key — store ``value`` if ``ok``, else
        drop the in-flight entry so the next request leads — and resolve
        the followers coalesced on it with the same outcome."""
        if req.key is None or self.cache is None:
            return
        if ok:
            self.cache.complete(req.key, value, at)
        else:
            self.cache.fail(req.key, value)
        for waiter in self._waiters.pop(req.key, ()):
            if waiter.rt is not None:
                # the whole coalesced wait was spent on the cache leader
                waiter.rt.mark("cache", at)
                waiter.rt.mark("resolve", at)
            latency = at - waiter.arrival
            self._resolve_locked(
                waiter,
                Completed(value, latency=latency, cached=True)
                if ok
                else Failed(value, latency=latency),
            )

    def _try_cache_locked(self, req: _Request, now: float) -> bool:
        """Consult the cache; True if the request is fully handled here
        (hit, coalesced wait, or modeled warm execute-at-zero-cost)."""
        assert self.cache is not None and req.key is not None
        decision = self.cache.begin(req.key, now)
        if decision.status == "hit":
            self.trace.count("serve.cache_hits")
            self.stats.completed += 1
            self.trace.observe("serve.latency_seconds", 0.0)
            if req.rt is not None:
                req.rt.mark("cache", now)
                req.rt.mark("resolve", now)
            response = Completed(decision.value, latency=0.0, cached=True)
            req.ticket._resolve(response)
            self._rt_finish(req, response)
            return True
        if decision.status == "wait":
            # the leader's completion releases it (_release_locked)
            self.trace.count("serve.cache_coalesced")
            self._depth += 1
            self._live[req.ticket.request_id] = req
            self._waiters.setdefault(req.key, []).append(req)
            return True
        # status == "lead"
        if not decision.charge:
            # Modeled warm key (sim): served as a hit.  The body still
            # runs once so the client gets a real value, but at zero
            # service cost and without occupying the queue.
            self.trace.count("serve.cache_hits")
            if req.rt is not None:
                req.rt.mark("cache", now)
                req.rt.mark("resolve", now)
            try:
                value = req.fn(*req.args, **req.kwargs)
            except Exception as exc:  # noqa: BLE001 — failures become responses
                self.cache.fail(req.key, exc)
                self.stats.failed += 1
                self.trace.count("serve.failures")
                response: Response = Failed(exc, latency=now - req.arrival)
            else:
                self.cache.complete(req.key, value, now)
                self.stats.completed += 1
                self.trace.observe("serve.latency_seconds", 0.0)
                response = Completed(value, latency=0.0, cached=True)
            req.ticket._resolve(response)
            self._rt_finish(req, response)
            return True
        self.trace.count("serve.cache_misses")
        if req.rt is not None:
            # miss: the lookup itself is instantaneous on the stage clock
            req.rt.mark("cache", now)
        return False

    def _dispatch_locked(self, batches: list[Batch], now: float) -> None:
        """The one dispatch step, at ``now`` on the gateway clock.

        Cancelled requests and requests past their start-by deadline are
        rejected (a rejected cache leader fails its followers).  Each
        batch's survivors are counted, stamped ``batch`` and handed to
        the mode's sender.
        """
        ready: list[list[_Request]] = []
        for batch in batches:
            survivors: list[_Request] = []
            for req in batch.requests:
                if req.cancel is not None and req.cancel.cancelled:
                    response = Rejected(
                        "cancelled", f"token {req.cancel.name!r} cancelled"
                    )
                    error = RuntimeError("coalesced leader cancelled before dispatch")
                elif req.deadline is not None and now - req.arrival > req.deadline:
                    response = Rejected(
                        "deadline", f"not dispatched within {req.deadline}s of arrival"
                    )
                    error = RuntimeError("coalesced leader missed its deadline")
                else:
                    survivors.append(req)
                    continue
                self._release_locked(req, False, error, now)
                if req.rt is not None:
                    req.rt.mark("batch", now)
                    req.rt.mark("resolve", now)
                self._resolve_locked(req, response)
            if not survivors:
                continue
            self._inflight += 1
            self.stats.batches += 1
            self.trace.count("serve.batches")
            self.trace.observe("serve.batch_occupancy", len(survivors))
            for req in survivors:
                if req.rt is not None:
                    req.rt.mark("batch", now)
            if self.mode == "driven":
                self._send_driven(survivors, now)
            else:
                ready.append(survivors)
        if ready:
            self._send_thread(ready, 1)

    def _fill_locked(self, now: float) -> None:
        """While a core is free, close the oldest open batch and dispatch
        it at ``now``.  One batch at a time: a batch whose requests were
        all cancelled or past their deadline takes no slot."""
        while self._inflight < self._cores:
            batch = self._batcher.close_oldest()
            if batch is None:
                return
            self._dispatch_locked([batch], now)

    def _complete_locked(
        self, survivors: list[_Request], outcome: Any, at: float, attempts: int
    ) -> None:
        """The one place a dispatched batch is resolved, at ``at``.

        ``outcome`` is ``run_batch``'s ``(status, value)`` pair per
        request, or the exception that failed the whole batch.  Each
        request settles its cache key (releasing its coalesced
        followers) before its own ticket resolves.  The batch's slot is
        then free, and the oldest open batch takes it at ``at``.
        """
        if isinstance(outcome, BaseException):
            outcome = [("err", outcome)] * len(survivors)
        size = len(survivors)
        for req, (status, value) in zip(survivors, outcome):
            ok = status == "ok"
            self._release_locked(req, ok, value, at)
            if req.rt is not None:
                req.rt.mark("resolve", at)
            latency = at - req.arrival
            self._resolve_locked(
                req,
                Completed(value, latency=latency, batch_size=size, attempts=attempts)
                if ok
                else Failed(value, latency=latency, attempts=attempts),
            )
        self._inflight -= 1
        self._fill_locked(at)

    def _emit_retry(self, name: str, attempt: int, exc: BaseException) -> None:
        self.stats.retries += 1
        self.trace.count("serve.retries")
        if self.trace.enabled:
            self.trace.event(
                "retry", name, attempt=attempt, delay=0.0, exception=type(exc).__name__
            )

    # ------------------------------------------------- driven source (heap)

    def _advance_locked(self, now: float) -> None:
        """Walk the events due by ``now`` in time order.

        The next event is the earliest completion on the heap (its
        ``_complete_locked`` refills the freed core at the finish time)
        or the oldest open batch aging out, whichever comes first; a
        completion wins a tie.  An aged-out batch dispatches at its
        deadline, not at ``now``, so the latency model does not depend
        on how often the clock is pumped, and it is closed as the oldest
        batch rather than re-tested against its age: at the deadline,
        ``now - opened_at`` can round below ``max_delay``.
        """
        while True:
            deadline = self._batcher.next_deadline()
            finish = self._completions[0][0] if self._completions else None
            if finish is not None and finish <= now and (
                deadline is None or finish <= deadline
            ):
                _, _, survivors, outcome, attempts = heapq.heappop(self._completions)
                self._complete_locked(survivors, outcome, finish, attempts)
            elif deadline is not None and deadline <= now:
                self._dispatch_locked([self._batcher.close_oldest()], deadline)
            else:
                return

    def _send_driven(self, survivors: list[_Request], t: float) -> None:
        """Run the batch now on the eager executor, with immediate
        retries, book it on the earliest-free core and push its outcome
        onto the completion heap at the virtual finish time."""
        name = _batch_name(survivors)
        cost = sum(r.cost for r in survivors)
        calls = [(r.fn, r.args, r.kwargs) for r in survivors]
        attempts = 1
        while True:
            try:
                future = self.executor.submit(run_batch, calls, cost=cost, name=name)
            except ExecutorShutdown as exc:
                outcome: Any = exc
                break
            outcome = future.exception()
            if outcome is None:
                outcome = future.result()
                break
            if not self.retry.should_retry(outcome, attempts):
                break
            self._emit_retry(name, attempts, outcome)
            attempts += 1
        start = max(t, heapq.heappop(self._core_free))
        finish = start + cost
        heapq.heappush(self._core_free, finish)
        if self.rtrace is not None:
            # the whole virtual timeline of this batch is known here;
            # the resolve mark lands when the heap delivers it
            for req in survivors:
                if req.rt is not None:
                    req.rt.mark("queue", start)
                    req.rt.mark("execute", finish)
                    if attempts > 1:
                        req.rt.mark("retry", finish)
        self._seq += 1
        heapq.heappush(
            self._completions, (finish, self._seq, survivors, outcome, attempts)
        )

    # ---------------------------------------- thread source (done-callbacks)

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                if self._shut:
                    return
                deadline = self._batcher.next_deadline()
                now = self.clock.now()
                if deadline is None:
                    self._wake.wait()
                elif deadline > now:
                    self._wake.wait(timeout=deadline - now)
                if self._shut:
                    return
                now = self.clock.now()
                self._dispatch_locked(self._batcher.due(now), now)

    def _send_thread(self, batches: list[list[_Request]], attempt: int) -> None:
        """Hand every batch of one dispatch to the executor in a single
        ``submit_many``; each resolves from its future's done-callback."""
        fn = run_batch_timed if self._timed else run_batch
        arg_tuples = [([(r.fn, r.args, r.kwargs) for r in reqs],) for reqs in batches]
        try:
            futures = self.executor.submit_many(fn, arg_tuples, name="serve")
        except ExecutorShutdown as exc:
            for reqs in batches:
                self._fail_batch_locked(reqs, exc, attempt)
            return
        for future, reqs in zip(futures, batches):
            future.add_done_callback(
                lambda fut, reqs=reqs: self._on_batch_done(fut, reqs, attempt)
            )

    def _fail_batch_locked(
        self, survivors: list[_Request], error: BaseException, attempt: int
    ) -> None:
        """The batch failed for good after ``attempt`` attempts: the wait
        since dispatch is queue (or retry) time."""
        now = self.clock.now()
        for req in survivors:
            if req.rt is not None:
                req.rt.mark("retry" if attempt > 1 else "queue", now)
        self._complete_locked(survivors, error, now, attempt)

    def _on_batch_done(
        self, future: Future, survivors: list[_Request], attempt: int
    ) -> None:
        """A batch's future resolved, on whichever thread resolved it: a
        failure is retried or fails the batch.  A traced batch's body
        stamped each call on the host-wide monotonic clock: each request
        marks ``queue`` (or ``retry``) at its call's start and
        ``execute`` at its end, then ``_complete_locked`` marks
        ``resolve`` now."""
        exc = future.exception()
        if exc is not None:
            with self._lock:
                if not isinstance(exc, ExecutorShutdown) and self.retry.should_retry(
                    exc, attempt
                ):
                    self._emit_retry(_batch_name(survivors), attempt, exc)
                    self._send_thread([survivors], attempt + 1)
                else:
                    self._fail_batch_locked(survivors, exc, attempt)
            return
        results = future.result()
        now = self.clock.now()
        with self._lock:
            if self._timed:
                results, info = results
                waited = "retry" if attempt > 1 else "queue"
                for req, (start, end) in zip(survivors, info["spans"]):
                    if req.rt is not None:
                        req.rt.mark(waited, start)
                        req.rt.mark("execute", end)
                        req.rt.pid = info["pid"]
            self._complete_locked(survivors, results, now, attempt)
