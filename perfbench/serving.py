"""The two serve workloads: an open-loop client driving ``serve.Gateway``.

Arrivals come from ``serve.build_trace`` (steady Poisson, loadgen's kind
mix and key skew) and are sent on an absolute schedule, ``t0 + a.t``:
a late send does not push back the ones after it, so a stall shows up
as latency of every request it delays.  Each request is timed from its
due time to its resolution; a cache hit resolves inside ``submit``, so
its resolution is the return of ``submit``.  Resolution has no public
hook, so both the untraced and the traced run stamp it by wrapping
``Ticket._resolve`` — the one non-public name the benchmark touches; it
adds one clock read per request and changes nothing else.

The traced run gives the gateway a delegating executor that stamps each
batch's dispatch and completion, sends the timed body
(:func:`perfbench.bodies.timed_body`), and wraps the front-door calls
made inside ``submit`` (admission, ``canonical_key``, the cache lookup,
the batcher).  The batcher wrapper maps each request's argument tuple
to the request, so every request is matched to its own batch even
though a key is dispatched many times per run.  A non-cached request's
latency then splits into seven segments on one integer clock::

    late    due              -> submit called      (the client)
    submit  submit called    -> min(return, dispatch)
    batch   that             -> executor dispatch  (age-out wait)
    queue   dispatch         -> body start         (deque / feeder+pipe)
    run     body start       -> body end
    return  body end         -> future done        (result pipe, collector)
    resolve future done      -> ticket resolved    (gateway callback)

which add up exactly to ``resolved - due``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any

from repro.executor import create
from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    Completed,
    Gateway,
    LoadSpec,
    LRUTTLCache,
    MicroBatcher,
    Ticket,
    build_trace,
)
from repro.serve import gateway as gateway_module
from repro.serve.admission import AdmissionController
from repro.serve.loadgen import KINDS

from perfbench.bodies import serve_body, timed_body
from perfbench.harness import (
    NS,
    Outcome,
    Spans,
    children_peak_rss_mb,
    median,
    now_ns,
    percentile,
    traced_executor,
    warm_workers,
)

#: thrown-away lead-in: fills the LRU before anything is timed
WARMUP_S = 3.0
BATCHING = BatchPolicy(8, 0.004)
CACHE_CAPACITY = 4096
CORES = 2
#: latency percentiles are taken per window of the timed phase, then
#: the median over windows is reported: a host hiccup spoils one window
#: rather than the run's tail
WINDOW_NS = NS
SEGMENTS = ("late", "submit", "batch", "queue", "run", "return", "resolve")
#: span recorded for each segment (submit has its own, whole-call span)
SPAN_NAMES = ("loadgen.late", None, "batching.wait", "executor.queue", "executor.run", "executor.return", "gateway.resolve")


@dataclass
class Session:
    """A ready gateway over a started pool (what set-up produces)."""

    executor: Any
    gateway: Gateway
    trace: "Recorder | None" = None

    def close(self) -> None:
        self.gateway.shutdown()
        self.executor.shutdown()


@dataclass
class Recorder:
    """Traced-run stamps, filled by the wrappers while the client runs."""

    client: int = 0
    #: index of the request whose ``submit`` is running on the client
    current: list = field(default_factory=lambda: [None])
    rid_of_args: dict = field(default_factory=dict)
    dispatch: dict = field(default_factory=dict)
    start: dict = field(default_factory=dict)
    end: dict = field(default_factory=dict)
    done: dict = field(default_factory=dict)
    batches: list = field(default_factory=list)
    spans: Spans = field(default_factory=Spans)

    def on_dispatch(self, t: int, fn: Any, arg_tuples: list, futures: list) -> None:
        cur = self.current[0]
        if cur is not None and threading.get_ident() == self.client:
            self.spans.add("executor.dispatch", t, now_ns(), "gateway.submit", cur)
        else:
            self.spans.add("executor.dispatch", t, now_ns())
        for (calls, *_), future in zip(arg_tuples, futures):
            rids = [self.rid_of_args.pop(id(args), None) for _fn, args, _kw in calls]
            self.batches.append((t, len(rids)))
            for rid in rids:
                if rid is not None:
                    self.dispatch[rid] = t
            future.add_done_callback(lambda f, rids=rids: self.on_done(f, rids))

    def on_done(self, future: Any, rids: list) -> None:
        t = now_ns()
        if future.exception() is not None:
            return
        for rid, (status, payload) in zip(rids, future.result()):
            if rid is not None and status == "ok":
                self.done[rid] = t
                self.start[rid], self.end[rid] = payload[1], payload[2]


def setup(params: dict[str, Any], traced: bool = False) -> Session:
    """Start the pool, wait for every worker, build the gateway."""
    executor = create(params["backend"], cores=CORES)
    warm_workers(executor)
    rec = Recorder() if traced else None
    front = traced_executor(executor, rec.on_dispatch) if rec is not None else executor
    gateway = Gateway(
        front,
        admission=AdmissionPolicy(),
        batching=BATCHING,
        cache=LRUTTLCache(CACHE_CAPACITY),
    )
    return Session(executor, gateway, rec)


def _wrap_front_door(stack: ExitStack, rec: Recorder) -> None:
    """Record the calls ``Gateway.submit`` makes on the client thread."""
    spans = rec.spans

    def ctx() -> tuple[str, int] | None:
        rid = rec.current[0]
        if rid is None or threading.get_ident() != rec.client:
            return None  # the dispatcher or a callback thread
        return "gateway.submit", rid

    def patch(owner: Any, attr: str, name: str, inner: Any = None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, spans.wrap(inner or original, name, ctx))
        stack.callback(setattr, owner, attr, original)

    def add(batcher: MicroBatcher, request: Any, now: float) -> Any:
        # the gateway passes each request's own argument tuple through to
        # the batch's calls, so its identity names the request at dispatch
        rec.rid_of_args[id(request.args)] = rec.current[0]
        return original_add(batcher, request, now)

    original_add = MicroBatcher.add
    patch(AdmissionController, "decide", "admission.decide")
    patch(gateway_module, "canonical_key", "requests.canonical_key")
    patch(LRUTTLCache, "begin", "cache.begin")
    patch(MicroBatcher, "add", "batching.add", add)


@dataclass
class Run:
    """One open-loop pass, as plain numbers: nothing per request stays
    alive that the garbage collector would have to scan, so the client
    does not slow the program it measures."""

    kinds: list[str]
    keys: list[int]
    due: list[int]
    call: list[int]
    ret: list[int]
    #: gateway request id, the key of ``resolved``
    rid: list[int]
    #: the response value (None when the request did not complete)
    value: list[Any]
    #: one of HIT (resolved inside submit from the cache), CACHED
    #: (coalesced on an in-flight leader), RAN, FAILED (shed or Failed)
    status: list[int]
    resolved: dict[int, int]
    timed_from: int
    #: length of the timed phase the trace was built for
    seconds: float
    stats: dict[str, Any]
    worker_rss: float


HIT, CACHED, RAN, FAILED = 1, 2, 3, 4


def drive(session: Session, seed: int, seconds: float, rate: float, keyspace: int) -> Run:
    """Send the seeded trace open-loop and collect every response."""
    arrivals = build_trace(
        LoadSpec(
            "steady",
            requests=max(1, int(rate * (WARMUP_S + seconds))),
            seed=seed,
            base_rate=rate,
            keyspace=keyspace,
        )
    )
    n = len(arrivals)
    offsets = [round(a.t * NS) for a in arrivals]
    run = Run(
        kinds=[a.kind for a in arrivals],
        keys=[a.key for a in arrivals],
        due=[0] * n,
        call=[0] * n,
        ret=[0] * n,
        rid=[0] * n,
        value=[None] * n,
        status=[0] * n,
        resolved={},
        timed_from=next((i for i, a in enumerate(arrivals) if a.t >= WARMUP_S), n),
        seconds=seconds,
        stats={},
        worker_rss=0.0,
    )
    del arrivals
    gateway = session.gateway
    rec = session.trace
    resolved = run.resolved
    original_resolve = Ticket._resolve

    def stamped_resolve(ticket: Ticket, response: Any) -> bool:
        first = original_resolve(ticket, response)
        if first:
            resolved[ticket.request_id] = now_ns()
        return first

    traced = rec is not None

    def collect(i: int, ticket: Ticket, hit: bool) -> None:
        resp = ticket.response(timeout=120.0)
        if isinstance(resp, Completed):
            run.value[i] = resp.value[0] if traced else resp.value
            run.status[i] = (HIT if hit else CACHED) if resp.cached else RAN
        else:
            run.status[i] = FAILED

    body = timed_body if traced else serve_body
    pending: deque[tuple[int, Ticket]] = deque()
    with ExitStack() as stack:
        Ticket._resolve = stamped_resolve
        stack.callback(setattr, Ticket, "_resolve", original_resolve)
        if traced:
            rec.client = threading.get_ident()
            _wrap_front_door(stack, rec)
        submit = gateway.submit
        current = rec.current if traced else [None]
        kinds, keys, due, call, ret, rid = run.kinds, run.keys, run.due, run.call, run.ret, run.rid
        sleep = time.sleep
        t0 = now_ns() + NS // 20
        for i in range(n):
            if i == run.timed_from:
                run.stats["cache"] = gateway.cache.stats.snapshot()
                run.stats["pool"] = _steals(session.executor)
            d = due[i] = t0 + offsets[i]
            while pending and pending[0][1].done():
                collect(*pending.popleft(), False)
            gap = d - now_ns()
            if gap > 0:
                sleep(gap / NS)
            current[0] = i
            c = now_ns()
            ticket = submit(body, kinds[i], keys[i], task=kinds[i])
            r = now_ns()
            current[0] = None
            call[i], ret[i], rid[i] = c, r, ticket.request_id
            if ticket.done():
                collect(i, ticket, True)
            else:
                pending.append((i, ticket))
        for i, ticket in pending:
            collect(i, ticket, False)
        run.stats["cache_end"] = gateway.cache.stats.snapshot()
        run.stats["pool_end"] = _steals(session.executor)
        run.worker_rss = children_peak_rss_mb()
    return run


def _steals(executor: Any) -> tuple[int, int]:
    stats = getattr(executor, "stats", None)
    return (stats.steals, stats.steal_attempts) if stats is not None else (0, 0)


def check(run: Run, out: Outcome) -> list[int | None]:
    """Count failed and wrong requests; return each request's latency in
    ns (None when it failed or returned a wrong value)."""
    latencies: list[int | None] = []
    expected: dict[tuple[str, int], int] = {}
    wrong = failed = 0
    for i, status in enumerate(run.status):
        if status == FAILED:
            failed += 1
            latencies.append(None)
            continue
        kind, key = run.kinds[i], run.keys[i]
        want = expected.get((kind, key))
        if want is None:
            want = expected[(kind, key)] = KINDS[kind][0](key)
        if run.value[i] != want:
            wrong += 1
            latencies.append(None)
            continue
        end = run.ret[i] if status == HIT else run.resolved[run.rid[i]]
        latencies.append(end - run.due[i])
    out.attempted += len(run.status)
    out.failed_unlabelled += failed + wrong
    if failed or wrong:
        out.notes.append(f"requests failed or shed: {failed}, wrong values: {wrong}")
    return latencies


def windowed(run: Run, latencies: list[int | None], q: float) -> tuple[float, int]:
    """Median over the timed phase's WINDOW_NS windows of each window's
    nearest-rank ``q`` percentile, in ms; and the smallest window size.
    Arrivals past the last whole window join it."""
    windows: dict[int, list[int]] = {}
    start = run.due[run.timed_from]
    last = max(1, round(run.seconds * NS / WINDOW_NS)) - 1
    for i in range(run.timed_from, len(latencies)):
        if latencies[i] is not None:
            windows.setdefault(min(last, (run.due[i] - start) // WINDOW_NS), []).append(latencies[i])
    return median([percentile(w, q) / 1e6 for w in windows.values()]), min(map(len, windows.values()), default=0)


def end_to_end(run: Run, latencies: list[int | None], out: Outcome) -> None:
    """The untraced run's metrics over the timed phase."""
    lo = run.timed_from
    timed = [x / 1e6 for x in latencies[lo:] if x is not None]
    ends = [run.due[i] + x for i, x in enumerate(latencies) if x is not None and i >= lo]
    span_s = (max(ends) - run.due[lo]) / NS if ends else 0.0
    p50, smallest = windowed(run, latencies, 0.50)
    p95, _ = windowed(run, latencies, 0.95)
    out.metric("latency_p50_ms", p50, "ms")
    out.metric("latency_p95_ms", p95, "ms")
    out.metric("throughput_ops", len(timed) / span_s if span_s > 0 else 0.0, "ops/s")
    out.notes.append(
        f"timed requests: {len(timed)}; latency_p50_ms/latency_p95_ms are medians over "
        f"{WINDOW_NS / NS:g} s windows of at least {smallest} requests each"
    )
    out.notes.append(
        f"pooled over the timed phase: p50 {percentile(timed, 0.5):.3f} ms, p99 {percentile(timed, 0.99):.3f} ms, "
        f"p999 {percentile(timed, 0.999):.3f} ms; throughput_rps {len(timed) / span_s if span_s else 0.0:.1f} req/s "
        f"over {span_s:.3f} s"
    )


def segments(run: Run, latencies: list[int | None], rec: Recorder, i: int) -> tuple[tuple[int, ...], list[int]] | None:
    """Request ``i``'s stamps and its seven segments, or None when it is
    not a completed, non-cached request that rode a batch."""
    lat = latencies[i]
    if lat is None or run.status[i] != RAN or i not in rec.done:
        return None
    resolved = run.due[i] + lat
    dispatched = rec.dispatch[i]
    # The gateway's callback can resolve on the client thread before the
    # worker that completed the future runs ours; it was done by then.
    done = min(rec.done[i], resolved)
    stamps = (run.due[i], run.call[i], min(run.ret[i], dispatched), dispatched, rec.start[i], rec.end[i], done, resolved)
    return stamps, [b - a for a, b in zip(stamps, stamps[1:])]


def per_layer(run: Run, latencies: list[int | None], rec: Recorder, out: Outcome) -> dict[str, float]:
    """Segment and front-door metrics of the traced run."""
    lo = run.timed_from
    segs: dict[str, list[int]] = {s: [] for s in SEGMENTS}
    spans = rec.spans
    checked = 0
    for i in range(len(run.status)):
        spans.add("gateway.submit", run.call[i], run.ret[i], "request", i)
        split = segments(run, latencies, rec, i)
        if split is None:
            continue
        stamps, parts = split
        if sum(parts) != latencies[i] or min(parts) < 0:
            out.broken.append(f"request {i}: segments {parts} do not tile latency {latencies[i]}")
            continue
        checked += 1
        spans.add("request", stamps[0], stamps[-1], None, i)
        for name, a, b in zip(SPAN_NAMES, stamps, stamps[1:]):
            if name is not None:
                spans.add(name, a, b, "request", i)
        if i >= lo:
            for s, p in zip(SEGMENTS, parts):
                segs[s].append(p)
    out.notes.append(
        f"segment check: late+submit+batch+queue+run+return+resolve == latency for all {checked} "
        f"non-cached completed requests ({len(out.broken)} violations)"
    )
    late = [run.call[i] - run.due[i] for i in range(lo, len(run.call))]
    submit_us = [(run.ret[i] - run.call[i]) / 1e3 for i in range(lo, len(run.call))]
    ms = lambda xs, q: percentile(xs, q) / 1e6  # noqa: E731
    c0, c1 = run.stats["cache"], run.stats["cache_end"]
    lookups = sum(c1[k] - c0[k] for k in ("hits", "misses", "coalesced"))
    steals = run.stats["pool_end"][0] - run.stats["pool"][0]
    attempts = run.stats["pool_end"][1] - run.stats["pool"][1]
    batches = [size for t, size in rec.batches if t >= run.due[lo]]
    selfs = spans.self_times()
    us = lambda name: median(selfs.get(name, [])) / 1e3  # noqa: E731
    return {
        "loadgen.late_ms_p99": ms(late, 0.99),
        "gateway.submit_us_p50": percentile(submit_us, 0.50),
        "gateway.submit_us_p99": percentile(submit_us, 0.99),
        "gateway.self_us_p50": us("gateway.submit"),
        "admission.decide_us_p50": us("admission.decide"),
        "requests.canonical_key_us_p50": us("requests.canonical_key"),
        "cache.begin_us_p50": us("cache.begin"),
        "batching.add_us_p50": us("batching.add"),
        "executor.dispatch_us_p50": us("executor.dispatch"),
        "cache.hit_rate": (c1["hits"] + c1["coalesced"] - c0["hits"] - c0["coalesced"]) / lookups if lookups else 0.0,
        "cache.evictions": float(c1["evictions"] - c0["evictions"]),
        "batching.wait_ms_p50": ms(segs["batch"], 0.50),
        "batching.wait_ms_p99": ms(segs["batch"], 0.99),
        "batching.occupancy": (sum(batches) / len(batches) / BATCHING.max_size) if batches else 0.0,
        "executor.queue_ms_p50": ms(segs["queue"], 0.50),
        "executor.queue_ms_p99": ms(segs["queue"], 0.99),
        "executor.run_us_p50": percentile(segs["run"], 0.50) / 1e3,
        "executor.return_ms_p50": ms(segs["return"], 0.50),
        "executor.return_ms_p99": ms(segs["return"], 0.99),
        "gateway.resolve_ms_p99": ms(segs["resolve"], 0.99),
        "executor.steal_ratio": steals / attempts if attempts else 0.0,
        "executor.worker_peak_rss_mb": run.worker_rss,
    }


def close(session: Session) -> None:
    session.close()


def run(session: Session, params: dict[str, Any], seed: int, seconds: float, out: Outcome) -> None:
    """Untraced run: the end-to-end metrics."""
    result = drive(session, seed, seconds, params["rate"], params["keyspace"])
    end_to_end(result, check(result, out), out)


def run_traced(params: dict[str, Any], seed: int, seconds: float, out: Outcome, spans_path: str) -> dict[str, float]:
    """Traced run: an untraced phase (for the tracing overhead, the p99
    and the p999), then the same seed traced; returns the per-layer
    metrics."""
    plain = setup(params)
    try:
        base = drive(plain, seed, seconds, params["rate"], params["keyspace"])
    finally:
        plain.close()
    base_lat = check(base, out)
    session = setup(params, traced=True)
    try:
        result = drive(session, seed, seconds, params["rate"], params["keyspace"])
    finally:
        session.close()
    latencies = check(result, out)
    metrics = per_layer(result, latencies, session.trace, out)
    p50, _ = windowed(base, base_lat, 0.50)
    t50, _ = windowed(result, latencies, 0.50)
    base_timed = [x / 1e6 for x in base_lat[base.timed_from:] if x is not None]
    metrics["latency_p99_ms"], _ = windowed(base, base_lat, 0.99)
    metrics["latency_p999_ms"] = percentile(base_timed, 0.999)
    metrics["latency_p999_samples"] = float(len(base_timed))
    metrics["trace.overhead_pct"] = (t50 / p50 - 1) * 100 if p50 else 0.0
    out.notes.append(f"tracing overhead: latency_p50_ms {p50:.4f} untraced -> {t50:.4f} traced")
    session.trace.spans.write(spans_path)
    return metrics
