"""Seeded arrival-trace load generator for the serving gateway.

The generator turns ``(pattern, seed, n)`` into a concrete arrival
trace — request times, kinds, and cache keys — and replays it through a
:class:`~repro.serve.gateway.Gateway`.  Four patterns cover the regimes
a serving system must survive (SCSFController's workload-generation
direction, SNIPPETS.md snippet 1):

=========  ============================================================
steady     homogeneous Poisson at the base rate — the happy path
bursty     square-wave: quiet valleys, 3x peaks — batching + burst
           absorption
diurnal    sinusoidal day/night swing around the base rate
overload   linear ramp from half to 4x the base rate — admission
           control must shed, latency must not collapse
=========  ============================================================

Every random draw comes from :func:`repro.util.rng.derive` substreams
and only uses ``Generator.random()`` (uniform doubles) with explicit
inverse-CDF transforms, so a given ``(pattern, seed, n)`` produces the
identical trace on any platform or numpy version — the sim golden
reports depend on this.

Request kinds model the paper's small homogeneous tasks: a matmul
*panel*, an image *thumb*nail, and a text-*search* shard.  Bodies are
module-level (picklable for the processes backend), deterministic in
their key, and cheap — the declared ``cost`` carries the service time
in driven mode, the body only has to produce a checkable value.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.executor.factory import create, get_backend
from repro.obs.analyze import StageLatency, decompose_stages, dominant_stage
from repro.obs.rtrace import RequestSummary, RequestTraceCollector
from repro.obs.slo import Objective, SLOVerdict, emit_metrics, evaluate_slo
from repro.obs.trace import TraceRecorder
from repro.serve.admission import AdmissionPolicy
from repro.serve.batching import BatchPolicy
from repro.serve.cache import LRUTTLCache, ModeledCache
from repro.serve.gateway import Gateway
from repro.serve.requests import Completed, Failed, Rejected
from repro.util.rng import derive
from repro.util.stats import quantile
from repro.util.tables import Table

__all__ = [
    "Arrival",
    "LoadReport",
    "LoadSpec",
    "PATTERNS",
    "build_trace",
    "run_serve",
]

PATTERNS = ("steady", "bursty", "diurnal", "overload")


# -- request kind catalogue -------------------------------------------------

def panel_body(key: int) -> int:
    """Stand-in for a matmul panel: integer mixing, deterministic in key."""
    x = key & 0xFFFFFFFF
    for _ in range(8):
        x = (x * 0x9E3779B1 + 0x7F4A7C15) & 0xFFFFFFFF
        x ^= x >> 13
    return x


def thumb_body(key: int) -> int:
    """Stand-in for a thumbnail downscale."""
    x = (key * 2654435761) & 0xFFFFFFFF
    for _ in range(4):
        x = (x ^ (x << 7)) & 0xFFFFFFFF
        x = (x + 0x6D2B79F5) & 0xFFFFFFFF
    return x


def search_body(key: int) -> int:
    """Stand-in for a text-search shard probe."""
    x = key & 0xFFFFFFFF
    x = (x * 0x85EBCA6B) & 0xFFFFFFFF
    return x ^ (x >> 16)


#: kind -> (body, declared cost in reference-seconds, traffic weight)
KINDS: dict[str, tuple[Any, float, float]] = {
    "panel": (panel_body, 0.008, 0.25),
    "thumb": (thumb_body, 0.004, 0.35),
    "search": (search_body, 0.002, 0.40),
}


@dataclass(frozen=True)
class Arrival:
    t: float
    kind: str
    key: int


@dataclass(frozen=True)
class LoadSpec:
    """What traffic to generate (not how to serve it)."""

    pattern: str
    requests: int = 100_000
    seed: int = 2014
    #: mean offered rate in requests per (virtual) second
    base_rate: float = 2_000.0
    #: distinct keys per kind; smaller keyspace -> hotter cache
    keyspace: int = 512
    #: popularity skew exponent: key = floor(keyspace * u**skew)
    skew: float = 3.0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.base_rate <= 0:
            raise ValueError(f"base_rate must be > 0, got {self.base_rate}")


def _rate_profile(pattern: str, base: float) -> tuple[Any, float]:
    """(rate(t) callable, peak rate) for thinning-based sampling.

    The overload ramp is defined over the *expected* run duration of the
    steady pattern at ``base``; the ramp simply keeps climbing if the
    trace runs longer.
    """
    if pattern == "steady":
        return (lambda t: base), base
    if pattern == "bursty":
        # 0.4 s valleys at 0.3x alternating with 0.4 s peaks at 3x
        return (lambda t: base * (3.0 if int(t / 0.4) % 2 else 0.3)), base * 3.0
    if pattern == "diurnal":
        period = 4.0
        return (
            lambda t: base * (1.0 + 0.8 * math.sin(2.0 * math.pi * t / period))
        ), base * 1.8
    # overload: 0.5x -> 4x over ~30 virtual seconds, then hold
    ramp = 30.0
    return (
        lambda t: base * (0.5 + 3.5 * min(t, ramp) / ramp)
    ), base * 4.0


def build_trace(spec: LoadSpec) -> list[Arrival]:
    """Materialise the seeded arrival trace (thinning for time-varying
    rates; all draws are plain uniforms for cross-platform stability)."""
    rate_fn, peak = _rate_profile(spec.pattern, spec.base_rate)
    rng = derive(spec.seed, "serve.loadgen", spec.pattern)
    kinds = list(KINDS)
    weights = [KINDS[k][2] for k in kinds]
    cum = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    cum[-1] = 1.0  # guard against float drift
    out: list[Arrival] = []
    t = 0.0
    while len(out) < spec.requests:
        u = rng.random()
        # exponential gap at the peak rate; inverse-CDF, no .exponential()
        t += -math.log(1.0 - u) / peak
        if rng.random() * peak > rate_fn(t):
            continue  # thinned: instantaneous rate below peak
        uk = rng.random()
        kind = next(k for k, c in zip(kinds, cum) if uk <= c)
        key = int(spec.keyspace * rng.random() ** spec.skew)
        out.append(Arrival(t, kind, min(key, spec.keyspace - 1)))
    return out


# -- replay + report --------------------------------------------------------


@dataclass
class LoadReport:
    """Everything the CLI prints and the baseline gate consumes."""

    pattern: str
    backend: str
    cores: int
    seed: int
    requests: int
    duration: float
    completed: int = 0
    failed: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    retries: int = 0
    latencies: list[float] = field(default_factory=list, repr=False)
    #: request-trace summary when the run was traced (``rtrace=True``)
    stages: RequestSummary | None = field(default=None, repr=False)
    #: SLO verdict when objectives were evaluated
    slo: SLOVerdict | None = field(default=None, repr=False)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.requests if self.requests else 0.0

    @property
    def hit_rate(self) -> float:
        n = self.cache_hits + self.cache_misses
        return self.cache_hits / n if n else 0.0

    @property
    def throughput(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def executed(self) -> int:
        """Requests that actually rode a batch (cache hits never do)."""
        return max(0, self.completed + self.failed - self.cache_hits)

    @property
    def mean_batch(self) -> float:
        return self.executed / self.batches if self.batches else 0.0

    def percentile(self, q: float) -> float:
        """Exact order-statistic percentile (nearest-rank) over completed
        request latencies; 0 when nothing completed."""
        return quantile(sorted(self.latencies), q) if self.latencies else 0.0

    def metrics(self) -> dict[str, float]:
        """Flat metrics for ``obs.baseline`` (names carry direction:
        throughput/hit_rate up is good, latency/shed down is good).

        Traced runs additionally expose per-stage p99s and the SLO
        verdict metrics; untraced runs keep exactly the original key
        set, so committed baselines stay byte-comparable.
        """
        out = {
            "serve.throughput_rps": round(self.throughput, 3),
            "serve.latency_p50_seconds": round(self.percentile(0.50), 6),
            "serve.latency_p99_seconds": round(self.percentile(0.99), 6),
            "serve.latency_p999_seconds": round(self.percentile(0.999), 6),
            "serve.hit_rate": round(self.hit_rate, 6),
            "serve.shed_rate": round(self.shed_rate, 6),
            "serve.completed": float(self.completed),
            "serve.failed": float(self.failed),
        }
        if self.stages is not None:
            for s in self.stage_latencies():
                out[f"serve.stage_{s.stage}_p99_seconds"] = round(s.p99, 6)
        if self.slo is not None:
            out.update(self.slo.metrics())
        return out

    def run_record(self, exp_id: str):
        """This run as a :class:`repro.obs.store.RunRecord` (unstamped —
        :meth:`RunStore.add` supplies timestamp and revision).

        Carries the full flat metric map, the SLO verdict when one was
        evaluated, and the dominant latency stage when the run was
        traced.
        """
        from repro.obs.store import RunRecord

        verdicts: dict[str, str] = {}
        if self.slo is not None:
            verdicts["slo"] = "pass" if self.slo.passed else "violation"
        dom = self.dominant_stage()
        return RunRecord(
            exp_id=exp_id,
            kind="serve",
            metrics=self.metrics(),
            backend=self.backend,
            cores=self.cores,
            seed=self.seed,
            verdicts=verdicts,
            dominant_stage=dom.stage if dom is not None else None,
        )

    def stage_latencies(self) -> tuple[StageLatency, ...]:
        """Per-stage tail decomposition (empty when the run was untraced)."""
        if self.stages is None:
            return ()
        return decompose_stages(self.stages.stage_samples)

    def dominant_stage(self) -> StageLatency | None:
        """The stage dominating the latency tail, or ``None`` untraced."""
        return dominant_stage(self.stage_latencies())

    def stage_table(self) -> Table:
        """Latency-decomposition table: where each request's time went.

        The ``total_s`` column telescopes: stage totals sum exactly to
        the ``end_to_end`` row, because each request's stage durations
        sum exactly to its reported latency (see ``RequestTrace``).
        Covers every *finished* trace — completed, failed and
        post-admission rejected — which is why ``end_to_end`` counts
        can exceed the completed-only latency percentiles above it.
        """
        if self.stages is None:
            raise ValueError("stage_table() needs a traced run (rtrace=True)")
        t = Table(
            ["stage", "count", "total_s", "share", "p50_s", "p99_s", "p999_s"],
            title=f"latency decomposition ({self.stages.requests} traced requests)",
            precision=6,
        )
        for s in self.stage_latencies():
            t.add_row(
                [
                    s.stage,
                    s.count,
                    round(s.total, 6),
                    round(s.share, 6),
                    round(s.p50, 6),
                    round(s.p99, 6),
                    round(s.p999, 6),
                ]
            )
        totals = sorted(self.stages.latencies)
        t.add_row(
            ["end_to_end", len(totals), round(sum(totals), 6), 1.0]
            + [round(quantile(totals, q), 6) if totals else 0.0 for q in (0.50, 0.99, 0.999)]
        )
        return t

    def table(self) -> Table:
        """Render the report as a two-column metric table."""
        t = Table(
            ["metric", "value"],
            title=f"serve {self.pattern} on {self.backend} ({self.cores} cores, seed {self.seed})",
            precision=6,
        )
        t.add_row(["requests", self.requests])
        t.add_row(["completed", self.completed])
        t.add_row(["failed", self.failed])
        t.add_row(["shed", self.shed_total])
        for reason in sorted(self.shed):
            t.add_row([f"shed[{reason}]", self.shed[reason]])
        t.add_row(["duration_s", round(self.duration, 6)])
        t.add_row(["throughput_rps", round(self.throughput, 3)])
        t.add_row(["latency_p50_s", round(self.percentile(0.50), 6)])
        t.add_row(["latency_p99_s", round(self.percentile(0.99), 6)])
        t.add_row(["latency_p999_s", round(self.percentile(0.999), 6)])
        t.add_row(["cache_hit_rate", round(self.hit_rate, 6)])
        t.add_row(["batches", self.batches])
        t.add_row(["mean_batch_occupancy", round(self.mean_batch, 3)])
        t.add_row(["retries", self.retries])
        return t


def default_admission(base_rate: float) -> AdmissionPolicy:
    """Rate cap at 1.6x the base offered rate with a 50 ms burst
    allowance, plus a bounded queue — sheds under overload, quiet at 1x."""
    return AdmissionPolicy(
        rate=base_rate * 1.6, burst=max(8.0, base_rate * 0.05), max_queue=512
    )


def _whoami(nap: float) -> tuple[int, int]:
    """Warm-up no-op: naps, then names the worker (process, thread) that ran it."""
    time.sleep(nap)
    return os.getpid(), threading.get_ident()


def _warm(executor: Any) -> None:
    """Return once ``executor.cores`` distinct workers have each run a
    5 ms no-op, so the first arrivals do not wait out worker start-up.

    The nap keeps one warm worker from draining a whole round before a
    slower one starts.  After a minute the replay starts anyway.
    """
    seen: set[tuple[int, int]] = set()
    deadline = time.monotonic() + 60.0
    while len(seen) < executor.cores and time.monotonic() < deadline:
        futures = executor.map(_whoami, [0.005] * executor.cores, name="warm")
        seen.update(f.result(timeout=60.0) for f in futures)


def run_serve(
    pattern: str,
    *,
    backend: str = "sim",
    cores: int = 4,
    requests: int = 100_000,
    seed: int = 2014,
    base_rate: float = 2_000.0,
    keyspace: int = 512,
    admission: AdmissionPolicy | None = None,
    batching: BatchPolicy | None = None,
    hit_rate: float = 0.6,
    cache_capacity: int = 4096,
    cache_ttl: float | None = None,
    time_scale: float = 0.0,
    trace: TraceRecorder | None = None,
    executor: Any = None,
    rtrace: bool = False,
    objectives: tuple[Objective, ...] | list[Objective] | None = None,
    slo_window: float = 1.0,
) -> LoadReport:
    """Generate a seeded trace and serve it end to end; returns the report.

    ``backend`` picks the executor via :func:`repro.executor.create`.
    Virtual-time backends (sim, inline) replay in driven mode — the
    whole run is deterministic.  Real backends replay in wall time:
    ``time_scale`` compresses the trace's inter-arrival gaps (0 = submit
    as fast as possible, the overload smoke-test mode).  A real pool
    this function builds is warmed before the first arrival: every
    worker has answered a no-op, so no request waits out worker
    start-up.

    The cache is a seeded hit-rate model under driven mode and a real
    LRU+TTL under thread mode — same client code, different fidelity
    (see DESIGN.md).

    ``rtrace`` turns on request-scoped stage tracing
    (:mod:`repro.obs.rtrace`); declaring ``objectives`` implies it and
    additionally evaluates an SLO verdict over ``slo_window``-second
    windows onto ``report.slo``.  Off (the default), the serve path
    keeps its null fast paths and reports stay byte-identical to
    pre-tracing goldens.
    """
    if slo_window <= 0:  # before the replay, not after it
        raise ValueError(f"window must be > 0, got {slo_window}")
    spec = LoadSpec(
        pattern, requests=requests, seed=seed, base_rate=base_rate, keyspace=keyspace
    )
    arrivals = build_trace(spec)
    own_executor = executor is None
    if own_executor:
        # single-core backends (inline) reject an explicit core count
        want_cores = None if get_backend(backend).single_core else cores
        executor = create(backend, cores=want_cores, trace=trace)
    collector = (
        RequestTraceCollector() if rtrace or objectives is not None else None
    )
    gateway = Gateway(
        executor,
        admission=admission or default_admission(base_rate),
        batching=batching or BatchPolicy(max_size=8, max_delay=0.004),
        cache=None,
        trace=trace,
        rtrace=collector,
    )
    if gateway.mode == "driven":
        gateway.cache = ModeledCache(hit_rate=hit_rate, seed=seed)
    else:
        gateway.cache = LRUTTLCache(cache_capacity, ttl=cache_ttl)
    try:
        if own_executor and gateway.mode == "thread":
            _warm(executor)
        tickets = []
        if gateway.mode == "driven":
            clock = gateway.clock
            for a in arrivals:
                if a.t > clock.now():
                    clock.advance_to(a.t)  # type: ignore[attr-defined]
                body, cost, _ = KINDS[a.kind]
                tickets.append(
                    gateway.submit(body, a.key, task=a.kind, cost=cost)
                )
            end = gateway.drain()
            duration = end
        else:
            start = gateway.clock.now()
            prev = 0.0
            for a in arrivals:
                if time_scale > 0.0 and a.t > prev:
                    time.sleep((a.t - prev) * time_scale)
                prev = a.t
                body, cost, _ = KINDS[a.kind]
                tickets.append(
                    gateway.submit(body, a.key, task=a.kind, cost=cost)
                )
            gateway.drain()
            duration = gateway.clock.now() - start
        report = LoadReport(
            pattern=pattern,
            backend=backend,
            cores=executor.cores,
            seed=seed,
            requests=len(tickets),
            duration=duration,
        )
        for ticket in tickets:
            resp = ticket.response(timeout=30.0)
            if isinstance(resp, Completed):
                report.completed += 1
                report.latencies.append(resp.latency)
            elif isinstance(resp, Rejected):
                report.shed[resp.reason] = report.shed.get(resp.reason, 0) + 1
            elif isinstance(resp, Failed):
                report.failed += 1
        stats = gateway.cache.stats
        report.cache_hits = stats.hits + stats.coalesced
        report.cache_misses = stats.misses
        report.batches = gateway.stats.batches
        report.retries = gateway.stats.retries
        if collector is not None:
            report.stages = collector.summary()
            if objectives is not None or rtrace:
                report.slo = evaluate_slo(report, objectives, window=slo_window)
                emit_metrics(report.slo, gateway.trace)
        return report
    finally:
        gateway.shutdown(drain=False)
        if own_executor:
            executor.shutdown()
