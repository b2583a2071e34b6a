"""Serving-traffic experiment: the gateway under seeded load patterns.

The ten course projects measure *finishing* a fixed batch of work; this
experiment measures *absorbing* an arrival process — the regime the
ROADMAP's "serves heavy traffic" north-star cares about.  Three seeded
traffic patterns replay through :func:`repro.serve.run_serve` on the
simulated backend, so the whole table (throughput, tail latency, hit
rate, shed rate) is a deterministic function of the seed:

* ``steady``  — the happy path: no shedding, a batch waits for company
  only while every core is busy, the modeled cache absorbs the hot keys;
* ``bursty``  — 3x peaks: the token bucket sheds the burst overhang
  while tail latency stays bounded;
* ``overload`` — a ramp past capacity: queue-depth backpressure takes
  over and the system degrades by shedding, never by stalling.

``python -m repro chaos serve_traffic --task-failure-rate 0.05 --expect
fault,retry`` composes fault injection with serving: injected batch
faults surface as ``fault`` events, the gateway's immediate retries as
``retry`` events, and the run still terminates with typed responses for
every request — faults-under-load is a tested regime, not a hope.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, register
from repro.serve.loadgen import run_serve
from repro.util.tables import Table

__all__ = ["run_serve_traffic"]

#: small enough to keep the bench quick, large enough that every pattern
#: reaches its characteristic regime (the overload ramp needs ~10 s of
#: virtual time to climb past capacity)
BENCH_REQUESTS = {"steady": 4_000, "bursty": 6_000, "overload": 40_000}


@register(
    "serve_traffic",
    "Serving gateway under steady, bursty and overload traffic (sim)",
    "ROADMAP north-star; SNIPPETS.md snippets 1-2",
)
def run_serve_traffic(seed: int = 2014) -> ExperimentResult:
    table = Table(
        [
            "pattern",
            "requests",
            "throughput_rps",
            "p50_s",
            "p99_s",
            "p999_s",
            "hit_rate",
            "shed_rate",
            "mean_batch",
        ],
        title="serving gateway on sim (4 cores, virtual time)",
        precision=4,
    )
    for pattern, n in BENCH_REQUESTS.items():
        report = run_serve(pattern, backend="sim", cores=4, requests=n, seed=seed)
        table.add_row(
            [
                pattern,
                report.requests,
                round(report.throughput, 1),
                report.percentile(0.50),
                report.percentile(0.99),
                report.percentile(0.999),
                report.hit_rate,
                report.shed_rate,
                round(report.mean_batch, 2),
            ]
        )
    notes = (
        "Virtual-time serving: arrivals, service costs and the hit-rate-"
        "modelled cache are all seeded, so this table is byte-stable. "
        "steady stays under capacity (shed_rate 0); bursty sheds its peak "
        "overhang through the token bucket; overload ramps past capacity "
        "and queue-depth backpressure sheds the excess while p999 stays "
        "bounded by the queue cap. Real-backend runs of the same client "
        "code: python -m repro serve <pattern> --backend threads."
    )
    return ExperimentResult(exp_id="serve_traffic", tables=(table,), notes=notes)
