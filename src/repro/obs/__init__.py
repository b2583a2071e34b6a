"""Observability: structured tracing and metrics for every execution layer.

The paper's pedagogy rests on students *seeing* parallel behaviour —
speedup shapes, steal counts, GUI latency under load (paper §III-B,
§IV-B/C) — so the runtime layers emit what they actually did:

* :class:`TraceRecorder` collects :class:`TraceEvent` records (task
  submit/start/end with task ids, work-steal events, critical-section
  spans, barrier rendezvous, EDT service latency) into a pluggable
  :class:`Sink` — in-memory for tests or JSONL for logs — and
  :func:`write_chrome_trace` saves them as Chrome ``trace_event`` JSON
  loadable in ``chrome://tracing`` / Perfetto;
* :class:`Metrics` is a registry of counters, gauges and histograms
  (percentile summaries reuse :func:`repro.util.stats.summarize`);
* :data:`NULL_RECORDER` is the zero-overhead default — every
  instrumentation point is a no-op until a real recorder is installed,
  either explicitly (``trace=`` on any executor or the
  :func:`repro.executor.create` factory) or ambiently via :func:`use`.

Typical use::

    from repro import obs
    from repro.executor import create

    rec = obs.TraceRecorder()
    ex = create("threads", cores=4, trace=rec)
    ...
    obs.write_chrome_trace(rec.events(), "trace.json")

or ambiently, which is what ``python -m repro analyze <experiment>`` does
before it writes ``trace_<experiment>.json``::

    with obs.use(obs.TraceRecorder()) as rec:
        run_experiment()
    print(rec.metrics.render())

On top of recording sits the *analytics* layer (this package's other
half, used by ``python -m repro analyze`` / ``compare``):

* :func:`analyze_trace` (:mod:`repro.obs.analyze`) reconstructs the
  task timeline from an event stream and computes work/span/parallelism,
  per-worker utilization, steal and contention statistics, and
  Amdahl/Gustafson speedup-model fits (:func:`fit_speedup_models`);
* :func:`render_text` / :func:`render_html` (:mod:`repro.obs.report`)
  turn an analysis into a terminal summary or a self-contained HTML
  report with an SVG Gantt timeline;
* :mod:`repro.obs.baseline` gates a run's metrics against its pinned
  baseline, direction-aware (:func:`compare_to_baseline`);
* :mod:`repro.obs.rtrace` traces individual served requests through
  the gateway's stage chain (a collector the gateway is given; there is
  no ambient one) and :mod:`repro.obs.slo` evaluates
  declarative objectives (with burn-rate windows) over the result —
  :func:`render_waterfall` draws the slowest requests stage by stage;
* :mod:`repro.obs.store` keeps every analyzed/benchmarked/served run
  as a :class:`RunRecord` in a sharded append-only JSONL store with a
  query/aggregate API — a baseline is a record tagged :data:`PINNED`
  (:meth:`RunStore.baseline`) — and :mod:`repro.obs.timeline` reads that
  history back as per-metric trajectories with direction-aware
  change-point detection (``python -m repro runs ...``).
"""

from repro.obs.analyze import (
    BarrierWait,
    GroupAnalysis,
    LatencyStats,
    LockContention,
    SpeedupFit,
    StageLatency,
    TaskSpan,
    TraceAnalysis,
    WorkerUtilization,
    analyze_trace,
    decompose_stages,
    dominant_stage,
    fit_speedup_models,
)
from repro.obs.baseline import Comparison, MetricDelta, compare_to_baseline, metric_direction
from repro.obs.metrics import Counter, Gauge, Histogram, Metrics, NullMetrics
from repro.obs.report import render_html, render_text, render_waterfall
from repro.obs.rtrace import (
    STAGES,
    RequestSummary,
    RequestTrace,
    RequestTraceCollector,
)
from repro.obs.shards import merge_shards, read_shard, replay_into, shard_path
from repro.obs.slo import (
    DEFAULT_OBJECTIVES,
    Objective,
    ObjectiveResult,
    SLOVerdict,
    evaluate_slo,
    parse_objective,
)
from repro.obs.sinks import JsonlSink, MemorySink, Sink, write_chrome_trace
from repro.obs.store import (
    PINNED,
    RUN_KINDS,
    Aggregate,
    RunRecord,
    RunStore,
    aggregate,
    current_stamp,
    emit_metrics,
    use_clock,
)
from repro.obs.timeline import (
    Changepoint,
    MetricSeries,
    TimelinePoint,
    build_timeline,
    detect_changepoints,
    render_timeline_html,
    render_timeline_text,
)
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    TraceEvent,
    TraceRecorder,
    current_recorder,
    resolve_recorder,
    use,
)

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "resolve_recorder",
    "use",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "write_chrome_trace",
    "Metrics",
    "NullMetrics",
    "Counter",
    "Gauge",
    "Histogram",
    # analytics
    "TaskSpan",
    "WorkerUtilization",
    "LockContention",
    "BarrierWait",
    "LatencyStats",
    "GroupAnalysis",
    "SpeedupFit",
    "TraceAnalysis",
    "analyze_trace",
    "fit_speedup_models",
    # cross-process shards
    "merge_shards",
    "read_shard",
    "replay_into",
    "shard_path",
    "render_text",
    "render_html",
    "render_waterfall",
    # request tracing + SLOs
    "STAGES",
    "RequestTrace",
    "RequestSummary",
    "RequestTraceCollector",
    "StageLatency",
    "decompose_stages",
    "dominant_stage",
    "DEFAULT_OBJECTIVES",
    "Objective",
    "ObjectiveResult",
    "SLOVerdict",
    "evaluate_slo",
    "parse_objective",
    "MetricDelta",
    "Comparison",
    "metric_direction",
    "compare_to_baseline",
    # run-history store + cross-run timelines
    "RUN_KINDS",
    "PINNED",
    "RunRecord",
    "RunStore",
    "Aggregate",
    "aggregate",
    "use_clock",
    "current_stamp",
    "emit_metrics",
    "TimelinePoint",
    "Changepoint",
    "MetricSeries",
    "build_timeline",
    "detect_changepoints",
    "render_timeline_text",
    "render_timeline_html",
]
