"""Trace analytics: work/span, scheduler health, and speedup-model fits.

PR 1 gave the runtime layers a way to *emit* what they did
(:mod:`repro.obs.trace`); this module is the layer that *interprets* it.
Given a :class:`~repro.obs.trace.TraceEvent` stream, :func:`analyze_trace`
reconstructs the task timeline and answers the questions the course (and
the ROADMAP's production north-star) actually asks of a parallel run:

* **work/span** — total work T1, critical path T∞ (span), and the
  parallelism T1/T∞, per trace group.  For simulated schedules the exact
  figures are read from the ``schedule_summary`` events the sim backend
  emits; for wall-clock timelines they are reconstructed from the task
  spans plus the parent/dep attributes the executors record;
* **scheduler health** — per-worker busy/utilization timelines, steal
  attempt/success rates, blocked-join helping, critical-section
  contention per lock, and barrier-wait breakdown per key;
* **EDT service latency** — percentiles of the GUI event queue latency;
* **speedup-model fitting** — :func:`fit_speedup_models` fits Amdahl and
  Gustafson serial fractions to measured 1/2/4/…-core runs by least
  squares, with a Karp–Flatt per-point serial-fraction sample summarised
  through :func:`repro.util.stats.summarize` (so the CI machinery the
  bench tables use applies to the inferred fraction too).

Everything here is pure post-processing: nothing imports executors, and
analysing a trace never mutates it, so the layer costs nothing unless a
recorder was installed and someone asks for an analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.obs.trace import TraceEvent
from repro.util.stats import Summary, karp_flatt, quantile, summarize

__all__ = [
    "TaskSpan",
    "WorkerUtilization",
    "LockContention",
    "BarrierWait",
    "LatencyStats",
    "StageLatency",
    "GroupAnalysis",
    "SpeedupFit",
    "TraceAnalysis",
    "analyze_trace",
    "decompose_stages",
    "dominant_stage",
    "fit_speedup_models",
]

_EPS = 1e-12


@dataclass(frozen=True)
class TaskSpan:
    """One closed task-execution interval on a worker lane.

    ``exclusive`` is the span's *self time*: its duration minus the time
    of spans nested inside it on the same worker (a pool worker that
    helps another task during a blocked join nests that task's span
    inside its own, and counting both in full would double-count work).
    """

    group: int
    task_id: int
    name: str
    worker: int | None
    start: float
    end: float
    exclusive: float
    parent: int | None = None

    @property
    def duration(self) -> float:
        """Wall (or virtual) length of the span."""
        return self.end - self.start


@dataclass(frozen=True)
class WorkerUtilization:
    """How busy one worker lane was over a group's makespan."""

    worker: int
    busy: float
    tasks: int
    utilization: float


@dataclass(frozen=True)
class LockContention:
    """Aggregate acquire-wait statistics for one named critical section."""

    name: str
    acquisitions: int
    total_wait: float
    max_wait: float

    @property
    def mean_wait(self) -> float:
        """Average seconds spent waiting per acquisition."""
        return self.total_wait / self.acquisitions if self.acquisitions else 0.0


@dataclass(frozen=True)
class BarrierWait:
    """Aggregate rendezvous-wait statistics for one barrier key."""

    key: str
    passes: int
    total_wait: float
    max_wait: float

    @property
    def mean_wait(self) -> float:
        """Average seconds a party waited at this barrier."""
        return self.total_wait / self.passes if self.passes else 0.0


@dataclass(frozen=True)
class LatencyStats:
    """Percentile summary of a latency sample (EDT queue service)."""

    n: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        """Build the percentile summary from raw samples (non-empty)."""
        arr = np.asarray(samples, dtype=float)
        p50, p90, p99 = np.percentile(arr, [50, 90, 99])
        return cls(
            n=int(arr.size),
            mean=float(arr.mean()),
            p50=float(p50),
            p90=float(p90),
            p99=float(p99),
            maximum=float(arr.max()),
        )


@dataclass(frozen=True)
class StageLatency:
    """Tail profile of one request-lifecycle stage (serving pipeline).

    ``share`` is this stage's fraction of the total time across all
    stages — "where did the time go" in aggregate — while the
    percentiles answer "where did the *tail* go" (the stage with the
    largest p99 dominates the slow requests even when its share of
    total time is modest).
    """

    stage: str
    count: int
    total: float
    share: float
    p50: float
    p99: float
    p999: float
    maximum: float


def decompose_stages(
    samples: Mapping[str, Sequence[float]],
) -> tuple[StageLatency, ...]:
    """Per-stage latency decomposition of request-trace stage samples.

    ``samples`` maps stage name to per-request stage durations (the
    ``stage_samples`` of a :class:`repro.obs.rtrace.RequestSummary`);
    mapping order is preserved in the output.  Percentiles are
    nearest-rank (:func:`repro.util.stats.quantile`), **not**
    interpolating ``np.percentile`` — exact under virtual time, so
    golden reports stay byte-stable.  Stages with no samples are
    dropped.
    """
    grand_total = sum(sum(xs) for xs in samples.values())
    out = []
    for stage, xs in samples.items():
        if not xs:
            continue
        ordered = sorted(xs)
        total = sum(ordered)
        out.append(
            StageLatency(
                stage=stage,
                count=len(ordered),
                total=total,
                share=total / grand_total if grand_total > 0 else 0.0,
                p50=quantile(ordered, 0.50),
                p99=quantile(ordered, 0.99),
                p999=quantile(ordered, 0.999),
                maximum=ordered[-1],
            )
        )
    return tuple(out)


def dominant_stage(stages: Sequence[StageLatency]) -> StageLatency | None:
    """The stage that dominates the tail: largest p99, ties broken by
    larger total time, then by input order."""
    best: StageLatency | None = None
    for s in stages:
        if best is None or s.p99 > best.p99 or (s.p99 == best.p99 and s.total > best.total):
            best = s
    return best


@dataclass(frozen=True)
class GroupAnalysis:
    """Work/span/utilization figures for one trace group (timeline).

    ``exact=True`` means work/span/makespan came from the authoritative
    ``schedule_summary`` event a simulated schedule emits; otherwise they
    were reconstructed from the span stream (exclusive-time sums and the
    longest path through the recorded spawn/dependence edges).
    """

    group: int
    label: str
    cores: int | None
    tasks: int
    work: float
    span: float
    makespan: float
    parallelism: float
    utilization: float
    workers: tuple[WorkerUtilization, ...]
    exact: bool
    #: the closed task spans behind the figures (Gantt source), in
    #: (start, task) order; excluded from repr to keep logs readable.
    spans: tuple[TaskSpan, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class SpeedupFit:
    """Least-squares Amdahl/Gustafson fits of a measured speedup curve."""

    cores: tuple[int, ...]
    speedups: tuple[float, ...]
    amdahl_fraction: float
    amdahl_rmse: float
    gustafson_fraction: float
    gustafson_rmse: float
    #: Karp–Flatt serial-fraction estimate per measured point with p > 1,
    #: summarised so ``.mean`` ± ``.ci95_halfwidth`` gives the CI.
    serial_fraction: Summary | None

    @property
    def preferred(self) -> str:
        """Which model fits the measurements better (lower RMSE)."""
        return "amdahl" if self.amdahl_rmse <= self.gustafson_rmse else "gustafson"


@dataclass(frozen=True)
class TraceAnalysis:
    """Everything :func:`analyze_trace` extracted from one event stream."""

    groups: tuple[GroupAnalysis, ...]
    locks: tuple[LockContention, ...]
    barriers: tuple[BarrierWait, ...]
    edt_latency: LatencyStats | None
    steals: int
    steal_attempts: int | None
    helps: int
    fit: SpeedupFit | None
    n_events: int
    unclosed_spans: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    #: task-lifecycle transitions (see :mod:`repro.resilience`): futures
    #: cancelled, retry attempts, injected faults, and futures failed by
    #: a non-draining shutdown.  All zero on a clean run.
    cancelled: int = 0
    retries: int = 0
    faults: int = 0
    drained: int = 0

    @property
    def primary(self) -> GroupAnalysis | None:
        """The group with the most tasks (ties: lowest group id) — the
        timeline the one-line summary and the Gantt chart describe."""
        if not self.groups:
            return None
        return max(self.groups, key=lambda g: (g.tasks, -g.group))

    @property
    def steal_success_rate(self) -> float | None:
        """steals / steal-attempts, or ``None`` when attempts are unknown."""
        if not self.steal_attempts:
            return None
        return min(1.0, self.steals / self.steal_attempts)

    def baseline_metrics(self) -> dict[str, float]:
        """The flat, sorted metric dict the baseline store persists.

        Includes the primary group's work/span figures, scheduler-health
        aggregates, the fitted serial fraction, and every numeric entry
        of the captured metrics snapshot.
        """
        out: dict[str, float] = {
            "trace.groups": float(len(self.groups)),
            "trace.tasks": float(sum(g.tasks for g in self.groups)),
            "trace.steals": float(self.steals),
        }
        p = self.primary
        if p is not None:
            out["primary.work"] = p.work
            out["primary.span"] = p.span
            out["primary.parallelism"] = p.parallelism
            out["primary.makespan"] = p.makespan
            out["primary.utilization"] = p.utilization
        if self.locks:
            out["lock_wait.total_seconds"] = sum(c.total_wait for c in self.locks)
        if self.barriers:
            out["barrier_wait.total_seconds"] = sum(b.total_wait for b in self.barriers)
        if self.edt_latency is not None:
            out["edt_latency.p99"] = self.edt_latency.p99
        if self.fit is not None:
            out["fit.serial_fraction"] = self.fit.amdahl_fraction
        # Lifecycle counters only when something happened, so clean-run
        # baselines stay byte-identical to pre-resilience ones.
        if self.cancelled:
            out["resilience.cancelled"] = float(self.cancelled)
        if self.retries:
            out["resilience.retried"] = float(self.retries)
        if self.faults:
            out["resilience.faulted"] = float(self.faults)
        if self.drained:
            out["resilience.drained"] = float(self.drained)
        for name, value in self.metrics.items():
            if isinstance(value, (int, float)):
                out[name] = float(value)
        return dict(sorted(out.items()))


# -- span reconstruction -----------------------------------------------------


def _close_spans(events: Sequence[TraceEvent]) -> tuple[list[TaskSpan], int]:
    """Pair ``B``/``E`` task events (and accept ``X`` completes) into
    spans; returns (spans, number of unclosed B events)."""
    raw: list[dict[str, Any]] = []
    open_stacks: dict[tuple[int, int], list[dict[str, Any]]] = {}
    for e in events:
        if e.kind != "task":
            continue
        if e.phase == "X":
            raw.append(
                {
                    "group": e.group, "task_id": e.task_id, "name": e.name,
                    "worker": e.worker, "start": e.ts, "end": e.ts + (e.dur or 0.0),
                    "parent": e.attrs.get("parent"),
                }
            )
        elif e.phase == "B":
            open_stacks.setdefault((e.group, e.task_id), []).append(
                {
                    "group": e.group, "task_id": e.task_id, "name": e.name,
                    "worker": e.worker, "start": e.ts, "end": None,
                    "parent": e.attrs.get("parent"),
                }
            )
        elif e.phase == "E":
            stack = open_stacks.get((e.group, e.task_id))
            if stack:
                span = stack.pop()
                span["end"] = e.ts
                raw.append(span)
    unclosed = sum(len(s) for s in open_stacks.values())
    spans = _with_exclusive_time(raw)
    return spans, unclosed


def _with_exclusive_time(raw: list[dict[str, Any]]) -> list[TaskSpan]:
    """Compute each span's self time by subtracting directly-nested spans
    on the same worker lane, then freeze them into :class:`TaskSpan`."""
    for r in raw:
        r["exclusive"] = r["end"] - r["start"]
    lanes: dict[tuple[int, Any], list[dict[str, Any]]] = {}
    for r in raw:
        lanes.setdefault((r["group"], r["worker"]), []).append(r)
    for lane in lanes.values():
        lane.sort(key=lambda r: (r["start"], -r["end"]))
        stack: list[dict[str, Any]] = []
        for r in lane:
            while stack and stack[-1]["end"] <= r["start"] + _EPS:
                stack.pop()
            if stack:  # r is nested in stack[-1]: charge only the parent
                stack[-1]["exclusive"] -= r["end"] - r["start"]
            stack.append(r)
    return [
        TaskSpan(
            group=r["group"], task_id=r["task_id"], name=r["name"], worker=r["worker"],
            start=r["start"], end=r["end"], exclusive=max(0.0, r["exclusive"]),
            parent=r["parent"],
        )
        for r in sorted(raw, key=lambda r: (r["group"], r["start"], r["task_id"]))
    ]


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    current_start: float | None = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end + _EPS:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def _critical_path(durations: Mapping[int, float], preds: Mapping[int, set[int]]) -> float:
    """Longest duration-weighted path through the task DAG (Kahn order;
    edges into unknown tasks are ignored, cycles degrade to node-local
    spans rather than raising — bad attrs must not kill an analysis)."""
    nodes = set(durations)
    indeg = {t: 0 for t in nodes}
    succs: dict[int, list[int]] = {t: [] for t in nodes}
    for t, ps in preds.items():
        for p in ps:
            if p in nodes and t in indeg and p != t:
                indeg[t] += 1
                succs[p].append(t)
    ready = sorted(t for t, d in indeg.items() if d == 0)
    longest = {t: durations[t] for t in nodes}
    seen = 0
    while ready:
        t = ready.pop()
        seen += 1
        for s in succs[t]:
            longest[s] = max(longest[s], longest[t] + durations[s])
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    # Nodes left unprocessed sit on a (malformed) cycle; their node-local
    # duration already seeds ``longest``, which is a sound lower bound.
    return max(longest.values(), default=0.0)


# -- speedup-model fitting ---------------------------------------------------


def fit_speedup_models(cores: Sequence[int], times: Sequence[float]) -> SpeedupFit:
    """Fit Amdahl and Gustafson serial fractions to measured run times.

    ``cores``/``times`` are parallel sequences of a core-count sweep that
    must include a 1-core measurement (the speedup denominator).  Both
    models are fitted by least squares over the serial fraction on a
    dense grid (deterministic, no SciPy dependency), and the Karp–Flatt
    experimentally-determined serial fraction is computed per point with
    ``p > 1`` and summarised so callers get a mean ± CI.
    """
    if len(cores) != len(times):
        raise ValueError(f"cores and times disagree: {len(cores)} vs {len(times)}")
    pairs = sorted(zip((int(c) for c in cores), (float(t) for t in times)))
    if len({c for c, _ in pairs}) != len(pairs):
        raise ValueError("duplicate core counts in speedup sweep")
    if not pairs or pairs[0][0] != 1:
        raise ValueError("speedup fitting requires a 1-core measurement")
    if any(t <= 0 for _, t in pairs):
        raise ValueError("run times must be positive")
    if len(pairs) < 2:
        raise ValueError("need at least two core counts to fit a model")
    t1 = pairs[0][1]
    p_arr = np.array([c for c, _ in pairs], dtype=float)
    s_arr = np.array([t1 / t for _, t in pairs], dtype=float)

    grid = np.linspace(0.0, 1.0, 2001)[:, None]
    amdahl_pred = 1.0 / (grid + (1.0 - grid) / p_arr[None, :])
    gustafson_pred = p_arr[None, :] - grid * (p_arr[None, :] - 1.0)
    amdahl_rmse = np.sqrt(np.mean((amdahl_pred - s_arr[None, :]) ** 2, axis=1))
    gustafson_rmse = np.sqrt(np.mean((gustafson_pred - s_arr[None, :]) ** 2, axis=1))
    a_idx = int(np.argmin(amdahl_rmse))
    g_idx = int(np.argmin(gustafson_rmse))

    kf = [
        karp_flatt(s, c)
        for c, s in zip(p_arr.astype(int), s_arr)
        if c > 1 and s > 0
    ]
    return SpeedupFit(
        cores=tuple(int(c) for c in p_arr),
        speedups=tuple(float(s) for s in s_arr),
        amdahl_fraction=float(grid[a_idx, 0]),
        amdahl_rmse=float(amdahl_rmse[a_idx]),
        gustafson_fraction=float(grid[g_idx, 0]),
        gustafson_rmse=float(gustafson_rmse[g_idx]),
        serial_fraction=summarize(kf) if kf else None,
    )


def _fit_from_summaries(summaries: list[dict[str, Any]]) -> SpeedupFit | None:
    """Try to fit speedup models from per-schedule summary events.

    Schedules of the *same recording* share total work exactly, so group
    by (rounded) work, keep the cluster with the most distinct core
    counts, and fit when it holds a 1-core run plus at least two more
    core counts.  Several schedules at the same core count (e.g. policy
    ablations) contribute their best (minimum) makespan.
    """
    clusters: dict[float, dict[int, float]] = {}
    for s in summaries:
        cores, makespan, work = s.get("cores"), s.get("makespan"), s.get("work")
        if not cores or makespan is None or work is None or makespan <= 0:
            continue
        key = round(float(work), 9)
        best = clusters.setdefault(key, {})
        c = int(cores)
        best[c] = min(best.get(c, float("inf")), float(makespan))
    if not clusters:
        return None
    best_cluster = max(clusters.values(), key=len)
    if len(best_cluster) < 3 or 1 not in best_cluster:
        return None
    cores = sorted(best_cluster)
    return fit_speedup_models(cores, [best_cluster[c] for c in cores])


# -- the analyzer ------------------------------------------------------------


def _analyze_group(
    group: int,
    label: str,
    spans: list[TaskSpan],
    summary: dict[str, Any] | None,
    preds: Mapping[int, set[int]],
) -> GroupAnalysis:
    """Produce one group's work/span/utilization figures (exact numbers
    from a schedule summary when available, reconstruction otherwise)."""
    makespan = 0.0
    workers: list[WorkerUtilization] = []
    if spans:
        start = min(s.start for s in spans)
        end = max(s.end for s in spans)
        makespan = end - start
        by_worker: dict[int, list[TaskSpan]] = {}
        for s in spans:
            if s.worker is not None:
                by_worker.setdefault(s.worker, []).append(s)
        for wid in sorted(by_worker):
            ws = by_worker[wid]
            busy = _union_length((s.start, s.end) for s in ws)
            busy = min(busy, makespan) if makespan else busy
            workers.append(
                WorkerUtilization(
                    worker=wid,
                    busy=busy,
                    tasks=len({s.task_id for s in ws}),
                    utilization=(busy / makespan) if makespan > 0 else 0.0,
                )
            )
    task_ids = {s.task_id for s in spans}

    if summary is not None:
        work = float(summary.get("work", 0.0))
        span = float(summary.get("span", 0.0))
        makespan = float(summary.get("makespan", makespan))
        utilization = float(summary.get("utilization", 0.0))
        cores = int(summary["cores"]) if summary.get("cores") else None
        exact = True
    else:
        durations: dict[int, float] = {}
        for s in spans:
            durations[s.task_id] = durations.get(s.task_id, 0.0) + s.exclusive
        work = sum(durations.values())
        span = _critical_path(durations, preds)
        cores = len(workers) or None
        utilization = (
            sum(w.busy for w in workers) / (makespan * len(workers))
            if workers and makespan > 0
            else 0.0
        )
        exact = False
    parallelism = (work / span) if span > 0 else 1.0
    return GroupAnalysis(
        group=group,
        label=label,
        cores=cores,
        tasks=len(task_ids),
        work=work,
        span=span,
        makespan=makespan,
        parallelism=max(1.0, parallelism),
        utilization=min(1.0, max(0.0, utilization)),
        workers=tuple(workers),
        exact=exact,
        spans=tuple(spans),
    )


def analyze_trace(
    events: Sequence[TraceEvent],
    metrics: Mapping[str, Any] | None = None,
) -> TraceAnalysis:
    """Interpret a recorded event stream into a :class:`TraceAnalysis`.

    ``metrics`` is an optional (flat) metrics snapshot captured alongside
    the trace; numeric entries ride into the baseline dict and the steal
    attempt counter is read from ``pool.steal_attempts`` when present.
    """
    labels: dict[int, str] = {}
    group_cores: dict[int, int] = {}
    summaries: dict[int, dict[str, Any]] = {}
    all_summaries: list[dict[str, Any]] = []
    lock_waits: dict[str, list[float]] = {}
    barrier_waits: dict[str, list[float]] = {}
    edt_samples: list[float] = []
    pending_locks: dict[tuple[int, str], float] = {}
    pending_barriers: dict[tuple[int, str], float] = {}
    steals = 0
    helps = 0
    cancelled = 0
    retries = 0
    faults = 0
    drained = 0

    for e in events:
        if e.phase == "M" and e.name == "process_name":
            labels[e.group] = str(e.attrs.get("name", ""))
            if "cores" in e.attrs:
                group_cores[e.group] = int(e.attrs["cores"])
        elif e.kind == "sched" and e.name == "schedule_summary":
            summaries[e.group] = dict(e.attrs)
            all_summaries.append(dict(e.attrs))
        elif e.kind == "steal":
            steals += 1
        elif e.kind == "help":
            helps += 1
        elif e.kind == "cancel":
            cancelled += 1
        elif e.kind == "retry":
            retries += 1
        elif e.kind == "fault":
            faults += 1
        elif e.kind == "drain":
            drained += 1
        elif e.kind == "critical":
            if e.phase == "B":
                lock = str(e.attrs.get("lock", e.name))
                pending_locks[(e.task_id, lock)] = e.ts
            elif e.phase == "i" and e.name.endswith(":acquired"):
                lock = e.name.rsplit(":", 1)[0]
                requested = pending_locks.pop((e.task_id, lock), None)
                if requested is not None:
                    lock_waits.setdefault(lock, []).append(max(0.0, e.ts - requested))
        elif e.kind == "barrier" and e.phase == "i":
            if e.name.endswith(":arrive"):
                key = e.name.rsplit(":", 1)[0]
                pending_barriers[(e.task_id, key)] = e.ts
            elif e.name.endswith(":pass"):
                key = e.name.rsplit(":", 1)[0]
                arrived = pending_barriers.pop((e.task_id, key), None)
                if arrived is not None:
                    barrier_waits.setdefault(key, []).append(max(0.0, e.ts - arrived))
        elif e.kind == "edt" and e.phase == "B" and "queue_latency" in e.attrs:
            edt_samples.append(float(e.attrs["queue_latency"]))

    spans, unclosed = _close_spans(events)
    spans_by_group: dict[int, list[TaskSpan]] = {}
    for s in spans:
        spans_by_group.setdefault(s.group, []).append(s)

    # Spawn/dependence edges, per group, from every attr that names them.
    preds_by_group: dict[int, dict[int, set[int]]] = {}
    for e in events:
        if e.kind in ("submit", "spawn", "task") and e.task_id:
            preds = preds_by_group.setdefault(e.group, {}).setdefault(e.task_id, set())
            parent = e.attrs.get("parent")
            if parent:
                preds.add(int(parent))
            for dep in e.attrs.get("dep_tasks", ()):
                preds.add(int(dep))
    for s in spans:
        if s.parent:
            preds_by_group.setdefault(s.group, {}).setdefault(s.task_id, set()).add(int(s.parent))

    group_ids = sorted(set(spans_by_group) | set(summaries))
    groups = tuple(
        _analyze_group(
            gid,
            labels.get(gid, "wall clock" if gid == 0 else f"group {gid}"),
            spans_by_group.get(gid, []),
            summaries.get(gid),
            preds_by_group.get(gid, {}),
        )
        for gid in group_ids
    )

    locks = tuple(
        LockContention(
            name=name, acquisitions=len(ws), total_wait=float(sum(ws)), max_wait=float(max(ws))
        )
        for name, ws in sorted(lock_waits.items())
    )
    barriers = tuple(
        BarrierWait(
            key=key, passes=len(ws), total_wait=float(sum(ws)), max_wait=float(max(ws))
        )
        for key, ws in sorted(barrier_waits.items())
    )

    snapshot = dict(metrics) if metrics else {}
    attempts = snapshot.get("pool.steal_attempts")
    return TraceAnalysis(
        groups=groups,
        locks=locks,
        barriers=barriers,
        edt_latency=LatencyStats.from_samples(edt_samples) if edt_samples else None,
        steals=steals,
        steal_attempts=int(attempts) if attempts is not None else None,
        helps=helps,
        fit=_fit_from_summaries(all_summaries),
        n_events=len(events),
        unclosed_spans=unclosed,
        metrics={k: v for k, v in snapshot.items() if isinstance(v, (int, float))},
        cancelled=cancelled,
        retries=retries,
        faults=faults,
        drained=drained,
    )
