"""Command-line front end: list and run the paper's experiments.

Usage::

    python -m repro list                     # every registered experiment
    python -m repro run fig2                 # print one experiment's tables
    python -m repro run all -o reports/      # run everything, save reports
    python -m repro analyze abl_sched        # work/span analytics, HTML report, Chrome trace
    python -m repro compare abl_sched        # gate a run against its pinned baseline
    python -m repro chaos proj10             # run one experiment under injected faults
    python -m repro flame proj6 --repeat 200 # sampling profiler + flamegraph (--serve: live /metrics)
    python -m repro serve overload --slo     # seeded traffic through the serving gateway + SLO gate
    python -m repro runs list                # stored run history, per experiment
    python -m repro runs timeline pool_micro # cross-run trajectory + change-points
    python -m repro webdemo out_dir/         # generate the race-condition site
    python -m repro topics                   # the ten project topics
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any


def _cmd_list(_args: argparse.Namespace) -> int:
    import repro.bench as bench

    for exp in bench.all_experiments():
        print(f"{exp.exp_id:12s} {exp.paper_ref:38s} {exp.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    import repro.bench as bench

    if args.experiment == "all":
        experiments = bench.all_experiments()
    else:
        try:
            experiments = [bench.get_experiment(args.experiment)]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    for exp in experiments:
        result = exp()
        rendered = result.render()
        print(rendered)
        print()
        if args.output:
            out = Path(args.output)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{exp.exp_id}.txt").write_text(rendered + "\n")
    if args.output:
        print(f"reports written to {args.output}/", file=sys.stderr)
    return 0


def _usage_error(message: object) -> int:
    """Print why a flag value was rejected (usually the library's own
    ``ValueError``); returns the usage-error exit code, 2."""
    print(message, file=sys.stderr)
    return 2


def _require_experiment(exp_id: str):
    """Look up one experiment, or print the unknown-id error and return
    ``None`` (callers exit 2).  The single lookup path every experiment
    subcommand shares."""
    import repro.bench as bench

    try:
        return bench.get_experiment(exp_id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return None


def _record_run(args: argparse.Namespace, record: Any, virtual: bool = False, at: float = 0.0) -> None:
    """Append one run record to the run-history store.

    With ``--update-baseline`` the record is tagged ``pinned`` and
    becomes the experiment's baseline.  A pin ignores ``--no-record``
    and a failed write raises, since a missing pin would leave the gate
    reading an older one.  It carries the wall clock and git revision
    even on sim: a sim stamp is the run's virtual length, so a shorter
    re-pin would sort before an older, longer one.

    Any other record is best-effort: commands never fail because history
    could not be written — a broken store is a stderr warning, not an
    exit code.  ``virtual=True`` stamps the record from an injected
    clock (timestamp ``at``, revision ``sim``) so deterministic golden
    runs dedup to a byte-identical store on re-ingest; real-backend runs
    get the wall clock and the git revision.  ``--no-record`` skips
    entirely, ``--store`` redirects.
    """
    from repro.obs.store import PINNED, RunStore, use_clock

    if getattr(args, "update_baseline", False):
        store = RunStore(args.store)
        rec = store.add(replace(record, tags=record.tags + (PINNED,)))
        print(f"baseline pinned -> {store.root} ({rec.exp_id}, {rec.kind})", file=sys.stderr)
        return
    if getattr(args, "no_record", False):
        return
    from contextlib import nullcontext

    try:
        from repro.util.stopwatch import ManualClock

        store = RunStore(getattr(args, "store", None))
        scope: Any = use_clock(ManualClock(at), "sim") if virtual else nullcontext()
        with scope:
            rec = store.add(record)
        print(f"run recorded -> {store.root} ({rec.exp_id}, {rec.kind})", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 - history is advisory, never fatal
        print(f"warning: run-history record failed: {exc}", file=sys.stderr)


def _pinned_baseline(args: argparse.Namespace, exp_id: str, pin_command: str):
    """The latest pin for ``exp_id`` in the run-history store, or
    ``None`` after printing how to make one (callers exit 2)."""
    from repro.obs.store import PINNED, RunStore

    store = RunStore(args.store)
    pin = store.baseline(exp_id)
    if pin is None:
        pinned = sorted({rec.exp_id for rec in store.query(tag=PINNED)})
        print(
            f"no baseline for {exp_id!r} in {store.root} (pinned: {pinned}); "
            f"run 'python -m repro {pin_command} --update-baseline' first",
            file=sys.stderr,
        )
    return pin


def _gate_record(record: Any, comparison: Any) -> Any:
    """Fold a baseline comparison (if one ran) into the run's record:
    the gate verdict, per-metric deltas and ``regressed:<metric>`` tags."""
    if comparison is None:
        return record
    return replace(
        record,
        verdicts={**record.verdicts, "baseline": "pass" if comparison.ok else "regression"},
        deltas={d.name: d.rel_change for d in comparison.deltas if d.rel_change is not None},
        tags=record.tags + tuple(f"regressed:{d.name}" for d in comparison.regressions),
    )


def _run_analyzed(exp, recorder: Any, plan: Any = None):
    """Run one experiment under ``recorder`` (and the fault plan
    ``plan``), then print its report and its trace analysis.

    The traced-run path ``analyze`` and ``chaos`` share: returns the
    result, or ``None`` after an error line when the run produced no
    analysis (callers exit 1).
    """
    from contextlib import nullcontext

    from repro.obs import use
    from repro.resilience import use_faults

    with use(recorder), (use_faults(plan) if plan is not None else nullcontext()):
        result = exp()
    if result.analysis is None:
        print("experiment produced no trace analysis", file=sys.stderr)
        return None
    print(result.render())
    print()
    print(result.render_analysis(), end="")
    return result


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Run one experiment traced; print the analysis, write the HTML
    report and the Chrome trace.

    The terminal output is the experiment's own report followed by the
    work/span + scheduler-health summary.  ``-o`` (default
    ``benchmarks/reports/``) receives the self-contained HTML report
    (SVG Gantt, utilization bars) as ``analysis_<exp>.html`` and every
    recorded event as Chrome ``trace_event`` JSON, ``trace_<exp>.json``
    (open it in chrome://tracing or Perfetto).
    """
    from repro.obs import TraceRecorder, render_html, write_chrome_trace

    exp = _require_experiment(args.experiment)
    if exp is None:
        return 2
    try:
        recorder = TraceRecorder(max_events=args.max_events)
    except ValueError as exc:
        return _usage_error(exc)
    result = _run_analyzed(exp, recorder)
    if result is None:
        return 1
    if recorder.dropped_events:
        print(
            f"warning: {recorder.dropped_events} events dropped (raise --max-events)",
            file=sys.stderr,
        )
    out_dir = Path(args.output or "benchmarks/reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    html_path = out_dir / f"analysis_{args.experiment}.html"
    html_path.write_text(render_html(result.analysis, title=f"{args.experiment} — trace analysis"))
    print(f"HTML report -> {html_path}", file=sys.stderr)
    events = recorder.events()
    trace_path = write_chrome_trace(events, out_dir / f"trace_{args.experiment}.json")
    print(
        f"{len(events)} trace events -> {trace_path} (open in chrome://tracing or Perfetto)",
        file=sys.stderr,
    )
    from repro.obs.store import RunRecord

    _record_run(
        args,
        RunRecord(
            exp_id=args.experiment,
            kind="analyze",
            metrics=result.flat_metrics(),
            backend=getattr(args, "backend", None),
            cores=getattr(args, "cores", None),
        ),
        virtual=getattr(args, "backend", None) is None,
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Re-run one experiment and gate it against its pinned baseline.

    The baseline is the experiment's latest ``pinned`` record in the
    run-history store.  ``--update-baseline`` pins this run instead of
    gating it.  Exit codes: 0 = no regressions, 1 = at least one gated
    metric moved the wrong way past the threshold (or the run shares no
    gated metric with its baseline), 2 = unknown experiment, a
    ``--threshold`` the library rejects, or no pinned baseline for it.
    """
    from repro.obs import TraceRecorder, compare_to_baseline, use
    from repro.obs.store import RunRecord

    exp = _require_experiment(args.experiment)
    if exp is None:
        return 2
    try:
        compare_to_baseline(args.experiment, {}, {}, threshold=args.threshold)
    except ValueError as exc:
        return _usage_error(exc)
    pin = None
    if not args.update_baseline:
        pin = _pinned_baseline(args, args.experiment, f"compare {args.experiment}")
        if pin is None:
            return 2
    if exp.perf:
        # Wall-clock microbench: run it *untraced* (recorder overhead must
        # never land in the measured region) and gate the metrics the
        # experiment measured itself.
        result = exp()
        current = result.metrics
        if not current:
            print("perf experiment attached no metrics", file=sys.stderr)
            return 1
    else:
        with use(TraceRecorder()):
            result = exp()
        if result.analysis is None:
            print("experiment produced no trace analysis", file=sys.stderr)
            return 1
        current = result.analysis.baseline_metrics()
    comparison = None
    if pin is not None:
        comparison = compare_to_baseline(
            args.experiment, current, pin.metrics, threshold=args.threshold
        )
        print(comparison.render())
    record = RunRecord(
        exp_id=args.experiment,
        kind="compare",
        metrics={k: float(v) for k, v in current.items() if isinstance(v, (int, float))},
        backend=getattr(args, "backend", None),
        cores=getattr(args, "cores", None),
    )
    _record_run(
        args,
        _gate_record(record, comparison),
        virtual=getattr(args, "backend", None) is None and not exp.perf,
    )
    return 0 if comparison is None or comparison.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Run one experiment under a seeded fault plan and summarise recovery.

    The plan is installed ambiently (:func:`repro.resilience.use_faults`)
    alongside a trace recorder, so the corpus network model retries
    failed fetches and the executors can inject task faults — without
    the experiment knowing.  The printed analysis includes the
    resilience line (cancelled/retries/faults/drained); ``--expect``
    turns it into a gate: exit 1 unless every named lifecycle event kind
    occurred at least once.
    """
    from repro.obs import TraceRecorder
    from repro.resilience import FaultPlan

    exp = _require_experiment(args.experiment)
    if exp is None:
        return 2
    try:
        plan = FaultPlan(
            seed=args.seed,
            failure_rate=args.failure_rate,
            task_failure_rate=args.task_failure_rate,
            latency_spike_rate=args.latency_spike_rate,
        )
        recorder = TraceRecorder(max_events=args.max_events)
    except ValueError as exc:
        return _usage_error(exc)
    result = _run_analyzed(exp, recorder, plan)
    if result is None:
        return 1
    analysis = result.analysis
    print(
        f"\nchaos plan: seed={plan.seed} failure_rate={plan.failure_rate} "
        f"task_failure_rate={plan.task_failure_rate} "
        f"latency_spike_rate={plan.latency_spike_rate}",
        file=sys.stderr,
    )
    rc = 0
    verdicts = {}
    if args.expect:
        observed = {
            "cancel": analysis.cancelled,
            "retry": analysis.retries,
            "fault": analysis.faults,
            "drain": analysis.drained,
        }
        missing = []
        for kind in (k.strip() for k in args.expect.split(",") if k.strip()):
            if kind not in observed:
                return _usage_error(
                    f"--expect: unknown lifecycle kind {kind!r} (known: {sorted(observed)})"
                )
            if observed[kind] == 0:
                missing.append(kind)
        if missing:
            print(
                f"chaos gate FAILED: no {', '.join(missing)} events in the trace",
                file=sys.stderr,
            )
            rc = 1
        else:
            print("chaos gate passed: all expected lifecycle events observed", file=sys.stderr)
        verdicts["chaos"] = "pass" if rc == 0 else "fail"
    from repro.obs.store import RunRecord

    _record_run(
        args,
        RunRecord(
            exp_id=args.experiment,
            kind="chaos",
            metrics=result.flat_metrics(),
            backend=getattr(args, "backend", None),
            cores=getattr(args, "cores", None),
            seed=plan.seed,
            verdicts=verdicts,
            tags=(f"chaos:{args.expect}",) if args.expect else (),
        ),
        virtual=getattr(args, "backend", None) is None,
    )
    return rc


def _cmd_flame(args: argparse.Namespace) -> int:
    """Run one experiment under the sampling profiler; write a flamegraph.

    A background thread snapshots every registered worker's stack
    (``--interval`` seconds apart) while the experiment runs on the
    driver thread — which is itself registered, so single-threaded (sim,
    inline) experiments sample too.  Output: a hotspot summary on
    stdout, a self-contained ``flame_<exp>.html`` plus the raw
    collapsed-stack text in ``-o``, and with ``--serve`` a live
    ``/metrics`` + ``/healthz`` endpoint for the duration of the run
    (``--scrape-out`` saves one scrape, taken over HTTP, as proof).
    Short experiments can be looped with ``--repeat`` until the sampler
    has something to see.
    """
    from repro.obs import TraceRecorder, use
    from repro.obs.live import (
        REGISTRY,
        MetricsServer,
        SamplingProfiler,
        render_flame_html,
        render_hotspots_text,
        use_profiler,
    )

    exp = _require_experiment(args.experiment)
    if exp is None:
        return 2
    if args.repeat < 1:
        return _usage_error(f"--repeat must be >= 1, got {args.repeat}")
    try:
        recorder = TraceRecorder(max_events=args.max_events, track_overhead=True)
        profiler = SamplingProfiler(interval=args.interval)
    except ValueError as exc:
        return _usage_error(exc)
    server = None
    if args.serve or args.scrape_out:
        server = MetricsServer(metrics=recorder.metrics, profiler=profiler, port=args.port).start()
        print(f"serving live metrics at {server.url}", file=sys.stderr)
    handle = REGISTRY.register("driver", role="driver")
    try:
        with use(recorder), use_profiler(profiler), profiler:
            with handle.task(f"experiment:{exp.exp_id}"):
                for _ in range(args.repeat):
                    result = exp()
        if args.scrape_out:
            _save_scrape(server.url, args.scrape_out)
    finally:
        REGISTRY.unregister(handle)
        if server is not None:
            server.stop()
    profile = result.profile if result.profile is not None else profiler.profile()
    print(render_hotspots_text(profile), end="")
    out_dir = Path(args.output or "benchmarks/reports")
    out_dir.mkdir(parents=True, exist_ok=True)
    html_path = out_dir / f"flame_{exp.exp_id}.html"
    html_path.write_text(render_flame_html(profile, title=f"{exp.exp_id} — flamegraph"))
    collapsed_path = out_dir / f"flame_{exp.exp_id}.collapsed.txt"
    collapsed_path.write_text(profile.collapsed_text())
    overhead = profiler.overhead()
    print(f"flamegraph -> {html_path}", file=sys.stderr)
    print(f"collapsed stacks -> {collapsed_path}", file=sys.stderr)
    print(
        f"sampler: {profile.total_samples} samples over {overhead['passes']:.0f} passes, "
        f"{overhead['seconds'] * 1e3:.1f} ms self-overhead",
        file=sys.stderr,
    )
    return 0


def _save_scrape(url: str, path: str) -> None:
    """Save one ``/metrics`` scrape of ``url``, taken over HTTP, to ``path``."""
    import urllib.request

    body = urllib.request.urlopen(url, timeout=10).read().decode("utf-8")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(body)
    print(f"/metrics scrape -> {out}", file=sys.stderr)


def _parse_objectives(text: str | None):
    """``--objectives`` comma list -> tuple of Objective, or ``None``."""
    if not text:
        return None
    from repro.obs import parse_objective

    return tuple(parse_objective(s) for s in text.split(",") if s.strip())


def _cmd_serve(args: argparse.Namespace) -> int:
    """Replay a seeded arrival trace through the serving gateway.

    ``--backend`` here is the *actual* executor kind (sim included — the
    virtual-time run is the deterministic golden path), not the
    redirect-override the experiment commands use.  Prints the serving
    report; ``--compare`` gates the run against the latest pinned
    baseline and ``--update-baseline`` pins it, both under the id
    ``serve_<pattern>_<backend>`` (suffixed ``_slo`` when request
    tracing is on, since traced runs export extra metrics).
    ``--scrape-out`` runs traced with a live ``/metrics`` endpoint and
    saves one scrape as proof the serve gauges are exported.

    ``--slo`` (or ``--objectives``) turns on request-scoped stage
    tracing, prints the latency decomposition and the SLO verdict, and
    exits 3 when a declared objective is violated (stderr says ``SLO
    gate passed`` when none is); ``--waterfall`` also
    writes the slowest-requests HTML view.  Exit codes: 0 ok, 1
    baseline regression, 2 usage error, 3 SLO violation.
    """
    from contextlib import nullcontext

    from repro.executor.factory import ExecutorConfig, get_backend
    from repro.obs import compare_to_baseline, evaluate_slo
    from repro.serve.loadgen import LoadSpec, run_serve

    try:
        objectives = _parse_objectives(args.objectives)
        # Build what the run builds from these flags (the trace spec, the
        # executor config, an empty SLO evaluation and comparison), so a
        # value the library rejects exits 2 before the run starts.
        LoadSpec(args.pattern, requests=args.requests, seed=args.seed, base_rate=args.rate)
        single_core = get_backend(args.backend).single_core
        ExecutorConfig(args.backend, cores=None if single_core else args.cores)
        evaluate_slo(None, (), window=args.slo_window)
        compare_to_baseline(args.pattern, {}, {}, threshold=args.threshold)
    except ValueError as exc:
        return _usage_error(exc)
    slo_on = args.slo or objectives is not None
    rtrace_on = slo_on or bool(args.waterfall)
    # tracing changes the exported metric set, so traced runs gate
    # against their own baseline id and never touch the golden one
    exp_id = f"serve_{args.pattern}_{args.backend}" + ("_slo" if rtrace_on else "")
    pin = None
    if args.compare:
        pin = _pinned_baseline(args, exp_id, f"serve {args.pattern}")
        if pin is None:
            return 2
    recorder = None
    server = None
    scope: Any = nullcontext()
    if args.scrape_out:
        from repro.obs import TraceRecorder, use
        from repro.obs.live import MetricsServer

        recorder = TraceRecorder(max_events=args.max_events)
        server = MetricsServer(metrics=recorder.metrics, port=args.port).start()
        print(f"serving live metrics at {server.url}", file=sys.stderr)
        scope = use(recorder)
    try:
        with scope:
            report = run_serve(
                args.pattern,
                backend=args.backend,
                cores=args.cores,
                requests=args.requests,
                seed=args.seed,
                base_rate=args.rate,
                time_scale=args.time_scale,
                trace=recorder,
                rtrace=rtrace_on,
                objectives=objectives,
                slo_window=args.slo_window,
            )
        if args.scrape_out:
            _save_scrape(server.url, args.scrape_out)
    finally:
        if server is not None:
            server.stop()
    print(report.table().render())
    if report.stages is not None:
        print()
        print(report.stage_table().render())
        dom = report.dominant_stage()
        if dom is not None:
            print(
                f"dominant stage: {dom.stage} "
                f"(p99 {dom.p99:.6f}s, {dom.share:.1%} of traced time)"
            )
    if args.waterfall and report.stages is not None:
        from repro.obs import render_waterfall

        wf_path = Path(args.waterfall)
        wf_path.parent.mkdir(parents=True, exist_ok=True)
        wf_path.write_text(
            render_waterfall(
                report.stages,
                title=f"serve {args.pattern} on {args.backend} — slowest requests",
            )
        )
        print(f"waterfall -> {wf_path}", file=sys.stderr)
    if slo_on and report.slo is not None:
        print()
        print(report.slo.table().render())
    rc = 0
    comparison = None
    if pin is not None:
        comparison = compare_to_baseline(
            exp_id, report.metrics(), pin.metrics, threshold=args.threshold
        )
        print()
        print(comparison.render())
        if not comparison.ok:
            rc = 1
    if slo_on and report.slo is not None:
        if report.slo.passed:
            print("SLO gate passed", file=sys.stderr)
        else:
            failed = [r.objective.label for r in report.slo.results if not r.passed]
            print(f"SLO gate FAILED: {', '.join(failed)}", file=sys.stderr)
            if rc == 0:
                rc = 3
    _record_run(
        args,
        _gate_record(report.run_record(exp_id), comparison),
        virtual=get_backend(args.backend).capabilities.virtual_time,
        at=report.duration,
    )
    return rc


def _cmd_webdemo(args: argparse.Namespace) -> int:
    from repro.memmodel import write_demo_site

    paths = write_demo_site(args.out_dir)
    print(f"wrote {len(paths)} pages to {args.out_dir}/")
    return 0


def _cmd_topics(_args: argparse.Namespace) -> int:
    from repro.course import TOPICS

    for topic in TOPICS:
        print(topic)
        print(f"    implemented in {topic.module}; bench: {topic.bench}")
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    """One row per experiment with stored history: counts, kinds, flags.

    ``--scrape-out`` additionally exports the fleet-level store gauges
    through a live Prometheus endpoint and saves one scrape (taken over
    HTTP), proving the ``repro_store_*`` series are visible.
    """
    from repro.obs.store import RunStore
    from repro.util.tables import Table

    store = RunStore(args.store)
    table = Table(
        ["experiment", "runs", "kinds", "regressed", "last revision"],
        title=f"run history ({store.root}, {len(store)} record(s))",
    )
    for exp_id in store.experiments():
        recs = store.query(exp=exp_id)
        kinds = sorted({r.kind for r in recs})
        table.add_row(
            [
                exp_id,
                len(recs),
                ",".join(kinds),
                sum(1 for r in recs if r.regressed),
                recs[-1].revision,
            ]
        )
    print(table.render())
    if args.scrape_out:
        from repro.obs import Metrics
        from repro.obs.live import MetricsServer
        from repro.obs.store import emit_metrics

        metrics = Metrics()
        emit_metrics(store, metrics)
        server = MetricsServer(metrics=metrics, port=args.port).start()
        try:
            _save_scrape(server.url, args.scrape_out)
        finally:
            server.stop()
    return 0


def _cmd_runs_query(args: argparse.Namespace) -> int:
    """Filter stored records; with ``--metric`` reduce them instead.

    The filter form prints one row per matching record (newest last);
    the aggregate form applies a reducer (min/max/mean/p50/p99) over one
    metric, optionally grouped by experiment/kind/backend/revision —
    "when did pool throughput last regress" is
    ``runs query --verdict regression``.
    """
    from repro.obs.store import RunStore, aggregate
    from repro.util.tables import Table

    store = RunStore(args.store)
    try:
        records = store.query(
            exp=args.experiment,
            kind=args.kind,
            backend=args.backend,
            tag=args.tag,
            verdict=args.verdict,
            since=args.since,
            limit=args.limit,
        )
    except ValueError as exc:
        return _usage_error(exc)
    if not records:
        print("no matching records", file=sys.stderr)
        return 0
    if args.metric:
        try:
            rows = aggregate(records, args.metric, reduce=args.reduce, group_by=args.group_by)
        except ValueError as exc:
            return _usage_error(exc)
        table = Table(
            [args.group_by or "group", "n", args.reduce],
            title=f"{args.metric} ({len(records)} record(s))",
            precision=6,
        )
        for agg in rows:
            table.add_row([agg.group, agg.n, agg.value])
        print(table.render())
        return 0
    table = Table(
        ["experiment", "kind", "backend", "seed", "timestamp", "revision", "metrics", "verdicts"],
        title=f"{len(records)} record(s)",
    )
    for rec in records:
        table.add_row(
            [
                rec.exp_id,
                rec.kind,
                rec.backend or "-",
                rec.seed if rec.seed is not None else "-",
                f"{rec.timestamp:.3f}",
                rec.revision,
                len(rec.metrics),
                ",".join(f"{k}={v}" for k, v in rec.verdicts.items()) or "-",
            ]
        )
    print(table.render())
    return 0


def _cmd_runs_timeline(args: argparse.Namespace) -> int:
    """Per-metric trajectories for one experiment, change-points flagged.

    Exit codes: 0 = no change-points, 1 = at least one metric moved the
    bad way (direction-aware, the regression was *introduced* by a
    flagged run), 2 = a ``--threshold`` or ``--limit`` the library
    rejects, or no stored history for the experiment.  ``-o``
    writes the self-contained HTML timeline (sparkline lanes, no JS).
    """
    from repro.obs.store import RunStore
    from repro.obs.timeline import (
        build_timeline,
        detect_changepoints,
        render_timeline_html,
        render_timeline_text,
    )

    try:
        detect_changepoints(args.experiment, (), threshold=args.threshold)
        store = RunStore(args.store)
        records = store.query(exp=args.experiment, since=args.since, limit=args.limit)
    except ValueError as exc:
        return _usage_error(exc)
    if not records:
        known = ", ".join(store.experiments()) or "none"
        print(
            f"no stored runs for {args.experiment!r} in {store.root} (known: {known})",
            file=sys.stderr,
        )
        return 2
    metrics = tuple(m.strip() for m in args.metric.split(",") if m.strip()) if args.metric else None
    series = build_timeline(records, metrics=metrics, threshold=args.threshold)
    if not series:
        print(
            f"{len(records)} record(s) but no metric observed twice; nothing to plot",
            file=sys.stderr,
        )
        return 2
    print(render_timeline_text(args.experiment, series))
    if args.output:
        out_path = Path(args.output)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            render_timeline_html(args.experiment, series, threshold=args.threshold)
        )
        print(f"HTML timeline -> {out_path}", file=sys.stderr)
    n_flags = sum(len(s.changepoints) for s in series)
    if n_flags:
        print(f"{n_flags} change-point(s) detected", file=sys.stderr)
        return 1
    return 0


def _cmd_runs_compact(args: argparse.Namespace) -> int:
    """Rewrite shards time-ordered with duplicate/foreign lines dropped."""
    from repro.obs.store import RunStore

    store = RunStore(args.store)
    removed = store.compact()
    print(
        f"compacted {store.root}: {len(store)} record(s) kept, {removed} line(s) removed",
        file=sys.stderr,
    )
    return 0


def _experiment_command(
    sub: argparse._SubParsersAction,
    name: str,
    fn: Any,
    help_text: str,
    max_events: bool = False,
    backend: bool = False,
) -> argparse.ArgumentParser:
    """Register a subcommand that operates on one experiment.

    Every such command shares the ``experiment`` positional (resolved
    through :func:`_require_experiment`) and, for the traced ones, the
    ``--max-events`` cap and the ``--backend``/``--cores`` override
    group — this helper is the single place that boilerplate lives.
    Command-specific flags are added on the returned parser.
    """
    p = sub.add_parser(name, help=help_text)
    p.add_argument("experiment")
    if max_events:
        p.add_argument("--max-events", type=int, default=None, help="cap recorded trace events")
    if backend:
        g = p.add_argument_group(
            "backend selection",
            "redirect the experiment's redirectable executors (inline/threads/processes; "
            "sim keeps its virtual clock)",
        )
        g.add_argument(
            "--backend",
            help="run the experiment's executors on this backend (name or alias; "
            "see repro.executor.available())",
        )
        g.add_argument(
            "--cores", type=int, help="override the worker count of redirected executors"
        )
    p.set_defaults(fn=fn)
    return p


def _record_flags(p: argparse.ArgumentParser) -> None:
    """The shared run-history flags on every auto-recording command."""
    g = p.add_argument_group(
        "run history",
        "successful runs are appended to the run-history store "
        "(query with 'python -m repro runs ...')",
    )
    _store_flag(g)
    g.add_argument(
        "--no-record", action="store_true", help="do not record this run into the store"
    )


def _store_flag(p: argparse._ActionsContainer) -> None:
    """The shared store-location flag on every command that reads or
    writes run history (baselines included)."""
    p.add_argument(
        "--store", default=None,
        help="run-history store directory (default: $REPRO_RUNS_STORE or benchmarks/runs)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="reproduction of the SoftEng 751 teaching stack (IPDPSW 2014)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments").set_defaults(fn=_cmd_list)

    run = sub.add_parser("run", help="run one experiment (or 'all') and print its tables")
    run.add_argument("experiment")
    run.add_argument("-o", "--output", help="directory to also write reports into")
    run.set_defaults(fn=_cmd_run)

    analyze = _experiment_command(
        sub, "analyze", _cmd_analyze,
        "run one experiment traced: work/span analytics, HTML report and Chrome trace",
        max_events=True,
        backend=True,
    )
    analyze.add_argument(
        "-o", "--output", help="report directory (default: benchmarks/reports)"
    )
    _record_flags(analyze)

    compare = _experiment_command(
        sub, "compare", _cmd_compare,
        "re-run one experiment and gate it against its pinned baseline",
    )
    compare.add_argument(
        "--update-baseline", action="store_true",
        help="pin this run's metrics as the new baseline instead of gating",
    )
    compare.add_argument(
        "--threshold", type=float, default=0.25, help="relative drift tolerated (default: 0.25)"
    )
    _record_flags(compare)

    chaos = _experiment_command(
        sub, "chaos", _cmd_chaos,
        "run one experiment under a seeded fault plan and summarise recovery",
        max_events=True,
        backend=True,
    )
    chaos.add_argument("--seed", type=int, default=0, help="fault-plan seed (default: 0)")
    chaos.add_argument(
        "--failure-rate", type=float, default=0.2,
        help="per-attempt call failure probability (default: 0.2)",
    )
    chaos.add_argument(
        "--task-failure-rate", type=float, default=0.0,
        help="executor task-body failure probability (default: 0, opt in)",
    )
    chaos.add_argument(
        "--latency-spike-rate", type=float, default=0.1,
        help="latency spike probability (default: 0.1)",
    )
    chaos.add_argument(
        "--expect",
        help="comma-separated lifecycle kinds (cancel,retry,fault,drain) that must "
        "appear in the trace; exit 1 otherwise",
    )
    _record_flags(chaos)

    flame = _experiment_command(
        sub, "flame", _cmd_flame,
        "run one experiment under the sampling profiler and write a flamegraph",
        max_events=True,
        backend=True,
    )
    flame.add_argument(
        "-o", "--output", help="report directory (default: benchmarks/reports)"
    )
    flame.add_argument(
        "--interval", type=float, default=0.002,
        help="seconds between stack samples (default: 0.002)",
    )
    flame.add_argument(
        "--repeat", type=int, default=1,
        help="run the experiment N times so short runs accumulate samples (default: 1)",
    )
    flame.add_argument(
        "--serve", action="store_true", help="serve /metrics + /healthz for the duration of the run"
    )
    flame.add_argument("--port", type=int, default=0, help="metrics port (default: ephemeral)")
    flame.add_argument(
        "--scrape-out", help="save one /metrics scrape (taken over HTTP) to this path"
    )

    serve = sub.add_parser(
        "serve",
        help="replay a seeded arrival trace through the serving gateway "
        "(admission control, micro-batching, memoizing cache)",
    )
    serve.add_argument(
        "pattern", choices=("steady", "bursty", "diurnal", "overload"),
        help="traffic shape of the seeded arrival trace",
    )
    serve.add_argument(
        "--backend", default="sim",
        help="executor kind to serve on (default: sim — the deterministic golden run)",
    )
    serve.add_argument("--cores", type=int, default=4, help="worker/core count (default: 4)")
    serve.add_argument(
        "--requests", type=int, default=100_000,
        help="arrivals to generate (default: 100000)",
    )
    serve.add_argument("--seed", type=int, default=2014, help="trace seed (default: 2014)")
    serve.add_argument(
        "--rate", type=float, default=2_000.0,
        help="base offered rate in requests/s (default: 2000)",
    )
    serve.add_argument(
        "--time-scale", type=float, default=0.0,
        help="real backends: scale factor on inter-arrival sleeps "
        "(0 = replay as fast as possible; default: 0)",
    )
    serve.add_argument(
        "--update-baseline", action="store_true",
        help="pin this run's metrics as the new serving baseline",
    )
    serve.add_argument(
        "--compare", action="store_true",
        help="gate this run against the pinned serving baseline (exit 1 on regression)",
    )
    serve.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative drift tolerated by --compare (default: 0.25)",
    )
    serve.add_argument(
        "--scrape-out",
        help="run traced with a live /metrics endpoint and save one scrape to this path",
    )
    serve.add_argument("--port", type=int, default=0, help="metrics port (default: ephemeral)")
    serve.add_argument("--max-events", type=int, default=None, help="cap recorded trace events")
    slo_group = serve.add_argument_group(
        "request tracing + SLOs",
        "per-request stage tracing (repro.obs.rtrace) and declarative objectives "
        "(repro.obs.slo); exit 3 when a declared SLO is violated",
    )
    slo_group.add_argument(
        "--slo", action="store_true",
        help="trace requests, print the latency decomposition and the SLO verdict",
    )
    slo_group.add_argument(
        "--objectives",
        help="comma-separated objectives like 'p99<=0.25,shed_rate<=0.05' "
        "(implies --slo; default: the built-in objective set)",
    )
    slo_group.add_argument(
        "--slo-window", type=float, default=1.0,
        help="burn-rate window width in (virtual) seconds (default: 1.0)",
    )
    slo_group.add_argument(
        "--waterfall",
        help="write the slowest-requests waterfall HTML to this path (implies tracing)",
    )
    _record_flags(serve)
    # --backend here names the executor to build, not the redirect
    # override — sim is a first-class (and the default) choice.
    serve.set_defaults(fn=_cmd_serve, direct_backend=True)

    runs = sub.add_parser(
        "runs",
        help="query the run-history store: cross-run trajectories, change-points, aggregates",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser(
        "list", help="one row per experiment with stored history"
    )
    _store_flag(runs_list)
    runs_list.add_argument(
        "--scrape-out",
        help="export repro_store_* gauges through a live /metrics endpoint and "
        "save one scrape to this path",
    )
    runs_list.add_argument("--port", type=int, default=0, help="metrics port (default: ephemeral)")
    runs_list.set_defaults(fn=_cmd_runs_list, direct_backend=True)

    runs_query = runs_sub.add_parser(
        "query", help="filter stored run records, or reduce one metric over them"
    )
    runs_query.add_argument(
        "experiment", nargs="?", default=None, help="restrict to one experiment id"
    )
    _store_flag(runs_query)
    runs_query.add_argument(
        "--kind",
        choices=("analyze", "compare", "serve", "chaos", "bench"),
        help="restrict to one producing command",
    )
    runs_query.add_argument("--backend", help="restrict to one executor backend kind")
    runs_query.add_argument("--tag", help="restrict to records carrying this tag")
    runs_query.add_argument(
        "--verdict",
        help="restrict to records where some gate reached this verdict "
        "(e.g. regression, violation, pass)",
    )
    runs_query.add_argument(
        "--since", type=float, default=None, help="inclusive timestamp lower bound"
    )
    runs_query.add_argument(
        "--limit", type=int, default=None, help="keep only the newest N matches"
    )
    agg = runs_query.add_argument_group(
        "aggregation", "reduce one metric over the matching records instead of listing them"
    )
    agg.add_argument("--metric", help="metric name to reduce")
    agg.add_argument(
        "--reduce", default="mean", choices=("min", "max", "mean", "p50", "p99"),
        help="reducer to apply (default: mean)",
    )
    agg.add_argument(
        "--group-by", choices=("exp", "kind", "backend", "revision"),
        help="one aggregate row per group instead of one overall",
    )
    runs_query.set_defaults(fn=_cmd_runs_query, direct_backend=True)

    runs_timeline = runs_sub.add_parser(
        "timeline",
        help="per-metric trajectory of one experiment with direction-aware "
        "change-point detection (exit 1 when a metric regressed)",
    )
    runs_timeline.add_argument("experiment")
    _store_flag(runs_timeline)
    runs_timeline.add_argument(
        "-o", "--output", help="write the self-contained HTML timeline to this path"
    )
    runs_timeline.add_argument(
        "--metric", help="comma-separated metric names (default: every metric observed twice)"
    )
    runs_timeline.add_argument(
        "--threshold", type=float, default=0.25,
        help="relative bad-direction move that flags a change-point (default: 0.25)",
    )
    runs_timeline.add_argument(
        "--since", type=float, default=None, help="inclusive timestamp lower bound"
    )
    runs_timeline.add_argument(
        "--limit", type=int, default=None, help="keep only the newest N records"
    )
    runs_timeline.set_defaults(fn=_cmd_runs_timeline, direct_backend=True)

    runs_compact = runs_sub.add_parser(
        "compact", help="rewrite shards time-ordered, dropping duplicate and foreign lines"
    )
    _store_flag(runs_compact)
    runs_compact.set_defaults(fn=_cmd_runs_compact, direct_backend=True)

    web = sub.add_parser("webdemo", help="generate the interactive race-condition pages")
    web.add_argument("out_dir")
    web.set_defaults(fn=_cmd_webdemo)

    sub.add_parser("topics", help="print the ten project topics").set_defaults(fn=_cmd_topics)

    args = parser.parse_args(argv)
    kind, cores = getattr(args, "backend", None), getattr(args, "cores", None)
    if getattr(args, "direct_backend", False) or (kind is None and cores is None):
        # serve interprets --backend itself (any registered kind,
        # including the virtual-time ones the override rejects)
        return args.fn(args)
    # --backend/--cores redirect every redirectable create() call the
    # experiment makes (inline, threads, processes; sim keeps its virtual
    # clock).  Probe the override once so a bad value (an unknown kind, a
    # non-redirectable one like sim, no workers) exits 2 with the
    # registry's own message instead of a traceback mid-run.
    from repro.executor import backend_override

    try:
        with backend_override(kind=kind, cores=cores):
            pass
    except ValueError as exc:
        return _usage_error(exc)
    with backend_override(kind=kind, cores=cores):
        return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
