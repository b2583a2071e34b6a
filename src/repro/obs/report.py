"""Render a :class:`~repro.obs.analyze.TraceAnalysis` for humans.

Two renderers share one data source:

* :func:`render_text` — a deterministic terminal summary built on
  :class:`repro.util.tables.Table`, the same formatting path the bench
  reports use, so ``python -m repro analyze`` output diffs cleanly and
  can be golden-tested;
* :func:`render_html` — a self-contained HTML page (inline CSS + SVG,
  no JavaScript, no external assets) with stat tiles, a Gantt timeline
  of the primary group's task spans per worker lane, per-worker
  utilization bars, and the scheduler-health tables.  It works offline
  and follows ``prefers-color-scheme`` for dark mode.

Both renderers are pure functions of the analysis: same input, same
bytes out — the property the golden tests and CI artifacts rely on.
"""

from __future__ import annotations

import html
from typing import Iterable, Sequence

from repro.obs.analyze import GroupAnalysis, TraceAnalysis, decompose_stages
from repro.obs.rtrace import RequestSummary
from repro.util.tables import Table

__all__ = ["render_text", "render_html", "render_waterfall"]

#: Gantt charts above this many spans draw only the longest ones and say so.
MAX_GANTT_SPANS = 600


def _fmt_seconds(value: float) -> str:
    """Adaptive time formatting for labels: ``1.5 s``, ``230 µs``, …"""
    magnitude = abs(value)
    if magnitude >= 1.0 or magnitude == 0.0:
        return f"{value:.3g} s"
    if magnitude >= 1e-3:
        return f"{value * 1e3:.3g} ms"
    if magnitude >= 1e-6:
        return f"{value * 1e6:.3g} µs"
    return f"{value * 1e9:.3g} ns"


# -- terminal ----------------------------------------------------------------


def _groups_table(groups: Sequence[GroupAnalysis]) -> Table:
    """The per-group work/span table shared by both renderers."""
    t = Table(
        ["group", "label", "cores", "tasks", "work", "span", "parallelism", "makespan", "util", "source"],
        title="work/span per group",
        precision=6,
    )
    for g in groups:
        t.add_row(
            [
                g.group,
                g.label,
                g.cores if g.cores is not None else "-",
                g.tasks,
                g.work,
                g.span,
                round(g.parallelism, 3),
                g.makespan,
                round(g.utilization, 3),
                "exact" if g.exact else "reconstructed",
            ]
        )
    return t


def render_text(analysis: TraceAnalysis) -> str:
    """Deterministic plain-text summary of a trace analysis.

    Sections appear only when the trace produced them (no empty lock
    table for a lock-free run), so small traces stay small; ordering and
    formatting are fixed so the output is golden-testable.
    """
    out: list[str] = []
    total_tasks = sum(g.tasks for g in analysis.groups)
    out.append(
        f"trace analysis: {analysis.n_events} events, "
        f"{len(analysis.groups)} group(s), {total_tasks} task(s)"
    )
    if analysis.unclosed_spans:
        out.append(f"warning: {analysis.unclosed_spans} span(s) never closed (truncated trace?)")

    p = analysis.primary
    if p is not None:
        out.append(
            f"primary group {p.group} ({p.label}): "
            f"work {p.work:.6f}  span {p.span:.6f}  "
            f"parallelism {p.parallelism:.3f}  utilization {p.utilization:.3f}"
        )
    out.append("")

    if analysis.groups:
        out.append(_groups_table(analysis.groups).render())
        out.append("")

    if p is not None and p.workers:
        t = Table(["worker", "busy", "tasks", "utilization"], title=f"workers (group {p.group})", precision=6)
        for w in p.workers:
            t.add_row([w.worker, w.busy, w.tasks, round(w.utilization, 3)])
        out.append(t.render())
        out.append("")

    health = f"scheduler: steals {analysis.steals}"
    if analysis.steal_attempts is not None:
        rate = analysis.steal_success_rate
        health += f" / {analysis.steal_attempts} attempts"
        if rate is not None:
            health += f" ({rate:.1%} success)"
    health += f", helps {analysis.helps}"
    out.append(health)
    out.append("")

    if analysis.cancelled or analysis.retries or analysis.faults or analysis.drained:
        out.append(
            f"resilience: cancelled {analysis.cancelled}, retries {analysis.retries}, "
            f"faults injected {analysis.faults}, drained {analysis.drained}"
        )
        out.append("")

    if analysis.locks:
        t = Table(
            ["lock", "acquisitions", "mean wait", "max wait", "total wait"],
            title="critical-section contention",
            precision=6,
        )
        for c in analysis.locks:
            t.add_row([c.name, c.acquisitions, c.mean_wait, c.max_wait, c.total_wait])
        out.append(t.render())
        out.append("")

    if analysis.barriers:
        t = Table(
            ["barrier", "passes", "mean wait", "max wait", "total wait"],
            title="barrier waits",
            precision=6,
        )
        for b in analysis.barriers:
            t.add_row([b.key, b.passes, b.mean_wait, b.max_wait, b.total_wait])
        out.append(t.render())
        out.append("")

    if analysis.edt_latency is not None:
        lat = analysis.edt_latency
        t = Table(["n", "mean", "p50", "p90", "p99", "max"], title="EDT queue latency (s)", precision=6)
        t.add_row([lat.n, lat.mean, lat.p50, lat.p90, lat.p99, lat.maximum])
        out.append(t.render())
        out.append("")

    if analysis.fit is not None:
        fit = analysis.fit
        t = Table(["cores", "speedup"], title="measured speedup", precision=3)
        for c, s in zip(fit.cores, fit.speedups):
            t.add_row([c, s])
        out.append(t.render())
        out.append(
            f"amdahl serial fraction {fit.amdahl_fraction:.4f} (rmse {fit.amdahl_rmse:.4f}); "
            f"gustafson {fit.gustafson_fraction:.4f} (rmse {fit.gustafson_rmse:.4f}); "
            f"preferred {fit.preferred}"
        )
        if fit.serial_fraction is not None:
            sf = fit.serial_fraction
            out.append(
                f"karp-flatt serial fraction {sf.mean:.4f} ± {sf.ci95_halfwidth:.4f} "
                f"(95% CI, n={sf.n})"
            )
        out.append("")

    return "\n".join(out).rstrip() + "\n"


# -- HTML --------------------------------------------------------------------

_CSS = """\
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --gridline: #e1e0d9;
  --baseline: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --gridline: #2c2c2a;
    --baseline: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --gridline: #2c2c2a;
  --baseline: #383835;
  --border: rgba(255, 255, 255, 0.10);
  --series-1: #3987e5;
}
.viz-root {
  margin: 0;
  background: var(--page);
  color: var(--text-primary);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px;
  line-height: 1.5;
}
main { max-width: 1040px; margin: 0 auto; padding: 24px 20px 48px; }
h1 { font-size: 22px; font-weight: 650; margin: 0 0 2px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 10px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.note { color: var(--text-muted); font-size: 12px; margin: 6px 0 0; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 10px 16px; min-width: 118px;
}
.tile .v { font-size: 22px; font-weight: 650; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px;
  padding: 14px 16px; overflow-x: auto;
}
svg text { font-family: inherit; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 5px 12px 5px 0; border-bottom: 1px solid var(--gridline); }
th { color: var(--text-secondary); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
tr:last-child td { border-bottom: none; }
.bar-row { display: grid; grid-template-columns: 64px 1fr 86px; gap: 10px; align-items: center; margin: 5px 0; }
.bar-label { color: var(--text-secondary); font-size: 12px; text-align: right; }
.bar-track { background: var(--gridline); border-radius: 4px; height: 10px; position: relative; }
.bar-fill { background: var(--series-1); border-radius: 4px; height: 10px; min-width: 1px; }
.bar-value { color: var(--text-secondary); font-size: 12px; font-variant-numeric: tabular-nums; }
details summary { cursor: pointer; color: var(--text-secondary); font-weight: 600; font-size: 15px; margin: 28px 0 10px; }
"""


def _page(title: str, subtitle: str, sections: Sequence[str]) -> str:
    """The self-contained page every HTML renderer shares: inline
    stylesheet, heading and subtitle, then ``sections`` in order."""
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1"/>\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>\n{_CSS}</style>\n</head>\n"
        '<body class="viz-root">\n<main>\n'
        f"<h1>{html.escape(title)}</h1>\n"
        f'<p class="sub">{html.escape(subtitle)}</p>\n'
        + "\n".join(sections)
        + "\n</main>\n</body>\n</html>\n"
    )


def _tile(value: str, label: str) -> str:
    """One stat tile (hero number + caption)."""
    return (
        f'<div class="tile"><div class="v">{html.escape(value)}</div>'
        f'<div class="k">{html.escape(label)}</div></div>'
    )


def _html_table(headers: Sequence[str], rows: Iterable[Sequence[object]], numeric_from: int = 1) -> str:
    """An HTML table; columns from ``numeric_from`` on are right-aligned."""

    def cell(tag: str, i: int, value: object) -> str:
        cls = ' class="num"' if i >= numeric_from else ""
        return f"<{tag}{cls}>{html.escape(str(value))}</{tag}>"

    head = "".join(cell("th", i, h) for i, h in enumerate(headers))
    body = "".join(
        "<tr>" + "".join(cell("td", i, v) for i, v in enumerate(row)) + "</tr>" for row in rows
    )
    return f'<div class="panel"><table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table></div>'


def _gantt_svg(group: GroupAnalysis) -> str:
    """Inline SVG Gantt of one group's spans, one lane per worker.

    Bars are thin rounded rects in the single series hue; identity and
    exact times ride in ``<title>`` tooltips, text stays in ink tokens.
    Spans beyond :data:`MAX_GANTT_SPANS` are dropped longest-first with
    a visible truncation note.
    """
    spans = list(group.spans)
    if not spans:
        return '<p class="note">no closed task spans in this group.</p>'
    truncated = len(spans) > MAX_GANTT_SPANS
    if truncated:
        spans = sorted(spans, key=lambda s: -s.duration)[:MAX_GANTT_SPANS]
    t0 = min(s.start for s in spans)
    t1 = max(s.end for s in spans)
    extent = max(t1 - t0, 1e-12)

    lanes = sorted({(-1 if s.worker is None else s.worker) for s in spans})
    lane_y = {w: i for i, w in enumerate(lanes)}
    left, right, top, lane_h, bar_h = 64, 16, 20, 22, 13
    plot_w = 880
    width = left + plot_w + right
    height = top + lane_h * len(lanes) + 26

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'aria-label="Gantt timeline of task spans per worker" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    # Lane labels and hairline separators.
    for w, i in lane_y.items():
        y = top + i * lane_h
        label = "?" if w < 0 else f"w{w}"
        parts.append(
            f'<text x="{left - 8}" y="{y + lane_h / 2 + 4:.1f}" text-anchor="end" '
            f'font-size="11" fill="var(--text-secondary)">{html.escape(label)}</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y + lane_h:.1f}" x2="{left + plot_w}" y2="{y + lane_h:.1f}" '
            f'stroke="var(--gridline)" stroke-width="1"/>'
        )
    # Time axis: baseline plus five labelled ticks.
    axis_y = top + lane_h * len(lanes)
    parts.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" y2="{axis_y}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
    )
    for k in range(5):
        frac = k / 4
        x = left + plot_w * frac
        label = _fmt_seconds(extent * frac)
        anchor = "start" if k == 0 else ("end" if k == 4 else "middle")
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 16}" text-anchor="{anchor}" '
            f'font-size="11" fill="var(--text-muted)">{html.escape(label)}</text>'
        )
    # The spans themselves.
    for s in spans:
        w = -1 if s.worker is None else s.worker
        x = left + (s.start - t0) / extent * plot_w
        bw = max((s.end - s.start) / extent * plot_w, 1.0)
        y = top + lane_y[w] * lane_h + (lane_h - bar_h) / 2
        tip = (
            f"{s.name} (task {s.task_id})\n"
            f"{_fmt_seconds(s.start - t0)} → {_fmt_seconds(s.end - t0)} "
            f"({_fmt_seconds(s.duration)})"
        )
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.1f}" width="{bw:.2f}" height="{bar_h}" rx="2" '
            f'fill="var(--series-1)"><title>{html.escape(tip)}</title></rect>'
        )
    parts.append("</svg>")
    note = ""
    if truncated:
        note = (
            f'<p class="note">showing the {MAX_GANTT_SPANS} longest of '
            f"{group.tasks} task spans (shorter spans omitted).</p>"
        )
    return f'<div class="panel">{"".join(parts)}</div>{note}'


def _utilization_bars(group: GroupAnalysis) -> str:
    """Per-worker utilization as labelled horizontal bars."""
    if not group.workers:
        return '<p class="note">no per-worker spans recorded for this group.</p>'
    rows = []
    for w in group.workers:
        pct = max(0.0, min(1.0, w.utilization))
        rows.append(
            '<div class="bar-row">'
            f'<span class="bar-label">w{w.worker}</span>'
            f'<div class="bar-track"><div class="bar-fill" style="width:{pct * 100:.1f}%"></div></div>'
            f'<span class="bar-value">{pct:.1%} · {w.tasks} tasks</span>'
            "</div>"
        )
    return f'<div class="panel">{"".join(rows)}</div>'


def render_html(analysis: TraceAnalysis, title: str = "trace analysis") -> str:
    """Self-contained HTML report for a trace analysis.

    Inline CSS and SVG only — no JavaScript, no external fonts or
    libraries — so the file opens offline and survives artifact stores.
    Light/dark follow ``prefers-color-scheme`` via CSS custom
    properties; a ``data-theme`` attribute on ``<html>`` overrides.
    """
    p = analysis.primary
    total_tasks = sum(g.tasks for g in analysis.groups)

    tiles = [_tile(str(total_tasks), "tasks"), _tile(str(analysis.n_events), "trace events")]
    if p is not None:
        tiles = [
            _tile(_fmt_seconds(p.work), "work T1"),
            _tile(_fmt_seconds(p.span), "span T∞"),
            _tile(f"{p.parallelism:.2f}×", "parallelism T1/T∞"),
            _tile(f"{p.utilization:.1%}", "utilization"),
            *tiles,
        ]
    if analysis.steals:
        tiles.append(_tile(str(analysis.steals), "steals"))
    if analysis.fit is not None:
        tiles.append(_tile(f"{analysis.fit.amdahl_fraction:.3f}", "amdahl serial fraction"))

    sections: list[str] = [f'<section class="tiles">{"".join(tiles)}</section>']

    if p is not None:
        source = "exact (simulated schedule)" if p.exact else "reconstructed from spans"
        sections.append(
            f"<h2>Task timeline — group {p.group}: {html.escape(p.label)}</h2>"
            f'<p class="note">{html.escape(source)}</p>'
            + _gantt_svg(p)
        )
        sections.append(f"<h2>Worker utilization — group {p.group}</h2>" + _utilization_bars(p))

    if analysis.groups:
        sections.append(
            "<h2>Work/span per group</h2>"
            + _html_table(
                ["group", "label", "cores", "tasks", "work", "span", "parallelism", "makespan",
                 "utilization", "source"],
                [
                    [g.group, g.label, g.cores if g.cores is not None else "-", g.tasks,
                     _fmt_seconds(g.work), _fmt_seconds(g.span), f"{g.parallelism:.2f}",
                     _fmt_seconds(g.makespan), f"{g.utilization:.1%}",
                     "exact" if g.exact else "reconstructed"]
                    for g in analysis.groups
                ],
                numeric_from=2,
            )
        )

    health_rows = [["steals", analysis.steals]]
    if analysis.steal_attempts is not None:
        health_rows.append(["steal attempts", analysis.steal_attempts])
        rate = analysis.steal_success_rate
        if rate is not None:
            health_rows.append(["steal success rate", f"{rate:.1%}"])
    health_rows.append(["blocked-join helps", analysis.helps])
    if analysis.unclosed_spans:
        health_rows.append(["unclosed spans", analysis.unclosed_spans])
    sections.append("<h2>Scheduler health</h2>" + _html_table(["metric", "value"], health_rows))

    if analysis.locks:
        sections.append(
            "<h2>Critical-section contention</h2>"
            + _html_table(
                ["lock", "acquisitions", "mean wait", "max wait", "total wait"],
                [
                    [c.name, c.acquisitions, _fmt_seconds(c.mean_wait), _fmt_seconds(c.max_wait),
                     _fmt_seconds(c.total_wait)]
                    for c in analysis.locks
                ],
            )
        )
    if analysis.barriers:
        sections.append(
            "<h2>Barrier waits</h2>"
            + _html_table(
                ["barrier", "passes", "mean wait", "max wait", "total wait"],
                [
                    [b.key, b.passes, _fmt_seconds(b.mean_wait), _fmt_seconds(b.max_wait),
                     _fmt_seconds(b.total_wait)]
                    for b in analysis.barriers
                ],
            )
        )
    if analysis.edt_latency is not None:
        lat = analysis.edt_latency
        sections.append(
            "<h2>EDT queue latency</h2>"
            + _html_table(
                ["n", "mean", "p50", "p90", "p99", "max"],
                [[lat.n, _fmt_seconds(lat.mean), _fmt_seconds(lat.p50), _fmt_seconds(lat.p90),
                  _fmt_seconds(lat.p99), _fmt_seconds(lat.maximum)]],
                numeric_from=0,
            )
        )

    if analysis.fit is not None:
        fit = analysis.fit
        fit_rows = [[c, f"{s:.3f}"] for c, s in zip(fit.cores, fit.speedups)]
        note = (
            f"amdahl serial fraction {fit.amdahl_fraction:.4f} (rmse {fit.amdahl_rmse:.4f}) · "
            f"gustafson {fit.gustafson_fraction:.4f} (rmse {fit.gustafson_rmse:.4f}) · "
            f"preferred: {fit.preferred}"
        )
        if fit.serial_fraction is not None:
            sf = fit.serial_fraction
            note += f" · karp–flatt {sf.mean:.4f} ± {sf.ci95_halfwidth:.4f} (95% CI, n={sf.n})"
        sections.append(
            "<h2>Speedup-model fit</h2>"
            + _html_table(["cores", "speedup"], fit_rows, numeric_from=0)
            + f'<p class="note">{html.escape(note)}</p>'
        )

    if analysis.metrics:
        metrics_table = _html_table(
            ["metric", "value"],
            [[k, f"{v:g}"] for k, v in sorted(analysis.metrics.items())],
        )
        sections.append(
            f"<details><summary>Metrics snapshot ({len(analysis.metrics)})</summary>"
            f"{metrics_table}</details>"
        )

    subtitle = f"{analysis.n_events} trace events · {len(analysis.groups)} group(s) · {total_tasks} task(s)"
    return _page(title, subtitle, sections)


# -- request waterfall -------------------------------------------------------

#: fixed per-stage palette: hot-path stages get the saturated hues,
#: bookkeeping stages stay muted (keys follow ``repro.obs.rtrace.STAGES``)
STAGE_COLORS = {
    "admit": "#8a8a85",
    "cache": "#caa53d",
    "batch": "#7a63c9",
    "queue": "#d0712e",
    "execute": "#2a78d6",
    "retry": "#c94f4f",
    "resolve": "#4f9c6b",
}


def _waterfall_svg(summary: RequestSummary) -> str:
    """Stacked per-stage bars for the N slowest requests, slowest first.

    Each lane is one request; segment widths are the stage durations from
    its mark chain, so lanes visually telescope to the request's reported
    latency.  Identity and exact durations ride in ``<title>`` tooltips.
    """
    exemplars = summary.exemplars
    if not exemplars:
        return '<p class="note">no finished request traces to draw.</p>'
    extent = max(max(rt.total() for rt in exemplars), 1e-12)

    left, right, top, lane_h, bar_h = 150, 16, 8, 24, 14
    plot_w = 790
    width = left + plot_w + right
    height = top + lane_h * len(exemplars) + 26

    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" role="img" '
        f'aria-label="Per-stage waterfall of the slowest requests" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    for i, rt in enumerate(exemplars):
        y = top + i * lane_h
        by = y + (lane_h - bar_h) / 2
        where = f" pid {rt.pid}" if rt.pid is not None else ""
        label = f"#{rt.request_id} {rt.task} · {_fmt_seconds(rt.total())}"
        parts.append(
            f'<text x="{left - 8}" y="{by + bar_h - 3:.1f}" text-anchor="end" '
            f'font-size="11" fill="var(--text-secondary)">{html.escape(label)}</text>'
        )
        prev = rt.arrival
        for stage, ts in rt.marks:
            dur = ts - prev
            prev = ts
            if dur <= 0.0:
                continue
            x = left + (prev - dur - rt.arrival) / extent * plot_w
            bw = max(dur / extent * plot_w, 0.5)
            color = STAGE_COLORS.get(stage, "var(--series-1)")
            tip = (
                f"request {rt.request_id} ({rt.task}, {rt.status}{where})\n"
                f"{stage}: {_fmt_seconds(dur)} of {_fmt_seconds(rt.total())}"
            )
            parts.append(
                f'<rect x="{x:.2f}" y="{by:.1f}" width="{bw:.2f}" height="{bar_h}" rx="2" '
                f'fill="{color}"><title>{html.escape(tip)}</title></rect>'
            )
    axis_y = top + lane_h * len(exemplars)
    parts.append(
        f'<line x1="{left}" y1="{axis_y}" x2="{left + plot_w}" y2="{axis_y}" '
        f'stroke="var(--baseline)" stroke-width="1"/>'
    )
    for k in range(5):
        frac = k / 4
        x = left + plot_w * frac
        anchor = "start" if k == 0 else ("end" if k == 4 else "middle")
        parts.append(
            f'<text x="{x:.1f}" y="{axis_y + 16}" text-anchor="{anchor}" '
            f'font-size="11" fill="var(--text-muted)">'
            f"{html.escape(_fmt_seconds(extent * frac))}</text>"
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span style="white-space:nowrap"><svg width="10" height="10" '
        f'viewBox="0 0 10 10" xmlns="http://www.w3.org/2000/svg">'
        f'<rect width="10" height="10" rx="2" fill="{color}"/></svg> '
        f"{html.escape(stage)}</span>"
        for stage, color in STAGE_COLORS.items()
        if summary.stage_samples.get(stage)
    )
    return (
        f'<div class="panel">{"".join(parts)}</div>'
        f'<p class="note" style="display:flex;gap:14px;flex-wrap:wrap">{legend}</p>'
    )


def render_waterfall(summary: RequestSummary, title: str = "request waterfall") -> str:
    """Self-contained HTML waterfall of a traced serve run.

    Same contract as :func:`render_html`: inline CSS + SVG, no
    JavaScript, pure function of the summary (same bytes for the same
    traced run, which under sim means byte-stable across invocations).
    Shows stat tiles, the per-stage latency decomposition, and stacked
    per-stage bars for the N slowest requests.
    """
    finished = summary.latencies
    slowest = max(finished) if finished else 0.0
    tiles = [
        _tile(str(summary.requests), "traced requests"),
        _tile(str(summary.completed), "completed"),
        _tile(str(summary.failed), "failed"),
        _tile(str(summary.rejected), "rejected late"),
        _tile(str(len(summary.sheds)), "shed at admission"),
        _tile(f"{summary.cached}", "cache hits"),
        _tile(_fmt_seconds(slowest), "slowest request"),
    ]
    sections = [f'<section class="tiles">{"".join(tiles)}</section>']

    stages = decompose_stages(summary.stage_samples)
    if stages:
        sections.append(
            "<h2>Latency decomposition</h2>"
            + _html_table(
                ["stage", "count", "total", "share", "p50", "p99", "p999"],
                [
                    [s.stage, s.count, _fmt_seconds(s.total), f"{s.share:.1%}",
                     _fmt_seconds(s.p50), _fmt_seconds(s.p99), _fmt_seconds(s.p999)]
                    for s in stages
                ],
            )
        )

    sections.append(
        f"<h2>Slowest {len(summary.exemplars)} requests</h2>" + _waterfall_svg(summary)
    )

    subtitle = (
        f"{summary.requests} traced request(s) · {summary.completed} completed · "
        f"{summary.failed} failed · {summary.rejected} rejected · "
        f"{len(summary.sheds)} shed"
    )
    return _page(title, subtitle, sections)
