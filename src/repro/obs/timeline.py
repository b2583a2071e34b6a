"""Cross-run trajectories over the run-history store.

:mod:`repro.obs.store` remembers every run; this module reads that
history back as **per-metric timelines** for one experiment and asks the
longitudinal question the single-run tools cannot: *which run is the one
where this metric turned bad?*

The change-point detector is deliberately simple and deterministic —
walk the series in time order, keep a running baseline (the median of
the segment since the last change-point), and flag a point when it moves
in the **bad** direction beyond a relative threshold.  Direction comes
from :func:`repro.obs.baseline.metric_direction`, the same token table
the CI regression gate uses: throughput falling is a change-point,
throughput rising is just a better run; latency is the mirror image;
``info`` metrics never flag.  Flagging resets the baseline, so a
regression is attributed to the run that introduced it rather than
re-flagging every run after it.

Two renderers share the computed series: :func:`render_timeline_text`
for the terminal, and :func:`render_timeline_html` — one sparkline lane
per metric in the ``obs.report`` SVG style (no JavaScript, inline CSS,
light/dark via ``prefers-color-scheme``), with change-points drawn as
red markers carrying ``<title>`` tooltips.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.obs.baseline import DEFAULT_THRESHOLD, metric_direction
from repro.obs.report import _html_table, _page, _tile
from repro.obs.store import RunRecord
from repro.util.tables import Table

__all__ = [
    "TimelinePoint",
    "Changepoint",
    "MetricSeries",
    "build_timeline",
    "detect_changepoints",
    "render_timeline_text",
    "render_timeline_html",
]

#: Change-point marker hue — the report palette's alarm red.
_FLAG_COLOR = "#c94f4f"


@dataclass(frozen=True)
class TimelinePoint:
    """One run's value for one metric, in trajectory order."""

    index: int
    timestamp: float
    value: float
    kind: str
    revision: str


@dataclass(frozen=True)
class Changepoint:
    """A run where a metric moved the bad way past the threshold."""

    metric: str
    index: int
    baseline: float
    value: float
    direction: str

    @property
    def rel_change(self) -> float:
        """Relative movement vs the segment baseline at the flag."""
        if self.baseline == 0:
            return float("inf") if self.value != 0 else 0.0
        return (self.value - self.baseline) / abs(self.baseline)


@dataclass(frozen=True)
class MetricSeries:
    """One metric's trajectory plus its detected change-points."""

    metric: str
    direction: str
    points: tuple[TimelinePoint, ...]
    changepoints: tuple[Changepoint, ...]

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(p.value for p in self.points)


def _median(values: Sequence[float]) -> float:
    xs = sorted(values)
    mid = len(xs) // 2
    if len(xs) % 2:
        return xs[mid]
    return (xs[mid - 1] + xs[mid]) / 2.0


def detect_changepoints(
    metric: str,
    points: Sequence[TimelinePoint],
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[Changepoint, ...]:
    """Flag the points where ``metric`` turns bad, direction-aware.

    The baseline for each point is the median of the segment since the
    last change-point (the first point only seeds the segment).  A point
    flags when its relative movement vs that baseline exceeds
    ``threshold`` **in the metric's bad direction** — lower-is-better
    metrics flag on rises, higher-is-better on falls, ``info`` never.
    A flag starts a new segment, so a step change is attributed to
    exactly one run.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    direction = metric_direction(metric)
    if direction == "info" or len(points) < 2:
        return ()
    flags: list[Changepoint] = []
    segment: list[float] = [points[0].value]
    for point in points[1:]:
        baseline = _median(segment)
        scale = abs(baseline)
        if scale > 0:
            rel = (point.value - baseline) / scale
        else:
            # a zero baseline: any bad-direction move counts as total
            rel = 0.0 if point.value == 0 else (1.0 if point.value > 0 else -1.0)
        bad = rel > threshold if direction == "lower" else rel < -threshold
        if bad:
            flags.append(
                Changepoint(
                    metric=metric,
                    index=point.index,
                    baseline=baseline,
                    value=point.value,
                    direction=direction,
                )
            )
            segment = [point.value]
        else:
            segment.append(point.value)
    return tuple(flags)


def build_timeline(
    records: Iterable[RunRecord],
    metrics: Sequence[str] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[MetricSeries]:
    """Per-metric trajectories over time-ordered records of one experiment.

    ``records`` should already be time-ordered (what
    :meth:`RunStore.query` returns); point indices are positions in that
    record list, so a flagged index names the run.  ``metrics`` narrows
    the report; by default every metric observed at least twice gets a
    series.  Series come back sorted by metric name.
    """
    ordered = list(records)
    by_metric: dict[str, list[TimelinePoint]] = {}
    for index, rec in enumerate(ordered):
        for name, value in rec.metrics.items():
            if metrics is not None and name not in metrics:
                continue
            by_metric.setdefault(name, []).append(
                TimelinePoint(
                    index=index,
                    timestamp=rec.timestamp,
                    value=value,
                    kind=rec.kind,
                    revision=rec.revision,
                )
            )
    out = []
    for name in sorted(by_metric):
        points = by_metric[name]
        if metrics is None and len(points) < 2:
            continue
        out.append(
            MetricSeries(
                metric=name,
                direction=metric_direction(name),
                points=tuple(points),
                changepoints=detect_changepoints(name, points, threshold),
            )
        )
    return out


# -- terminal rendering ------------------------------------------------------


def render_timeline_text(exp_id: str, series: list[MetricSeries]) -> str:
    """The terminal timeline: one row per metric, flags called out."""
    table = Table(
        ["metric", "dir", "runs", "first", "last", "min", "max", "flagged at"],
        title=f"timeline {exp_id}",
        precision=4,
    )
    for s in series:
        vals = s.values
        table.add_row(
            [
                s.metric,
                s.direction,
                len(vals),
                vals[0],
                vals[-1],
                min(vals),
                max(vals),
                ",".join(str(cp.index) for cp in s.changepoints) or "-",
            ]
        )
    lines = [table.render()]
    for s in series:
        for cp in s.changepoints:
            point = next(p for p in s.points if p.index == cp.index)
            lines.append(
                f"change-point: {s.metric} at run {cp.index} ({point.kind}, {point.revision}): "
                f"{cp.baseline:g} -> {cp.value:g} ({cp.rel_change:+.1%}, {s.direction} is better)"
            )
    return "\n".join(lines)


# -- HTML rendering ----------------------------------------------------------


def _sparkline_svg(s: MetricSeries, width: int = 640, height: int = 56) -> str:
    """One metric lane: a polyline through the runs, flags as red dots.

    Values are normalized into the lane; identity (run index, kind,
    revision, exact value) rides in ``<title>`` tooltips per marker, in
    the ``obs.report`` Gantt idiom.
    """
    pts = s.points
    pad, r = 8, 3.5
    lo, hi = min(s.values), max(s.values)
    extent = max(hi - lo, 1e-12)
    span_x = max(pts[-1].index - pts[0].index, 1)

    def xy(p: TimelinePoint) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (p.index - pts[0].index) / span_x
        y = height - pad - (height - 2 * pad) * (p.value - lo) / extent
        return x, y

    coords = [xy(p) for p in pts]
    polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    flagged = {cp.index for cp in s.changepoints}
    dots = []
    for p, (x, y) in zip(pts, coords):
        hot = p.index in flagged
        fill = _FLAG_COLOR if hot else "var(--series-1)"
        tip = f"run {p.index} · {p.kind} · {p.revision} · {s.metric} = {p.value:g}"
        if hot:
            tip += " · CHANGE-POINT"
        dots.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{r + 1.5 if hot else r}" fill="{fill}">'
            f"<title>{html.escape(tip)}</title></circle>"
        )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}" '
        f'role="img" aria-label="{html.escape(s.metric)} trajectory">'
        f'<polyline points="{polyline}" fill="none" stroke="var(--series-1)" '
        'stroke-width="1.5" stroke-linejoin="round"/>' + "".join(dots) + "</svg>"
    )


def render_timeline_html(
    exp_id: str,
    series: list[MetricSeries],
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """The self-contained HTML timeline: sparkline lanes, no JS."""
    n_runs = max((len(s.points) for s in series), default=0)
    n_flags = sum(len(s.changepoints) for s in series)
    tiles = (
        '<div class="tiles">'
        + _tile(str(len(series)), "metrics")
        + _tile(str(n_runs), "runs (longest series)")
        + _tile(str(n_flags), "change-points")
        + _tile(f"{threshold:.0%}", "flag threshold")
        + "</div>"
    )
    lanes = []
    for s in series:
        vals = s.values
        flag_note = (
            f' · <span style="color:{_FLAG_COLOR};font-weight:600">'
            f"{len(s.changepoints)} change-point(s) at run "
            f'{", ".join(str(cp.index) for cp in s.changepoints)}</span>'
            if s.changepoints
            else ""
        )
        lanes.append(
            '<div class="panel">'
            f"<h3>{html.escape(s.metric)}</h3>"
            f'<p class="note">{s.direction} is better · {len(vals)} run(s) · '
            f"range {min(vals):g} – {max(vals):g}{flag_note}</p>"
            + _sparkline_svg(s)
            + "</div>"
        )
    sections = [tiles, "<h2>Metric trajectories</h2>"] + lanes
    flag_rows = [
        [cp.metric, cp.index, f"{cp.baseline:g}", f"{cp.value:g}", f"{cp.rel_change:+.1%}"]
        for s in series
        for cp in s.changepoints
    ]
    if flag_rows:
        sections.append(
            "<h2>Change-points</h2>"
            + _html_table(["metric", "run", "baseline", "value", "change"], flag_rows)
        )
    title = f"run timeline · {exp_id}"
    subtitle = f"{len(series)} metric(s) · {n_runs} run(s) · {n_flags} change-point(s)"
    return _page(title, subtitle, sections)
