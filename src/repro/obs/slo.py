"""Declarative service-level objectives over served traffic.

An :class:`Objective` is one comparison against a serving metric —
``p99 <= 0.25``, ``shed_rate <= 0.05``, ``availability >= 0.999`` —
declared as data (or parsed from the CLI string form) and evaluated by
:func:`evaluate_slo` against a finished load report in two grains:

* the **aggregate** over the whole run decides the typed pass/fail
  verdict (deterministic under sim: same trace, same verdict, byte for
  byte);
* fixed-width **windows** over the run's timeline count how many
  evaluation periods individually breached the objective, yielding the
  burn rate (breached / evaluated windows) that pages before an
  aggregate ever moves.  Windows are virtual seconds under sim and wall
  seconds on real pools, like every other serving clock.

The verdict feeds three sinks: a rendered table for the CLI, burn-rate
counters/gauges for the Prometheus exporter (``repro_slo_*``), and
direction-aware metrics for :mod:`repro.obs.baseline` regression gating
(burn/breach down is good, availability up is good).

This module only duck-types the report (``percentile``/``shed_rate``/
``completed``/``failed``/``duration`` plus the optional ``stages``
request summary), so it imports nothing from :mod:`repro.serve`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Sequence

from repro.util.stats import quantile
from repro.util.tables import Table

__all__ = [
    "DEFAULT_OBJECTIVES",
    "Objective",
    "ObjectiveResult",
    "SLOVerdict",
    "emit_metrics",
    "evaluate_slo",
    "parse_objective",
]

#: metrics an objective may target
METRICS = ("p50", "p99", "p999", "shed_rate", "availability")

_OPS = {
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
}

#: baseline-metric slugs; ``availability`` is shortened so burn/breach
#: keys match only the lower-is-better direction tokens
_SLUGS = {"availability": "avail"}

_OBJECTIVE_RE = re.compile(r"^\s*(\w+)\s*(<=|>=|<|>)\s*([0-9.eE+-]+)\s*$")


@dataclass(frozen=True)
class Objective:
    """One declarative objective: ``metric op threshold``."""

    metric: str
    op: str
    threshold: float

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(
                f"metric must be one of {METRICS}, got {self.metric!r}"
            )
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {tuple(_OPS)}, got {self.op!r}")

    def check(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)

    @property
    def label(self) -> str:
        return f"{self.metric} {self.op} {self.threshold:g}"

    @property
    def slug(self) -> str:
        return _SLUGS.get(self.metric, self.metric)


def parse_objective(text: str) -> Objective:
    """Parse the CLI form, e.g. ``"p99<=0.25"`` or ``"availability>=0.999"``."""
    m = _OBJECTIVE_RE.match(text)
    if m is None:
        raise ValueError(
            f"objective must look like 'p99<=0.25', got {text!r}"
        )
    return Objective(m.group(1), m.group(2), float(m.group(3)))


#: latency tail bounded, sheds rare, failures rarer — the profile a
#: steady run meets and an overload run (p99 ≈ 0.6 s, shed ≈ 49%) breaks
DEFAULT_OBJECTIVES = (
    Objective("p99", "<=", 0.25),
    Objective("shed_rate", "<=", 0.05),
    Objective("availability", ">=", 0.999),
)


@dataclass(frozen=True)
class ObjectiveResult:
    """One objective evaluated: the aggregate value plus window counts."""

    objective: Objective
    observed: float
    passed: bool
    #: windows that had relevant samples (empty windows don't count)
    windows: int
    breached: int

    @property
    def burn_rate(self) -> float:
        return self.breached / self.windows if self.windows else 0.0


@dataclass(frozen=True)
class SLOVerdict:
    """Typed verdict over every declared objective."""

    results: tuple[ObjectiveResult, ...]
    window: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def table(self) -> Table:
        """Render the verdict as a deterministic, CLI-printable table."""
        t = Table(
            ["objective", "observed", "status", "windows", "breached", "burn_rate"],
            title=f"SLO verdict ({self.window:g}s windows)",
            precision=6,
        )
        for r in self.results:
            t.add_row(
                [
                    r.objective.label,
                    round(r.observed, 6),
                    "pass" if r.passed else "FAIL",
                    r.windows,
                    r.breached,
                    round(r.burn_rate, 6),
                ]
            )
        return t

    def metrics(self) -> dict[str, float]:
        """Direction-aware metrics for ``obs.baseline`` gating."""
        out: dict[str, float] = {"slo.ok": 1.0 if self.passed else 0.0}
        for r in self.results:
            slug = r.objective.slug
            out[f"slo.burn_rate_{slug}"] = round(r.burn_rate, 6)
            out[f"slo.windows_breached_{slug}"] = float(r.breached)
            # observed values keep the full metric name so direction
            # tokens apply ("availability" up, "shed"/"seconds" down)
            if r.objective.metric in _QUANTILES:
                out[f"slo.observed_{r.objective.metric}_seconds"] = round(
                    r.observed, 6
                )
            else:
                out[f"slo.observed_{r.objective.metric}"] = round(r.observed, 6)
        return out


_QUANTILES = {"p50": 0.50, "p99": 0.99, "p999": 0.999}


def _aggregate(report: Any, objective: Objective) -> float:
    metric = objective.metric
    if metric in _QUANTILES:
        return float(report.percentile(_QUANTILES[metric]))
    if metric == "shed_rate":
        return float(report.shed_rate)
    # availability: completed / (completed + failed); rejected requests
    # were never served, so they count against shed_rate, not here
    served = report.completed + report.failed
    return report.completed / served if served else 1.0


def evaluate_slo(
    report: Any,
    objectives: Sequence[Objective] | None = None,
    window: float = 1.0,
) -> SLOVerdict:
    """Evaluate ``objectives`` (default :data:`DEFAULT_OBJECTIVES`).

    The pass/fail per objective comes from the whole-run aggregate; the
    per-window breach counts need the request summary on
    ``report.stages`` (runs without request tracing get aggregate-only
    results with zero windows).  A window with no relevant samples — no
    completions for a latency objective, no arrivals for shed rate — is
    excluded rather than counted as pass or breach.
    """
    if window <= 0:
        raise ValueError(f"window must be > 0, got {window}")
    objectives = tuple(objectives) if objectives is not None else DEFAULT_OBJECTIVES
    summary = getattr(report, "stages", None)
    duration = max(float(getattr(report, "duration", 0.0)), window)
    nwin = max(1, math.ceil(duration / window))

    # bucket the parallel trace arrays once
    ok_lat: list[list[float]] = [[] for _ in range(nwin)]
    resolved = [0] * nwin
    completed = [0] * nwin
    failed = [0] * nwin
    sheds = [0] * nwin
    if summary is not None:
        for ts, lat, status in zip(
            summary.resolves, summary.latencies, summary.statuses
        ):
            w = max(0, min(nwin - 1, int(ts / window)))
            resolved[w] += 1
            if status == "completed":
                completed[w] += 1
                ok_lat[w].append(lat)
            elif status == "failed":
                failed[w] += 1
        for ts in summary.sheds:
            w = max(0, min(nwin - 1, int(ts / window)))
            sheds[w] += 1

    results = []
    for objective in objectives:
        observed = _aggregate(report, objective)
        windows = breached = 0
        if summary is not None:
            for w in range(nwin):
                if objective.metric in _QUANTILES:
                    if not ok_lat[w]:
                        continue
                    value = quantile(sorted(ok_lat[w]), _QUANTILES[objective.metric])
                elif objective.metric == "shed_rate":
                    denom = sheds[w] + resolved[w]
                    if denom == 0:
                        continue
                    value = sheds[w] / denom
                else:  # availability
                    denom = completed[w] + failed[w]
                    if denom == 0:
                        continue
                    value = completed[w] / denom
                windows += 1
                if not objective.check(value):
                    breached += 1
        results.append(
            ObjectiveResult(
                objective=objective,
                observed=observed,
                passed=objective.check(observed),
                windows=windows,
                breached=breached,
            )
        )
    return SLOVerdict(results=tuple(results), window=window)


def emit_metrics(verdict: SLOVerdict, recorder: Any) -> None:
    """Publish burn-rate counters and the verdict gauge to a recorder.

    Counter/gauge names sanitize to ``repro_slo_*`` in the Prometheus
    exposition.  Safe on a :class:`~repro.obs.trace.NullRecorder`.
    """
    for r in verdict.results:
        slug = r.objective.slug
        recorder.count(f"slo.windows_total_{slug}", r.windows)
        recorder.count(f"slo.windows_breached_{slug}", r.breached)
        recorder.set_gauge(f"slo.burn_rate_{slug}", round(r.burn_rate, 6))
    recorder.set_gauge("slo.ok", 1.0 if verdict.passed else 0.0)
