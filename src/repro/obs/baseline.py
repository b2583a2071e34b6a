"""Direction-aware regression gating for benchmark runs.

The analyzer (:mod:`repro.obs.analyze`) reduces a traced experiment to a
flat metric dict (:meth:`~repro.obs.analyze.TraceAnalysis.baseline_metrics`),
and perf experiments and serve runs measure their own.  A baseline is a
run record pinned in the run-history store
(:meth:`repro.obs.store.RunStore.baseline`); this module compares a
fresh run against the pinned numbers so CI (``python -m repro compare``)
can flag drift beyond a noise threshold.

Comparison is **direction-aware**: time-like metrics (seconds, makespan,
span, waits, latencies, the fitted serial fraction) regress when they
grow, efficiency-like metrics (parallelism, utilization, speedup) when
they shrink, and pure counts (tasks, events, steals) are reported but
never gated — they describe the workload, not its performance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "MetricDelta",
    "Comparison",
    "metric_direction",
    "compare_to_baseline",
]

#: Relative drift tolerated before a gated metric counts as a regression.
DEFAULT_THRESHOLD = 0.25

_LOWER_BETTER = (
    "seconds",
    "latency",
    "wait",
    "makespan",
    "span",
    "work",
    "serial_fraction",
    "dropped",
    "unclosed",
    "shed",
    "burn",
    "breach",
)
_HIGHER_BETTER = (
    "parallelism",
    "utilization",
    "speedup",
    "success",
    "throughput",
    "hit_rate",
    "availability",
)


def metric_direction(name: str) -> str:
    """Classify a metric name as ``lower``, ``higher``, or ``info``.

    ``lower``/``higher`` say which direction is *better*; ``info``
    metrics (counts, ids) are reported but never gate a comparison.
    The match is substring-based on the flat metric name, checking the
    higher-better vocabulary first so ``steal success rate`` does not
    trip on a time-like fragment.
    """
    lowered = name.lower()
    if any(tok in lowered for tok in _HIGHER_BETTER):
        return "higher"
    if any(tok in lowered for tok in _LOWER_BETTER):
        return "lower"
    return "info"


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-current movement."""

    name: str
    baseline: float
    current: float
    direction: str
    regressed: bool

    @property
    def rel_change(self) -> float | None:
        """(current - baseline) / baseline, or ``None`` off a zero base."""
        if self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline)


@dataclass(frozen=True)
class Comparison:
    """The full result of comparing a run against its stored baseline."""

    exp_id: str
    threshold: float
    deltas: tuple[MetricDelta, ...]
    missing: tuple[str, ...]  # in baseline, absent from the current run
    new: tuple[str, ...]  # in the current run, absent from baseline

    @property
    def regressions(self) -> tuple[MetricDelta, ...]:
        """The gated metrics that moved the wrong way past the threshold."""
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def gated(self) -> int:
        """How many shared metrics could gate: a direction and a positive baseline."""
        return sum(1 for d in self.deltas if d.direction != "info" and d.baseline > 0)

    @property
    def ok(self) -> bool:
        """True when something was gated and nothing regressed (the CI
        gate condition) — a run sharing no gated metric with its baseline
        proves nothing, so it does not pass."""
        return self.gated > 0 and not self.regressions

    def render(self) -> str:
        """Deterministic text report: one line per compared metric."""
        lines = [
            f"baseline comparison for {self.exp_id} "
            f"(threshold ±{self.threshold:.0%}, {len(self.deltas)} metric(s))"
        ]
        for d in self.deltas:
            rel = d.rel_change
            move = f"{rel:+.1%}" if rel is not None else "n/a"
            status = "REGRESSED" if d.regressed else "ok"
            gate = {"lower": "lower=better", "higher": "higher=better", "info": "info"}[d.direction]
            lines.append(
                f"  {d.name:40s} {d.baseline:>14.6g} -> {d.current:>14.6g}  {move:>8s}  [{gate}] {status}"
            )
        if self.new:
            lines.append(f"  new metrics (no baseline): {', '.join(self.new)}")
        if self.missing:
            lines.append(f"  missing metrics (in baseline only): {', '.join(self.missing)}")
        if self.regressions:
            lines.append(f"result: {len(self.regressions)} regression(s)")
        elif not self.gated:
            lines.append("result: nothing gated (no directional metric shared with the baseline)")
        else:
            lines.append("result: no regressions")
        return "\n".join(lines)


def compare_to_baseline(
    exp_id: str,
    current: Mapping[str, float],
    baseline: Mapping[str, float],
    threshold: float = DEFAULT_THRESHOLD,
) -> Comparison:
    """Compare a fresh run's metrics against its stored baseline.

    A gated metric regresses when it moves in its *bad* direction by
    more than ``threshold`` relative to the baseline value.  Metrics
    with a zero baseline, ``info``-direction metrics, and metrics
    present on only one side never gate — they are surfaced in the
    report instead, so a vanished instrument reads as a diff, not a
    pass.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    deltas: list[MetricDelta] = []
    for name in sorted(set(baseline) & set(current)):
        base, cur = float(baseline[name]), float(current[name])
        direction = metric_direction(name)
        regressed = False
        if base > 0:
            if direction == "lower":
                regressed = cur > base * (1.0 + threshold)
            elif direction == "higher":
                regressed = cur < base * (1.0 - threshold)
        deltas.append(
            MetricDelta(name=name, baseline=base, current=cur, direction=direction, regressed=regressed)
        )
    return Comparison(
        exp_id=exp_id,
        threshold=threshold,
        deltas=tuple(deltas),
        missing=tuple(sorted(set(baseline) - set(current))),
        new=tuple(sorted(set(current) - set(baseline))),
    )
