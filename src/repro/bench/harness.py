"""Experiment registry and result rendering.

Observability: running an experiment while a trace recorder is installed
(``trace=`` on executors, or ambiently via :func:`repro.obs.use` — which
is what ``python -m repro analyze <exp>`` does) captures a per-experiment
metrics snapshot on the result.  With no recorder installed the result —
and its rendered report — is byte-identical to the untraced behaviour.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.obs import TraceAnalysis, analyze_trace, current_recorder, render_text
from repro.obs.live.sampler import current_profiler
from repro.util.tables import Table

__all__ = ["Experiment", "ExperimentResult", "register", "get_experiment", "all_experiments"]


@dataclass(frozen=True)
class ExperimentResult:
    """What one experiment produced."""

    exp_id: str
    tables: tuple[Table, ...]
    notes: str = ""
    #: metrics snapshot captured when the experiment ran under a trace
    #: recorder (name -> count/gauge value or util.stats Summary); None
    #: when observability was off.  Deliberately not part of render().
    metrics: dict[str, Any] | None = field(default=None, compare=False)
    #: trace analytics (work/span, utilization, steal stats, model fits)
    #: computed from the recorded events; None when observability was
    #: off.  Deliberately not part of render() — the bench report stays
    #: byte-identical with tracing disabled.
    analysis: TraceAnalysis | None = field(default=None, compare=False)
    #: folded sample profile (repro.obs.live) captured when the run
    #: executed under an ambient sampling profiler (``use_profiler``);
    #: None otherwise.  Like metrics/analysis, never part of render().
    profile: Any | None = field(default=None, compare=False)

    def render(self) -> str:
        parts = [f"===== experiment {self.exp_id} ====="]
        for table in self.tables:
            parts.append(table.render())
            parts.append("")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)

    def render_analysis(self) -> str:
        """Terminal trace-analysis block ('' when the run was untraced)."""
        if self.analysis is None:
            return ""
        return render_text(self.analysis)

    def flat_metrics(self) -> dict[str, float]:
        """The run's flat numeric metric map, for the run-history store.

        Traced runs report the analyzer's baseline metrics (the same map
        ``python -m repro compare`` gates on); untraced perf runs fall
        back to the numeric entries of their own metrics dict.  Empty
        when the run measured nothing.
        """
        if self.analysis is not None:
            return self.analysis.baseline_metrics()
        if not self.metrics:
            return {}
        out = {}
        for name, value in self.metrics.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                out[name] = float(value)
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class Experiment:
    """One reproducible artefact of the paper."""

    exp_id: str
    title: str
    paper_ref: str  # e.g. "Figure 2", "Section V-A"
    run: Callable[[], ExperimentResult] = field(compare=False)
    #: perf experiments measure *wall-clock* metrics themselves (attached
    #: to ``ExperimentResult.metrics`` by the experiment body) and gate
    #: against a committed pin in the run-history store; ``python -m
    #: repro compare`` runs them untraced so recorder overhead never
    #: lands in the measured region.
    perf: bool = False

    def __call__(self) -> ExperimentResult:
        recorder = current_recorder()
        if recorder.enabled:
            with recorder.span("experiment", self.exp_id):
                result = self.run()
        else:
            result = self.run()
        if result.exp_id != self.exp_id:
            raise ValueError(
                f"experiment {self.exp_id!r} returned result tagged {result.exp_id!r}"
            )
        if recorder.enabled:
            snapshot = recorder.metrics.snapshot()
            analysis = None
            events = getattr(recorder, "events", None)
            if callable(events):  # recorders without replay just skip analytics
                analysis = analyze_trace(events(), metrics=snapshot)
            result = replace(result, metrics=snapshot, analysis=analysis)
        profiler = current_profiler()
        if profiler is not None:
            result = replace(result, profile=profiler.profile())
        return result


_registry: dict[str, Experiment] = {}
_lock = threading.Lock()


def register(
    exp_id: str, title: str, paper_ref: str, perf: bool = False
) -> Callable[[Callable[[], ExperimentResult]], Experiment]:
    """Decorator: register an experiment under ``exp_id``.

    ``perf=True`` marks a wall-clock microbench whose result carries its
    own metrics dict (see :attr:`Experiment.perf`)."""

    def deco(fn: Callable[[], ExperimentResult]) -> Experiment:
        exp = Experiment(exp_id=exp_id, title=title, paper_ref=paper_ref, run=fn, perf=perf)
        with _lock:
            if exp_id in _registry:
                raise ValueError(f"experiment {exp_id!r} already registered")
            _registry[exp_id] = exp
        return exp

    return deco


def get_experiment(exp_id: str) -> Experiment:
    """Look up a registered experiment; KeyError lists the known ids."""
    with _lock:
        if exp_id not in _registry:
            raise KeyError(f"unknown experiment {exp_id!r}; known: {sorted(_registry)}")
        return _registry[exp_id]


def all_experiments() -> list[Experiment]:
    """Every registered experiment, sorted by id."""
    with _lock:
        return [_registry[k] for k in sorted(_registry)]
