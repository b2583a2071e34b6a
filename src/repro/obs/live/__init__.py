"""Live observability: watch a parallel run *while it runs*.

The rest of :mod:`repro.obs` is post-hoc — a run finishes, then
``analyze``/``report`` explain it.  This subpackage is the during-the-run
half, mirroring how production systems (and the paper's lab machines)
are actually observed:

* :mod:`~repro.obs.live.registry` — a process-wide directory of worker
  threads (thread ident → worker id, current task, idle/running/blocked
  state) plus pull-gauges for queue depths.  Executors register
  unconditionally; the hot-path cost is plain attribute writes.
* :mod:`~repro.obs.live.sampler` — a sampling profiler:
  ``sys._current_frames()`` snapshots attributed to each worker's
  in-flight task and state, folded into Brendan-Gregg collapsed-stack
  form (:class:`Profile`, :func:`fold`).
* :mod:`~repro.obs.live.flame` — flamegraph SVG/HTML and hotspot-table
  rendering of a folded profile (``python -m repro flame``).
* :mod:`~repro.obs.live.export` — Prometheus text exposition of metrics
  and live gauges, and a ``/metrics`` + ``/healthz`` HTTP thread — the
  live view of a running experiment (``python -m repro flame --serve``).

Live sampling is wall-clock and deliberately stays out of
:mod:`repro.obs.baseline` gating: nothing here writes into a
:class:`~repro.obs.metrics.Metrics` registry, so with the sampler off,
bench reports and baseline comparisons are byte-identical.
"""

from repro.obs.live.export import MetricsServer, prometheus_text
from repro.obs.live.flame import (
    FlameNode,
    build_tree,
    render_flame_html,
    render_flame_svg,
    render_hotspots_text,
)
from repro.obs.live.registry import (
    BLOCKED,
    IDLE,
    REGISTRY,
    RUNNING,
    STATES,
    GaugeHandle,
    WorkerHandle,
    WorkerRegistry,
    attribute_task,
    current_handle,
)
from repro.obs.live.sampler import (
    HotspotRow,
    Profile,
    Sample,
    SamplingProfiler,
    current_profiler,
    fold,
    use_profiler,
)

__all__ = [
    # registry
    "IDLE",
    "RUNNING",
    "BLOCKED",
    "STATES",
    "WorkerHandle",
    "GaugeHandle",
    "WorkerRegistry",
    "REGISTRY",
    "current_handle",
    "attribute_task",
    # sampler
    "Sample",
    "HotspotRow",
    "Profile",
    "fold",
    "SamplingProfiler",
    "current_profiler",
    "use_profiler",
    # flame
    "FlameNode",
    "build_tree",
    "render_flame_svg",
    "render_flame_html",
    "render_hotspots_text",
    # export
    "prometheus_text",
    "MetricsServer",
]
