"""Metrics export: Prometheus text exposition and a ``/metrics`` server.

:func:`prometheus_text` renders a :class:`~repro.obs.metrics.Metrics`
registry — plus the live worker/queue gauges from the
:class:`~repro.obs.live.registry.WorkerRegistry` and the sampler's
self-overhead — in the Prometheus text exposition format (version
0.0.4): ``# TYPE`` headers, counters/gauges by sanitized name,
histograms as summaries with ``quantile`` labels and ``_count``/``_sum``
series.  It is a pure function of its inputs, which is what the golden
test pins.

:class:`MetricsServer` serves that text from a stdlib
``ThreadingHTTPServer`` on a daemon thread at ``/metrics`` (plus a
``/healthz`` liveness probe), so a running experiment can be scraped
with plain ``curl``.
"""

from __future__ import annotations

import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

import numpy as np

from repro.obs.live.registry import REGISTRY, WorkerRegistry
from repro.obs.live.sampler import SamplingProfiler
from repro.obs.metrics import Counter, Gauge, Histogram, Metrics

__all__ = ["prometheus_text", "MetricsServer"]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")

#: The summary quantiles exported per histogram.
_QUANTILES = (0.5, 0.9, 0.99)


def _sanitize(name: str, prefix: str = "repro_") -> str:
    """Dotted instrument name → legal Prometheus metric name.

    ``pool.steals`` becomes ``repro_pool_steals``; any other illegal
    character also maps to ``_``.  Names already matching the metric
    grammar are only prefixed.
    """
    flat = _NAME_BAD.sub("_", name)
    if not _NAME_OK.match(flat):
        flat = "_" + flat
    return prefix + flat


def _fmt_value(value: float) -> str:
    """Prometheus sample values: shortest round-trip float, ints bare."""
    f = float(value)
    if f != f:
        return "NaN"
    if f in (float("inf"), float("-inf")):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _histogram_lines(hist: Histogram, name: str) -> list[str]:
    """One histogram as a Prometheus summary: quantiles + _count/_sum."""
    samples = hist.samples()
    lines = [f"# TYPE {name} summary"]
    if samples:
        arr = np.asarray(samples, dtype=float)
        for q in _QUANTILES:
            v = float(np.percentile(arr, q * 100))
            lines.append(f'{name}{{quantile="{q}"}} {_fmt_value(v)}')
        total = float(arr.sum())
    else:
        total = 0.0
    lines.append(f"{name}_count {len(samples)}")
    lines.append(f"{name}_sum {_fmt_value(total)}")
    return lines


def prometheus_text(
    metrics: Metrics | None = None,
    registry: WorkerRegistry | None = None,
    profiler: SamplingProfiler | None = None,
) -> str:
    """Render everything observable right now as Prometheus exposition text.

    ``metrics`` contributes every instrument under its sanitized name;
    ``registry`` (defaults to the process-wide one) contributes the live
    gauges — worker totals, per-state counts, queue depths, in-flight
    tasks; ``profiler`` adds its sample count and self-overhead.  All
    sections sort by metric name, so output is deterministic for a given
    state.
    """
    blocks: list[tuple[str, list[str]]] = []

    if metrics is not None:
        for inst in metrics:
            name = _sanitize(inst.name)
            if isinstance(inst, Counter):
                blocks.append((name, [f"# TYPE {name} counter", f"{name} {_fmt_value(inst.value)}"]))
            elif isinstance(inst, Gauge):
                blocks.append((name, [f"# TYPE {name} gauge", f"{name} {_fmt_value(inst.value)}"]))
            elif isinstance(inst, Histogram):
                blocks.append((name, _histogram_lines(inst, name)))

    reg = registry if registry is not None else REGISTRY
    counts = reg.state_counts()
    live: list[tuple[str, float]] = [
        ("repro_live_workers", float(len(reg))),
        ("repro_live_busy_workers", float(reg.busy_workers())),
        ("repro_live_inflight_tasks", float(reg.inflight_tasks())),
    ]
    for state, n in sorted(counts.items()):
        live.append((f"repro_live_workers_{state}", float(n)))
    for gauge_name, value in reg.gauges().items():
        live.append((_sanitize(gauge_name, prefix="repro_live_"), value))
    if profiler is not None:
        overhead = profiler.overhead()
        live.append(("repro_live_sampler_samples", float(profiler.profile().total_samples)))
        live.append(("repro_live_sampler_passes", overhead["passes"]))
        live.append(("repro_live_sampler_overhead_seconds", overhead["seconds"]))
    for name, value in live:
        blocks.append((name, [f"# TYPE {name} gauge", f"{name} {_fmt_value(value)}"]))

    blocks.sort(key=lambda b: b[0])
    out: list[str] = []
    for _, lines in blocks:
        out.extend(lines)
    return "\n".join(out) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """``/metrics`` → exposition text, ``/healthz`` → ok.  Quiet logs."""

    server: "_Server"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = self.server.exporter.render().encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/healthz":
            body = b"ok\n"
            ctype = "text/plain; charset=utf-8"
        else:
            self.send_error(404, "try /metrics or /healthz")
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:
        pass  # scrapes must not spam the experiment's stdout


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    exporter: "MetricsServer"


class MetricsServer:
    """Serve live metrics over HTTP while an experiment runs.

    ``port=0`` (the default) binds an ephemeral port — read ``.port``
    after :meth:`start`.  The server thread is a daemon: an experiment
    crashing never hangs on it.

    >>> server = MetricsServer(metrics=m).start()     # doctest: +SKIP
    >>> urllib.request.urlopen(f"http://127.0.0.1:{server.port}/metrics")
    """

    def __init__(
        self,
        metrics: Metrics | None = None,
        registry: WorkerRegistry | None = None,
        profiler: SamplingProfiler | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.metrics = metrics
        self.registry = registry
        self.profiler = profiler
        self.host = host
        self.port = port
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    def render(self) -> str:
        """The exposition text a scrape of ``/metrics`` returns now."""
        return prometheus_text(self.metrics, self.registry, self.profiler)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        """Bind the listener (resolving ``port=0`` to the ephemeral port
        actually bound) and serve from a daemon thread."""
        if self._server is not None:
            raise RuntimeError("metrics server already started")
        server = _Server((self.host, self.port), _Handler)
        server.exporter = self
        self.port = server.server_address[1]
        self._server = server
        self._thread = threading.Thread(target=server.serve_forever, name="obs-metrics-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the listener down; idempotent."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "listening" if self._server is not None else "stopped"
        return f"MetricsServer({self.host}:{self.port}, {state})"
