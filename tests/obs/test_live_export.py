"""Metrics export: golden Prometheus exposition and the HTTP server."""

import urllib.request

import pytest

from repro.obs.live.export import MetricsServer, _sanitize, prometheus_text
from repro.obs.live.registry import WorkerRegistry
from repro.obs.live.sampler import Sample, SamplingProfiler
from repro.obs.metrics import Metrics

#: Exact exposition for the fixture state below — the golden the format
#: is pinned by.  Regenerate deliberately if the exporter changes.
GOLDEN = """\
# TYPE repro_lat summary
repro_lat{quantile="0.5"} 2.5
repro_lat{quantile="0.9"} 3.7
repro_lat{quantile="0.99"} 3.9699999999999998
repro_lat_count 4
repro_lat_sum 10
# TYPE repro_live_busy_workers gauge
repro_live_busy_workers 0
# TYPE repro_live_inflight_tasks gauge
repro_live_inflight_tasks 0
# TYPE repro_live_workers gauge
repro_live_workers 0
# TYPE repro_live_workers_blocked gauge
repro_live_workers_blocked 0
# TYPE repro_live_workers_idle gauge
repro_live_workers_idle 0
# TYPE repro_live_workers_running gauge
repro_live_workers_running 0
# TYPE repro_pool_steals counter
repro_pool_steals 3
# TYPE repro_sim_makespan gauge
repro_sim_makespan 1.5
"""


def _metrics():
    m = Metrics()
    m.count("pool.steals", 3)
    m.set_gauge("sim.makespan", 1.5)
    for v in (1.0, 2.0, 3.0, 4.0):
        m.observe("lat", v)
    return m


class TestSanitize:
    def test_dots_become_underscores_with_prefix(self):
        assert _sanitize("pool.steals") == "repro_pool_steals"

    def test_illegal_chars_flattened(self):
        assert _sanitize("p-0.queue depth") == "repro_p_0_queue_depth"

    def test_leading_digit_gets_underscore(self):
        assert _sanitize("0abc") == "repro__0abc"


class TestPrometheusText:
    def test_golden_exposition(self):
        assert prometheus_text(_metrics(), WorkerRegistry()) == GOLDEN

    def test_live_gauges_reflect_registry(self):
        reg = WorkerRegistry()
        h = reg.register("w0", role="pool", ident=12345)
        h.begin_task("crunch", 7)
        reg.register_gauge("p.queue_depth", lambda: 3)
        text = prometheus_text(None, reg)
        assert "repro_live_workers 1" in text
        assert "repro_live_busy_workers 1" in text
        assert "repro_live_workers_running 1" in text
        assert "repro_live_p_queue_depth 3" in text
        assert "repro_live_inflight_tasks 4" in text

    def test_profiler_section(self):
        prof = SamplingProfiler(registry=WorkerRegistry())
        prof.profile().add(
            Sample(worker="w0", role="pool", state="running", task="t", stack=("main",))
        )
        text = prometheus_text(None, WorkerRegistry(), profiler=prof)
        assert "repro_live_sampler_samples 1" in text
        assert "repro_live_sampler_passes 0" in text
        assert "repro_live_sampler_overhead_seconds 0" in text

    def test_empty_histogram_exports_zero_count(self):
        m = Metrics()
        m.histogram("empty")
        text = prometheus_text(m, WorkerRegistry())
        assert "repro_empty_count 0" in text
        assert "repro_empty_sum 0" in text
        assert 'repro_empty{quantile' not in text

    def test_every_line_is_comment_or_sample(self):
        """Loose validity check mirroring a Prometheus parser's view."""
        for line in prometheus_text(_metrics(), WorkerRegistry()).strip().splitlines():
            if line.startswith("# TYPE "):
                parts = line.split()
                assert len(parts) == 4 and parts[3] in ("counter", "gauge", "summary")
            else:
                name, value = line.rsplit(" ", 1)
                float(value)  # must parse
                assert name.startswith("repro_")


class TestMetricsServer:
    def test_serves_metrics_and_healthz(self):
        reg = WorkerRegistry()
        with MetricsServer(metrics=_metrics(), registry=reg) as server:
            assert server.port != 0  # ephemeral port was bound
            with urllib.request.urlopen(server.url, timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain; version=0.0.4")
                body = resp.read().decode("utf-8")
            assert body == GOLDEN
            health = f"http://127.0.0.1:{server.port}/healthz"
            with urllib.request.urlopen(health, timeout=10) as resp:
                assert resp.read() == b"ok\n"

    def test_unknown_path_is_404(self):
        with MetricsServer(metrics=Metrics()) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://127.0.0.1:{server.port}/nope", timeout=10)
            assert err.value.code == 404

    def test_stop_is_idempotent_and_double_start_raises(self):
        server = MetricsServer(metrics=Metrics()).start()
        with pytest.raises(RuntimeError, match="already started"):
            server.start()
        server.stop()
        server.stop()

