"""Seeded arrival traces and the end-to-end replay harness."""

import pytest

from repro.serve.loadgen import (
    KINDS,
    PATTERNS,
    LoadSpec,
    build_trace,
    run_serve,
)


class TestBuildTrace:
    def test_deterministic_for_seed(self):
        spec = LoadSpec("bursty", requests=500, seed=11)
        assert build_trace(spec) == build_trace(spec)

    def test_seed_changes_trace(self):
        a = build_trace(LoadSpec("bursty", requests=500, seed=11))
        b = build_trace(LoadSpec("bursty", requests=500, seed=12))
        assert a != b

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_every_pattern_produces_valid_arrivals(self, pattern):
        trace = build_trace(LoadSpec(pattern, requests=300, seed=3))
        assert len(trace) == 300
        times = [a.t for a in trace]
        assert times == sorted(times) and times[0] >= 0.0
        assert {a.kind for a in trace} <= set(KINDS)
        assert all(0 <= a.key < 512 for a in trace)

    def test_key_skew_favours_low_keys(self):
        trace = build_trace(LoadSpec("steady", requests=5000, seed=0, keyspace=100))
        low = sum(1 for a in trace if a.key < 20)
        assert low / len(trace) > 0.4  # skew=3.0 concentrates mass at the bottom

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError):
            build_trace(LoadSpec("tsunami", requests=10))


class TestRunServeSim:
    def test_report_is_reproducible(self):
        a = run_serve("bursty", backend="sim", requests=2000, seed=5)
        b = run_serve("bursty", backend="sim", requests=2000, seed=5)
        assert a.metrics() == b.metrics()
        assert a.table().render() == b.table().render()

    def test_steady_pattern_mostly_admits(self):
        report = run_serve("steady", backend="sim", requests=2000, seed=5)
        assert report.completed + report.failed + report.shed_total == 2000
        assert report.shed_rate < 0.05
        assert report.hit_rate > 0.3  # modeled cache seeded at 0.6

    def test_overload_pattern_sheds(self):
        # The overload ramp takes ~30 virtual seconds to bite at the default
        # rate; a hotter base_rate reaches saturation within a small trace.
        report = run_serve(
            "overload", backend="sim", requests=5000, seed=5, base_rate=12000.0
        )
        assert report.shed_total > 0
        assert 0.0 < report.shed_rate < 1.0
        assert report.percentile(50) <= report.percentile(99) <= report.percentile(99.9)

    @pytest.mark.parametrize("window", [0.0, -1.0])
    def test_bad_slo_window_rejected_before_the_replay(self, monkeypatch, window):
        def no_replay(spec):
            raise AssertionError("the trace was built before the window was checked")

        monkeypatch.setattr("repro.serve.loadgen.build_trace", no_replay)
        with pytest.raises(ValueError, match=f"window must be > 0, got {window}"):
            run_serve("steady", backend="sim", requests=500, slo_window=window)

    def test_metrics_keys_complete(self):
        report = run_serve("steady", backend="sim", requests=500, seed=1)
        assert set(report.metrics()) == {
            "serve.throughput_rps",
            "serve.latency_p50_seconds",
            "serve.latency_p99_seconds",
            "serve.latency_p999_seconds",
            "serve.hit_rate",
            "serve.shed_rate",
            "serve.completed",
            "serve.failed",
        }


class TestRunServeThreads:
    def test_short_threads_run_completes_without_hang(self):
        report = run_serve(
            "steady", backend="threads", cores=2, requests=400, seed=5, time_scale=0.0
        )
        assert report.completed + report.failed + report.shed_total == 400
        assert report.completed > 0

    def test_overload_firehose_sheds_on_threads(self):
        report = run_serve(
            "overload", backend="threads", cores=2, requests=2000, seed=5, time_scale=0.0
        )
        assert report.completed + report.failed + report.shed_total == 2000
        assert report.shed_total > 0
