"""Cross-run timelines: change-point detection and both renderers."""

import pytest

from repro.obs.store import RunRecord
from repro.obs.timeline import (
    build_timeline,
    detect_changepoints,
    render_timeline_html,
    render_timeline_text,
)


def series_records(metric, values, kind="serve"):
    return [
        RunRecord(
            exp_id="exp",
            kind=kind,
            metrics={metric: v},
            timestamp=float(i),
            revision=f"r{i}",
        )
        for i, v in enumerate(values)
    ]


class TestChangepoints:
    def test_higher_better_flags_the_collapse_run(self):
        # the regression fixture the issue pins: a throughput trajectory
        # that collapses at index 3 must flag exactly run 3
        records = series_records("serve.throughput_rps", [100.0, 102.0, 98.0, 40.0, 41.0])
        (series,) = build_timeline(records)
        assert series.direction == "higher"
        assert [cp.index for cp in series.changepoints] == [3]
        cp = series.changepoints[0]
        assert cp.baseline == 100.0  # median of the pre-collapse segment
        assert cp.value == 40.0
        assert cp.rel_change == pytest.approx(-0.6)

    def test_flag_resets_baseline_so_step_flags_once(self):
        # after the collapse the series stays low: later runs compare to
        # the *new* regime, not the old one — one step, one flag
        records = series_records("serve.throughput_rps", [100.0, 40.0, 41.0, 39.0, 42.0])
        (series,) = build_timeline(records)
        assert [cp.index for cp in series.changepoints] == [1]

    def test_lower_better_flags_rises_only(self):
        records = series_records("serve.latency_p99_seconds", [0.10, 0.11, 0.02, 0.30])
        (series,) = build_timeline(records)
        assert series.direction == "lower"
        # 0.02 is a big *improvement*: never flagged; 0.30 flags
        assert [cp.index for cp in series.changepoints] == [3]

    def test_good_direction_moves_never_flag(self):
        records = series_records("serve.throughput_rps", [100.0, 300.0, 900.0])
        (series,) = build_timeline(records)
        assert series.changepoints == ()

    def test_info_metrics_never_flag(self):
        records = series_records("trace.groups", [1.0, 100.0, 0.001])
        (series,) = build_timeline(records, metrics=("trace.groups",))
        assert series.direction == "info"
        assert series.changepoints == ()

    def test_threshold_is_respected(self):
        points = build_timeline(series_records("serve.throughput_rps", [100.0, 80.0]))[0].points
        assert detect_changepoints("serve.throughput_rps", points, threshold=0.25) == ()
        flagged = detect_changepoints("serve.throughput_rps", points, threshold=0.1)
        assert [cp.index for cp in flagged] == [1]
        with pytest.raises(ValueError, match="threshold"):
            detect_changepoints("serve.throughput_rps", points, threshold=0.0)

    def test_zero_baseline_flags_any_bad_move(self):
        records = series_records("serve.shed_rate", [0.0, 0.0, 0.5])
        (series,) = build_timeline(records)
        assert [cp.index for cp in series.changepoints] == [2]


class TestBuildTimeline:
    def test_metrics_observed_once_are_dropped_by_default(self):
        records = series_records("serve.throughput_rps", [1.0, 2.0])
        records.append(
            RunRecord(
                exp_id="exp", kind="serve", metrics={"rare.metric": 1.0}, timestamp=9.0
            )
        )
        assert [s.metric for s in build_timeline(records)] == ["serve.throughput_rps"]
        # ...unless explicitly requested
        assert [s.metric for s in build_timeline(records, metrics=("rare.metric",))] == [
            "rare.metric"
        ]

    def test_point_indices_name_record_positions(self):
        records = series_records("serve.throughput_rps", [1.0, 2.0])
        records.insert(
            1,
            RunRecord(exp_id="exp", kind="bench", metrics={"other": 1.0}, timestamp=0.5),
        )
        (series,) = build_timeline(records)
        assert [p.index for p in series.points] == [0, 2]

    def test_series_sorted_by_metric(self):
        records = [
            RunRecord(
                exp_id="exp",
                kind="serve",
                metrics={"z.metric": float(i), "a.metric": float(i)},
                timestamp=float(i),
            )
            for i in range(2)
        ]
        assert [s.metric for s in build_timeline(records)] == ["a.metric", "z.metric"]


class TestRenderers:
    def fixture_series(self):
        records = series_records("serve.throughput_rps", [100.0, 102.0, 98.0, 40.0, 41.0])
        return build_timeline(records)

    def test_text_report_names_the_flagged_run(self):
        text = render_timeline_text("exp", self.fixture_series())
        assert "timeline exp" in text
        assert "serve.throughput_rps" in text
        assert "change-point: serve.throughput_rps at run 3" in text
        assert "-60." in text

    def test_html_is_self_contained_and_deterministic(self):
        html_doc = render_timeline_html("exp", self.fixture_series())
        assert html_doc.startswith("<!DOCTYPE html>")
        assert "<svg" in html_doc and "polyline" in html_doc
        assert "<script" not in html_doc
        assert "http://" not in html_doc and "https://" not in html_doc
        assert "CHANGE-POINT" in html_doc  # flagged marker tooltip
        assert html_doc == render_timeline_html("exp", self.fixture_series())

    def test_html_counts_flags_in_tiles(self):
        html_doc = render_timeline_html("exp", self.fixture_series())
        assert "change-points" in html_doc
        assert "flag threshold" in html_doc
