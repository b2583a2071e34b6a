"""Direction-aware regression gating."""

import pytest

from repro.obs import Comparison, compare_to_baseline, metric_direction


class TestDirections:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("pool.task_seconds.p99", "lower"),
            ("primary.makespan", "lower"),
            ("primary.span", "lower"),
            ("primary.work", "lower"),
            ("edt_latency.p99", "lower"),
            ("barrier_wait.total_seconds", "lower"),
            ("fit.serial_fraction", "lower"),
            ("primary.parallelism", "higher"),
            ("primary.utilization", "higher"),
            ("trace.tasks", "info"),
            ("pool.submitted", "info"),
            ("trace.steals", "info"),
        ],
    )
    def test_vocabulary(self, name, expected):
        assert metric_direction(name) == expected


class TestCompare:
    def test_no_drift_is_ok(self):
        base = {"primary.makespan": 1.0, "primary.parallelism": 4.0}
        cmp = compare_to_baseline("e", dict(base), base)
        assert isinstance(cmp, Comparison)
        assert cmp.ok and cmp.regressions == ()

    def test_lower_better_regresses_when_it_grows(self):
        cmp = compare_to_baseline(
            "e", {"primary.makespan": 1.5}, {"primary.makespan": 1.0}, threshold=0.25
        )
        assert not cmp.ok
        (r,) = cmp.regressions
        assert r.name == "primary.makespan" and r.direction == "lower"
        assert r.rel_change == pytest.approx(0.5)

    def test_lower_better_improvement_never_flags(self):
        cmp = compare_to_baseline("e", {"primary.makespan": 0.1}, {"primary.makespan": 1.0})
        assert cmp.ok

    def test_higher_better_regresses_when_it_shrinks(self):
        cmp = compare_to_baseline(
            "e", {"primary.parallelism": 2.0}, {"primary.parallelism": 4.0}, threshold=0.25
        )
        assert not cmp.ok
        assert cmp.regressions[0].direction == "higher"

    def test_drift_inside_threshold_tolerated(self):
        cmp = compare_to_baseline(
            "e", {"primary.makespan": 1.2}, {"primary.makespan": 1.0}, threshold=0.25
        )
        assert cmp.ok

    def test_counts_never_gate(self):
        cmp = compare_to_baseline("e", {"trace.steals": 900.0}, {"trace.steals": 3.0})
        assert not cmp.regressions
        assert not cmp.ok
        (d,) = cmp.deltas
        assert d.direction == "info" and not d.regressed

    def test_zero_baseline_never_gates(self):
        cmp = compare_to_baseline("e", {"lock_wait.total_seconds": 5.0},
                                  {"lock_wait.total_seconds": 0.0})
        assert not cmp.regressions
        assert not cmp.ok
        assert cmp.deltas[0].rel_change is None

    def test_one_sided_metrics_reported_not_gated(self):
        cmp = compare_to_baseline("e", {"new.metric": 1.0}, {"gone.seconds": 1.0})
        assert not cmp.regressions
        assert not cmp.ok
        assert cmp.new == ("new.metric",)
        assert cmp.missing == ("gone.seconds",)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_to_baseline("e", {}, {}, threshold=-0.1)

    def test_render_names_regressions(self):
        cmp = compare_to_baseline("exp", {"primary.makespan": 9.0}, {"primary.makespan": 1.0})
        text = cmp.render()
        assert "REGRESSED" in text
        assert "1 regression(s)" in text
        assert "exp" in text

    def test_render_clean_run(self):
        text = compare_to_baseline("exp", {"m.seconds": 1.0}, {"m.seconds": 1.0}).render()
        assert "no regressions" in text
