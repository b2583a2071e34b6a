"""Tests for summary statistics and parallel-performance metrics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.analyze import decompose_stages
from repro.obs.rtrace import RequestSummary
from repro.obs.slo import Objective, evaluate_slo
from repro.obs.store import reduce_values
from repro.serve.loadgen import LoadReport
from repro.util.stats import (
    amdahl_speedup,
    efficiency,
    gustafson_speedup,
    karp_flatt,
    quantile,
    speedup,
    summarize,
)


class TestSummarize:
    def test_single_value(self):
        s = summarize([4.0])
        assert s.n == 1
        assert s.mean == 4.0
        assert s.std == 0.0
        assert s.minimum == s.maximum == 4.0

    def test_known_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == 3.0
        assert s.median == 3.0
        assert s.minimum == 1.0
        assert s.maximum == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_ci_halfwidth_shrinks_with_n(self):
        small = summarize([1.0, 2.0, 3.0])
        big = summarize([1.0, 2.0, 3.0] * 100)
        assert big.ci95_halfwidth < small.ci95_halfwidth

    def test_str_renders(self):
        assert "mean" in str(summarize([1.0, 2.0]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_bounds_property(self, xs):
        s = summarize(xs)
        tol = 1e-9 * max(1.0, abs(s.maximum), abs(s.minimum))
        assert s.minimum - tol <= s.median <= s.maximum + tol
        assert s.minimum - tol <= s.mean <= s.maximum + tol
        assert s.p25 <= s.median + tol
        assert s.median <= s.p75 + tol
        assert s.p75 <= s.p95 + tol
        assert s.p95 <= s.maximum + tol


class TestQuantile:
    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_is_the_nearest_rank_formula(self, xs, q):
        xs = sorted(xs)
        n = len(xs)
        assert quantile(xs, q) == xs[max(0, min(n - 1, math.ceil(q * n) - 1))]

    def test_known_ranks(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert [quantile(xs, q) for q in (0.0, 0.25, 0.5, 0.51, 1.0)] == [1.0, 1.0, 2.0, 3.0, 4.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quantile([], 0.5)

    def test_every_nearest_rank_site_reads_quantile(self):
        """One sample through the five places that once spelled the
        formula out themselves: each reads exactly ``quantile``'s value."""
        xs = [(i * 41 % 101) / 1000 for i in range(1, 38)]  # distinct, unsorted
        ordered = sorted(xs)
        want = [quantile(ordered, q) for q in (0.50, 0.99, 0.999)]
        n = len(xs)
        summary = RequestSummary(
            requests=n, completed=n, failed=0, rejected=0, cached=0,
            stage_samples={"execute": tuple(xs)}, latencies=tuple(xs),
            resolves=(0.5,) * n, oks=(True,) * n, statuses=("completed",) * n,
            sheds=(), exemplars=(),
        )
        report = LoadReport(
            "steady", "sim", 4, 0, requests=n, duration=1.0, completed=n,
            latencies=list(xs), stages=summary,
        )
        assert [report.percentile(q) for q in (0.50, 0.99, 0.999)] == want
        assert report.stage_table().rows[-1][4:] == want  # the end_to_end row
        (stage,) = decompose_stages(summary.stage_samples)
        assert [stage.p50, stage.p99, stage.p999] == want
        # One window holds every sample; meeting both "<= v" and ">= v"
        # pins each window value to exactly v.
        objectives = [
            Objective(metric, op, v)
            for metric, v in zip(("p50", "p99", "p999"), want)
            for op in ("<=", ">=")
        ]
        verdict = evaluate_slo(report, objectives, window=1.0)
        assert [(r.windows, r.breached) for r in verdict.results] == [(1, 0)] * 6
        assert reduce_values(xs, "p99") == want[1]


class TestSpeedupEfficiency:
    def test_speedup_basic(self):
        assert speedup(10.0, 2.5) == 4.0

    def test_efficiency_basic(self):
        assert efficiency(10.0, 2.5, 8) == 0.5

    def test_speedup_rejects_zero_parallel(self):
        with pytest.raises(ValueError):
            speedup(10.0, 0.0)

    def test_efficiency_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            efficiency(10.0, 1.0, 0)


class TestAmdahl:
    def test_no_serial_fraction_is_linear(self):
        assert amdahl_speedup(0.0, 16) == 16.0

    def test_all_serial_is_one(self):
        assert amdahl_speedup(1.0, 64) == 1.0

    def test_classic_value(self):
        # f=0.05, p=8 -> 1/(0.05 + 0.95/8) ~= 5.925
        assert amdahl_speedup(0.05, 8) == pytest.approx(5.9259, abs=1e-3)

    def test_asymptote(self):
        # As p grows, speedup approaches 1/f.
        assert amdahl_speedup(0.1, 10**6) == pytest.approx(10.0, rel=1e-3)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=1024))
    def test_bounded_by_cores_and_inverse_f(self, f, p):
        s = amdahl_speedup(f, p)
        assert 1.0 <= s + 1e-12
        assert s <= p + 1e-9
        if f > 0:
            assert s <= 1.0 / f + 1e-9

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            amdahl_speedup(1.5, 4)


class TestGustafson:
    def test_no_serial_fraction_is_linear(self):
        assert gustafson_speedup(0.0, 32) == 32.0

    def test_all_serial_is_one(self):
        assert gustafson_speedup(1.0, 32) == 1.0

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=2, max_value=512))
    def test_gustafson_at_least_amdahl(self, f, p):
        assert gustafson_speedup(f, p) >= amdahl_speedup(f, p) - 1e-9


class TestKarpFlatt:
    def test_perfect_speedup_gives_zero(self):
        assert karp_flatt(8.0, 8) == pytest.approx(0.0)

    def test_no_speedup_gives_one(self):
        assert karp_flatt(1.0, 8) == pytest.approx(1.0)

    def test_roundtrip_with_amdahl(self):
        f = 0.07
        p = 16
        s = amdahl_speedup(f, p)
        assert karp_flatt(s, p) == pytest.approx(f, rel=1e-6)

    def test_rejects_single_core(self):
        with pytest.raises(ValueError):
            karp_flatt(1.0, 1)
