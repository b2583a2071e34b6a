"""Request-scoped tracing: stage telescoping, golden stability, shards.

The load-bearing invariant is *telescoping*: every finished request's
per-stage durations sum to exactly (``==``, not ``isclose``) its
end-to-end latency, on every backend.  The hypothesis property pins the
mechanism (mark-chain arithmetic plus the final-segment residual
absorption); the cross-backend tests pin the wiring.
"""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.rtrace import (
    STAGES,
    RequestTrace,
    RequestTraceCollector,
)
from repro.serve.loadgen import run_serve


# -- the telescoping property ------------------------------------------------

_deltas = st.lists(
    st.tuples(
        st.sampled_from(STAGES),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    ),
    min_size=0,
    max_size=12,
)


class TestStageSumProperty:
    @given(arrival=st.floats(min_value=0.0, max_value=1e6), chain=_deltas)
    @settings(max_examples=200)
    def test_stage_durations_sum_exactly_to_total(self, arrival, chain):
        rt = RequestTrace(1, "panel", arrival)
        ts = arrival
        for stage, delta in chain:
            ts += delta
            rt.mark(stage, ts)
        assert sum(rt.stages().values()) == rt.total()

    @given(
        arrival=st.floats(min_value=0.0, max_value=1e6),
        chain=st.lists(
            st.tuples(
                st.sampled_from(STAGES),
                # absolute timestamps, deliberately allowed to go backwards
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=200)
    def test_clamping_forbids_negative_segments(self, arrival, chain):
        rt = RequestTrace(1, "thumb", arrival)
        for stage, ts in chain:
            rt.mark(stage, ts)
        durs = rt.stages()
        # the first segment may start before arrival only via clamping,
        # which zero-widths it; every recorded duration is non-negative
        # up to the residual absorbed into the last segment
        assert all(d >= 0.0 or math.isclose(d, 0.0, abs_tol=1e-9) for d in durs.values())
        assert sum(durs.values()) == rt.total()

    @pytest.mark.parametrize("backend", ["sim", "inline", "threads", "processes"])
    def test_exemplars_telescope_on_every_backend(self, backend):
        report = run_serve(
            "bursty",
            backend=backend,
            cores=2,
            requests=400,
            seed=7,
            time_scale=0.0,
            rtrace=True,
        )
        assert report.stages is not None
        assert report.stages.exemplars
        for rt in report.stages.exemplars:
            assert sum(rt.stages().values()) == rt.total()
        # aggregate view: stage totals telescope to the latency total
        # (re-association across requests allows float-epsilon slack)
        stage_total = sum(sum(v) for v in report.stages.stage_samples.values())
        assert math.isclose(
            stage_total, sum(report.stages.latencies), rel_tol=1e-9, abs_tol=1e-9
        )


# -- golden stability under sim ---------------------------------------------


class TestSimGolden:
    def test_traced_overload_report_is_byte_identical_across_runs(self):
        kw = dict(backend="sim", requests=8000, seed=2014, rtrace=True)
        a = run_serve("overload", **kw)
        b = run_serve("overload", **kw)
        assert a.table().render() == b.table().render()
        assert a.stage_table().render() == b.stage_table().render()
        assert a.slo is not None and b.slo is not None
        assert a.slo.table().render() == b.slo.table().render()
        assert a.metrics() == b.metrics()

    def test_tracing_does_not_perturb_the_untraced_golden(self):
        kw = dict(backend="sim", requests=8000, seed=2014)
        traced = run_serve("overload", rtrace=True, **kw)
        plain = run_serve("overload", **kw)
        # same virtual schedule, byte for byte — tracing observes, never steers
        assert traced.table().render() == plain.table().render()

    def test_stage_table_end_to_end_row_telescopes(self):
        report = run_serve("overload", backend="sim", requests=8000, rtrace=True)
        rendered = report.stage_table().render()
        rows = [r.split("|") for r in rendered.splitlines()[3:]]
        totals = {r[0].strip(): float(r[2]) for r in rows}
        stage_sum = sum(v for k, v in totals.items() if k != "end_to_end")
        assert totals["end_to_end"] == pytest.approx(stage_sum, abs=2e-6)

    def test_traced_metrics_are_a_superset_of_the_pinned_keys(self):
        plain = run_serve("steady", backend="sim", requests=500, seed=1)
        traced = run_serve("steady", backend="sim", requests=500, seed=1, rtrace=True)
        assert set(plain.metrics()) < set(traced.metrics())
        for key in plain.metrics():
            assert traced.metrics()[key] == plain.metrics()[key]


# -- collector bookkeeping ---------------------------------------------------


class TestCollector:
    def test_exemplar_heap_keeps_the_n_slowest(self):
        coll = RequestTraceCollector(exemplars=3)

        class _Done:  # completed-shaped response
            cached = False
            attempts = 1

        for i, total in enumerate([5.0, 1.0, 9.0, 3.0, 7.0]):
            rt = coll.begin(i, "panel", 0.0)
            rt.mark("resolve", total)
            coll.finish(rt, _Done())
        summary = coll.summary()
        assert [rt.total() for rt in summary.exemplars] == [9.0, 7.0, 5.0]
        assert summary.requests == 5 and summary.completed == 5

    def test_statuses_partition_the_finished_traces(self):
        report = run_serve(
            "overload",
            backend="sim",
            requests=5000,
            seed=5,
            base_rate=12000.0,
            rtrace=True,
        )
        s = report.stages
        assert s.requests == s.completed + s.failed + s.rejected
        assert len(s.latencies) == len(s.resolves) == len(s.statuses) == s.requests
        # the hot overload run sheds at admission; sheds are counted
        # separately from finished traces
        assert report.shed_total == len(s.sheds) + s.rejected


# -- cross-process execute attribution ---------------------------------------


class TestProcessesBackend:
    def test_execute_spans_carry_worker_pids(self):
        report = run_serve(
            "steady",
            backend="processes",
            cores=2,
            requests=200,
            seed=3,
            time_scale=0.0,
            rtrace=True,
        )
        assert report.completed > 0
        # an executed request carries the pid of the worker process that
        # ran its call (the batch body reports it), never the parent's
        executed = [
            rt for rt in report.stages.exemplars if any(s == "execute" for s, _ in rt.marks)
        ]
        assert executed, "no executed request among the exemplars"
        pids = {rt.pid for rt in executed}
        assert None not in pids
        assert os.getpid() not in pids
