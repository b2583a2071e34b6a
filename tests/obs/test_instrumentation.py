"""End-to-end observability: instrumented backends and the Chrome trace ``analyze`` writes."""

import json

import pytest

from repro.__main__ import main
from repro.executor import create
from repro.gui.edt import EventDispatchThread
from repro.obs import TraceRecorder
from repro.ptask import ParallelTaskRuntime
from repro.pyjama import Pyjama


class TestPoolInstrumentation:
    def test_task_spans_and_submit_instants(self):
        rec = TraceRecorder()
        with create("threads", cores=2, trace=rec) as pool:
            fs = [pool.submit(lambda i=i: i, name=f"t{i}") for i in range(6)]
            [f.result() for f in fs]
        kinds = {e.kind for e in rec.events()}
        assert {"submit", "task"} <= kinds
        snap = rec.metrics.snapshot()
        assert snap["pool.submitted"] == 6
        assert snap["pool.tasks_executed"] == 6
        assert snap["pool.task_seconds.n"] == 6

    def test_critical_section_span_carries_lock_name(self):
        rec = TraceRecorder()
        with create("threads", cores=1, trace=rec) as pool:
            with pool.critical("shared"):
                pass
        crits = [e for e in rec.events() if e.kind == "critical"]
        assert [e.phase for e in crits] == ["B", "i", "E"]
        assert crits[0].attrs["lock"] == "shared"
        assert rec.metrics.snapshot()["pool.critical_sections"] == 1

    def test_barrier_events(self):
        rec = TraceRecorder()
        with create("threads", cores=2, trace=rec) as pool:
            fs = [
                pool.submit(lambda: pool.barrier("b", parties=2), name=f"m{i}")
                for i in range(2)
            ]
            [f.result() for f in fs]
        barriers = [e for e in rec.events() if e.kind == "barrier"]
        assert len(barriers) >= 2
        assert rec.metrics.snapshot()["pool.barrier_passes"] == 2


class TestSimInstrumentation:
    def test_schedule_emits_spans_and_migrations(self):
        rec = TraceRecorder()
        ex = create("sim", cores=4, trace=rec)
        rt = ParallelTaskRuntime(ex)

        def fib(n):
            if n < 2:
                return n
            a = rt.spawn(fib, n - 1, cost=1.0)
            b = rt.spawn(fib, n - 2, cost=1.0)
            return a.result() + b.result()

        assert fib(8) == 21
        ex.schedule()
        events = rec.events()
        assert any(e.kind == "task" and e.phase == "X" for e in events)
        assert any(e.kind == "steal" for e in events), "no migrations at 4 cores"
        snap = rec.metrics.snapshot()
        assert snap["sim.schedules"] == 1
        assert snap["sim.makespan"] > 0

    def test_each_schedule_gets_its_own_group(self):
        rec = TraceRecorder()
        ex = create("sim", cores=2, trace=rec)
        ex.submit(lambda: None, cost=1.0).result()
        r1 = ex.schedule()
        r2 = ex.schedule()
        assert r1.makespan == r2.makespan
        groups = {e.group for e in rec.events() if e.phase == "X"}
        assert len(groups) == 2

    def test_pyjama_barrier_lands_in_sim_trace(self):
        rec = TraceRecorder()
        omp = Pyjama(create("sim", cores=4, trace=rec), num_threads=4)

        def body(ctx):
            ctx.compute(1.0)
            ctx.barrier("sync")
            ctx.compute(1.0)

        omp.parallel(body)
        omp.executor.schedule()
        assert any(e.kind == "barrier" for e in rec.events())
        assert rec.metrics.snapshot()["sim.barrier_passes"] >= 1


class TestEdtInstrumentation:
    def test_queue_latency_observed(self):
        rec = TraceRecorder()
        with EventDispatchThread("test-edt", trace=rec) as edt:
            edt.invoke_and_wait(lambda: None)
        snap = rec.metrics.snapshot()
        assert snap["edt.events"] >= 1
        assert snap["edt.queue_latency_seconds.n"] >= 1
        assert any(e.kind == "edt" for e in rec.events())


class TestTraceCli:
    """``analyze`` writes the recorded events as Chrome trace JSON
    beside its HTML report."""

    @pytest.fixture()
    def trace_doc(self, tmp_path, capsys):
        assert main(["analyze", "proj2", "-o", str(tmp_path), "--no-record"]) == 0
        captured = capsys.readouterr()
        doc = json.loads((tmp_path / "trace_proj2.json").read_text())
        return doc, captured

    def test_writes_valid_chrome_trace(self, trace_doc):
        doc, _ = trace_doc
        events = doc["traceEvents"]
        assert events, "empty trace"
        assert any(e["cat"] == "task" and e["ph"] == "X" for e in events)
        assert any(e["cat"] in ("steal", "barrier") for e in events)

    def test_prints_report_and_metrics(self, trace_doc):
        doc, captured = trace_doc
        assert "experiment proj2" in captured.out
        assert "trace analysis:" in captured.out
        assert f"{len(doc['traceEvents'])} trace events -> " in captured.err

    def test_unknown_experiment(self, capsys):
        assert main(["analyze", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
