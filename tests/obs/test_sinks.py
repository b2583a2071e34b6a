"""Sinks: every serialised form must round-trip through ``json.loads``."""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import JsonlSink, MemorySink, TraceEvent, TraceRecorder, write_chrome_trace

_names = st.text(st.characters(codec="ascii", exclude_characters="\x00"), max_size=12)
_events = st.builds(
    TraceEvent,
    kind=st.sampled_from(["task", "steal", "critical", "barrier", "edt"]),
    name=_names,
    phase=st.sampled_from(["B", "E", "X", "i"]),
    ts=st.floats(0, 1e6, allow_nan=False),
    dur=st.one_of(st.none(), st.floats(0, 1e3, allow_nan=False)),
    task_id=st.integers(0, 10_000),
    worker=st.one_of(st.none(), st.integers(0, 63)),
    group=st.integers(0, 8),
)


class TestMemorySink:
    def test_keeps_order(self):
        sink = MemorySink()
        for i in range(5):
            sink.emit(TraceEvent(kind="task", name=f"t{i}"))
        assert [e.name for e in sink.events] == [f"t{i}" for i in range(5)]
        assert len(sink) == 5
        sink.clear()
        assert len(sink) == 0


class TestJsonlSink:
    def test_round_trip_via_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(TraceEvent(kind="task", name="a", phase="B", ts=0.5, task_id=3))
            sink.emit(TraceEvent(kind="steal", name="s", worker=2, attrs={"victim": 0}))
        lines = path.read_text().splitlines()
        docs = [json.loads(line) for line in lines]
        assert docs[0] == {"kind": "task", "name": "a", "ph": "B", "ts": 0.5, "task": 3, "group": 0}
        assert docs[1]["args"] == {"victim": 0}
        assert docs[1]["worker"] == 2

    def test_stream_target_left_open(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit(TraceEvent(kind="task", name="x"))
        sink.close()
        assert not buf.closed
        assert json.loads(buf.getvalue())["name"] == "x"

    @given(events=st.lists(_events, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_every_line_parses(self, events):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        for e in events:
            sink.emit(e)
        parsed = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert [p["name"] for p in parsed] == [e.name for e in events]


class TestDeterministicFlush:
    def test_jsonl_flush_pushes_lines_to_disk_mid_run(self, tmp_path):
        """Lines must be readable after flush() without closing — the
        long-run tailing case (crash forensics, live dashboards)."""
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit(TraceEvent(kind="task", name="early"))
        sink.flush()
        assert json.loads(path.read_text().splitlines()[0])["name"] == "early"
        sink.emit(TraceEvent(kind="task", name="late"))
        sink.close()
        assert len(path.read_text().splitlines()) == 2

    def test_jsonl_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit(TraceEvent(kind="task", name="x"))
        sink.close()
        sink.close()  # second close must not raise or truncate
        assert len((tmp_path / "t.jsonl").read_text().splitlines()) == 1

    def test_base_sink_flush_is_noop(self):
        MemorySink().flush()  # inherited default: must simply not raise


class TestChromeTraceSink:
    """``write_chrome_trace``: a finished run's events as one Chrome
    ``trace_event`` document (object form, microsecond timestamps)."""

    def test_file_written_on_close(self, tmp_path):
        path = tmp_path / "trace.json"
        event = TraceEvent(kind="task", name="t", phase="X", ts=1.0, dur=0.5)
        assert write_chrome_trace([event], path) == path
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        (ev,) = doc["traceEvents"]
        assert ev["ph"] == "X" and ev["dur"] == 0.5e6

    def test_write_events_one_shot(self, tmp_path):
        rec = TraceRecorder()
        with rec.span("task", "outer", task_id=1):
            rec.event("steal", "s", worker=0)
        out = write_chrome_trace(rec.events(), tmp_path / "t.json")
        doc = json.loads(out.read_text())
        assert [e["ph"] for e in doc["traceEvents"]] == ["B", "i", "E"]

    @given(events=st.lists(_events, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_rendered_doc_parses_and_preserves_count(self, tmp_path_factory, events):
        path = tmp_path_factory.getbasetemp() / "chrome_trace.json"
        doc = json.loads(write_chrome_trace(events, path).read_text())
        assert len(doc["traceEvents"]) == len(events)
        for src, dst in zip(events, doc["traceEvents"]):
            assert dst["cat"] == src.kind
            assert dst["args"]["task"] == src.task_id
