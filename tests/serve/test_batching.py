"""Micro-batch policy: close-on-size, close-on-age, per-item isolation."""

from dataclasses import dataclass

import pytest

from repro.serve.batching import BatchPolicy, MicroBatcher, run_batch


@dataclass
class Req:
    task: str


class TestMicroBatcher:
    def test_closes_at_max_size(self):
        b = MicroBatcher(BatchPolicy(max_size=3, max_delay=1.0))
        assert b.add(Req("panel"), 0.0) is None
        assert b.add(Req("panel"), 0.0) is None
        batch = b.add(Req("panel"), 0.0)
        assert batch is not None and batch.size == 3
        assert b.pending() == 0

    def test_kinds_batch_separately(self):
        b = MicroBatcher(BatchPolicy(max_size=2, max_delay=1.0))
        assert b.add(Req("panel"), 0.0) is None
        assert b.add(Req("thumb"), 0.0) is None
        assert b.add(Req("panel"), 0.0).kind == "panel"
        assert b.pending() == 1  # the thumb still waits

    def test_due_after_max_delay(self):
        b = MicroBatcher(BatchPolicy(max_size=10, max_delay=0.5))
        b.add(Req("panel"), 0.0)
        assert b.due(0.4) == []
        due = b.due(0.5)
        assert len(due) == 1 and due[0].opened_at == 0.0

    def test_age_measured_from_oldest_request(self):
        b = MicroBatcher(BatchPolicy(max_size=10, max_delay=0.5))
        b.add(Req("panel"), 0.0)
        b.add(Req("panel"), 0.45)  # joining late must not reset the clock
        assert len(b.due(0.5)) == 1

    def test_next_deadline_tracks_earliest_open_batch(self):
        b = MicroBatcher(BatchPolicy(max_size=10, max_delay=0.5))
        assert b.next_deadline() is None
        b.add(Req("thumb"), 0.2)
        b.add(Req("panel"), 0.1)
        assert b.next_deadline() == pytest.approx(0.6)

    def test_close_oldest_takes_the_earliest_batch_whatever_its_kind(self):
        b = MicroBatcher(BatchPolicy(max_size=10, max_delay=0.5))
        assert b.close_oldest() is None
        b.add(Req("thumb"), 0.2)
        b.add(Req("panel"), 0.1)  # opened second, but earlier in time
        b.add(Req("thumb"), 0.3)
        first = b.close_oldest()
        assert (first.kind, first.opened_at, first.size) == ("panel", 0.1, 1)
        second = b.close_oldest()
        assert (second.kind, second.opened_at, second.size) == ("thumb", 0.2, 2)
        assert b.close_oldest() is None and b.pending() == 0

    def test_flush_closes_everything(self):
        b = MicroBatcher(BatchPolicy(max_size=10, max_delay=0.5))
        b.add(Req("panel"), 0.0)
        b.add(Req("thumb"), 0.0)
        assert sorted(x.kind for x in b.flush()) == ["panel", "thumb"]
        assert b.pending() == 0

    def test_max_size_one_closes_immediately(self):
        b = MicroBatcher(BatchPolicy(max_size=1, max_delay=1.0))
        assert b.add(Req("panel"), 0.0).size == 1


class TestRunBatch:
    def test_results_align_with_calls(self):
        out = run_batch([(int, ("7",), {}), (str.upper, ("ab",), {})])
        assert out == [("ok", 7), ("ok", "AB")]

    def test_one_bad_item_does_not_poison_batchmates(self):
        def boom():
            raise ValueError("nope")

        out = run_batch([(boom, (), {}), (int, ("3",), {})])
        assert out[0][0] == "err" and isinstance(out[0][1], ValueError)
        assert out[1] == ("ok", 3)
