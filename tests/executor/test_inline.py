"""Tests for the sequential reference executor."""

import pytest

from repro.executor import InlineExecutor


class TestInlineExecutor:
    def test_submit_runs_immediately(self):
        ex = InlineExecutor()
        seen = []
        f = ex.submit(lambda: seen.append(1) or "r")
        assert seen == [1]
        assert f.done()
        assert f.result() == "r"

    def test_args_kwargs(self):
        ex = InlineExecutor()
        f = ex.submit(lambda a, b=0: a + b, 1, b=2)
        assert f.result() == 3

    def test_nested_submits(self):
        ex = InlineExecutor()

        def outer():
            inner = ex.submit(lambda: 10)
            return inner.result() + 1

        assert ex.submit(outer).result() == 11

    def test_task_id_unique_and_nested(self):
        ex = InlineExecutor()
        ids = []

        def outer():
            ids.append(ex.task_id())
            ex.submit(lambda: ids.append(ex.task_id()))
            ids.append(ex.task_id())

        assert ex.task_id() == 0
        ex.submit(outer)
        assert ex.task_id() == 0
        assert len(ids) == 3
        assert ids[0] == ids[2]  # restored after nested task
        assert ids[1] != ids[0]

    def test_compute_validates(self):
        ex = InlineExecutor()
        with pytest.raises(ValueError):
            ex.compute(-1)
        ex.compute(5.0)  # no-op

    def test_critical_is_reentrant_noop(self):
        ex = InlineExecutor()
        with ex.critical("a"):
            with ex.critical("a"):
                pass

    def test_barrier_counts_arrivals(self):
        ex = InlineExecutor()
        for _ in range(4):
            ex.barrier("k", parties=4)
        # a full rendezvous completed; internal count back to zero
        assert ex._barrier_counts["k"] == 0

    def test_barrier_validates_parties(self):
        with pytest.raises(ValueError):
            InlineExecutor().barrier("k", parties=0)

    def test_map_preserves_order(self):
        ex = InlineExecutor()
        futures = ex.map(lambda x: x * x, [1, 2, 3, 4])
        assert [f.result() for f in futures] == [1, 4, 9, 16]

    def test_wait_all(self):
        ex = InlineExecutor()
        futures = ex.map(lambda x: x + 1, [0, 1, 2])
        assert ex.wait_all(futures) == [1, 2, 3]

    def test_context_manager(self):
        with InlineExecutor() as ex:
            assert ex.submit(lambda: 1).result() == 1
