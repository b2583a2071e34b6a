"""Tests for task groups."""

import time

import pytest

from repro.executor import Future
from repro.ptask import TaskGroup


class TestTaskGroup:
    def test_join_collects_in_add_order(self, rt):
        g = TaskGroup("g")
        for i in range(4):
            g.add(rt.spawn(lambda i=i: i * 2))
        assert g.join(timeout=5) == [0, 2, 4, 6]

    def test_add_returns_future(self, rt):
        g = TaskGroup()
        f = g.add(rt.spawn(lambda: 1))
        assert f.result(timeout=5) == 1

    def test_extend_and_len(self, rt):
        g = TaskGroup()
        g.extend([rt.spawn(lambda: 1), rt.spawn(lambda: 2)])
        assert len(g) == 2

    def test_join_settled_splits_failures(self, rt):
        def boom():
            raise RuntimeError("g")

        g = TaskGroup()
        g.add(rt.spawn(lambda: 1))
        g.add(rt.spawn(boom))
        g.add(rt.spawn(lambda: 3))
        values, errors = g.join_settled()
        assert values == [1, 3]
        assert len(errors) == 1
        assert isinstance(errors[0], RuntimeError)

    def test_join_raises_first_error(self, rt):
        def boom():
            raise KeyError("x")

        g = TaskGroup()
        g.add(rt.spawn(boom))
        with pytest.raises(KeyError):
            g.join(timeout=5)

    def test_done_and_pending(self, rt):
        g = TaskGroup()
        g.add(rt.spawn(lambda: 1))
        g.join(timeout=5)
        assert g.done()
        assert g.pending_count() == 0

    def test_on_each_done(self, rt):
        g = TaskGroup()
        seen = []
        for i in range(3):
            g.add(rt.spawn(lambda i=i: i))
        g.join(timeout=5)
        g.on_each_done(lambda f: seen.append(f.result()))
        assert sorted(seen) == [0, 1, 2]

    def test_empty_group(self):
        g = TaskGroup()
        assert g.done()
        assert g.join() == []

    def test_join_timeout_is_one_budget(self):
        """Regression-adjacent: joining N unfinished futures with a timeout
        must spend one shared budget, not timeout-per-future."""
        group = TaskGroup("g")
        for i in range(3):
            group.add(Future(f"never{i}"))
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            group.join(timeout=0.3)
        assert time.monotonic() - start < 0.9

    def test_cancel_all_counts(self):
        group = TaskGroup("g")
        done = Future("done")
        done.set_result(1)
        group.add(done)
        pending = [group.add(Future(f"p{i}")) for i in range(3)]
        assert group.cancel_all("abort") == 3
        for fut in pending:
            assert fut.cancelled()
        assert done.result() == 1

    def test_join_cancel_on_timeout(self):
        group = TaskGroup("g")
        hung = group.add(Future("hung"))
        with pytest.raises(TimeoutError):
            group.join(timeout=0.05, cancel_on_timeout=True)
        assert hung.cancelled()

    def test_runtime_spawn_into_group(self, pool_rt):
        group = TaskGroup("work")
        for i in range(4):
            group.add(pool_rt.spawn(lambda i=i: i + 10, name=f"w{i}"))
        assert sorted(group.join(timeout=5.0)) == [10, 11, 12, 13]
