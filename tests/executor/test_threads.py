"""Tests for the work-stealing thread pool (real concurrency)."""

import threading
import time

import pytest

from repro.executor import Future, WorkStealingPool


@pytest.fixture
def pool():
    p = WorkStealingPool(workers=4, name="test")
    yield p
    p.shutdown()


class TestBasicExecution:
    def test_submit_and_result(self, pool):
        assert pool.submit(lambda: 21 * 2).result(timeout=5) == 42

    def test_args_kwargs(self, pool):
        f = pool.submit(lambda a, b=0: a - b, 10, b=4)
        assert f.result(timeout=5) == 6

    def test_many_tasks(self, pool):
        futures = [pool.submit(lambda i=i: i * i) for i in range(200)]
        assert [f.result(timeout=10) for f in futures] == [i * i for i in range(200)]

    def test_runs_on_worker_threads(self, pool):
        names = {pool.submit(lambda: threading.current_thread().name).result(timeout=5) for _ in range(20)}
        assert all(n.startswith("test-w") for n in names)

    def test_map(self, pool):
        futures = pool.map(lambda x: x + 1, list(range(10)))
        assert pool.wait_all(futures) == list(range(1, 11))


class TestRecursiveForkJoin:
    def test_nested_join_does_not_deadlock(self):
        """Recursive fib on a pool smaller than the task tree: helping."""
        with WorkStealingPool(workers=2, name="fj") as pool:

            def fib(n):
                if n < 2:
                    return n
                left = pool.submit(fib, n - 1)
                right = pool.submit(fib, n - 2)
                return left.result(timeout=30) + right.result(timeout=30)

            assert pool.submit(fib, 10).result(timeout=30) == 55

    def test_single_worker_fork_join(self):
        """Even one worker completes a fork-join program via helping."""
        with WorkStealingPool(workers=1, name="one") as pool:

            def tree(depth):
                if depth == 0:
                    return 1
                children = [pool.submit(tree, depth - 1) for _ in range(2)]
                return sum(c.result(timeout=30) for c in children)

            assert pool.submit(tree, 5).result(timeout=30) == 32

    def test_helping_is_counted(self):
        with WorkStealingPool(workers=2, name="help") as pool:

            def parent():
                kids = [pool.submit(lambda: 1) for _ in range(50)]
                return sum(k.result(timeout=30) for k in kids)

            assert pool.submit(parent).result(timeout=30) == 50
        assert pool.stats.tasks_executed == 51


class TestSynchronisation:
    def test_critical_mutual_exclusion(self, pool):
        counter = {"v": 0, "max_inside": 0, "inside": 0}

        def bump():
            with pool.critical("c"):
                counter["inside"] += 1
                counter["max_inside"] = max(counter["max_inside"], counter["inside"])
                v = counter["v"]
                time.sleep(0.0005)
                counter["v"] = v + 1
                counter["inside"] -= 1

        futures = [pool.submit(bump) for _ in range(30)]
        pool.wait_all(futures)
        assert counter["v"] == 30
        assert counter["max_inside"] == 1

    def test_barrier_synchronises(self, pool):
        reached = []
        after = []

        def member(i):
            reached.append(i)
            pool.barrier("team", parties=4)
            after.append((i, len(reached)))

        futures = [pool.submit(member, i) for i in range(4)]
        pool.wait_all(futures)
        # nobody passed the barrier before all four arrived
        assert all(n == 4 for _, n in after)

    def test_barrier_parties_exceeding_workers_rejected(self, pool):
        f = pool.submit(lambda: pool.barrier("big", parties=99))
        with pytest.raises(RuntimeError, match="deadlock"):
            f.result(timeout=5)

    def test_barrier_parties_mismatch_rejected(self, pool):
        futures = [pool.submit(lambda: pool.barrier("mix", parties=2)) for _ in range(2)]
        pool.wait_all(futures)
        f = pool.submit(lambda: pool.barrier("mix", parties=3))
        with pytest.raises(RuntimeError, match="reused"):
            f.result(timeout=5)


class TestComputeModes:
    def test_sleep_mode_takes_time(self):
        with WorkStealingPool(workers=1, compute_mode="sleep", time_scale=0.05) as pool:
            start = time.monotonic()
            pool.submit(lambda: pool.compute(1.0)).result(timeout=5)
            assert time.monotonic() - start >= 0.045

    def test_spin_mode_takes_time(self):
        with WorkStealingPool(workers=1, compute_mode="spin", time_scale=0.02) as pool:
            start = time.monotonic()
            pool.submit(lambda: pool.compute(1.0)).result(timeout=5)
            assert time.monotonic() - start >= 0.015

    def test_noop_mode_fast(self, pool):
        start = time.monotonic()
        pool.submit(lambda: pool.compute(100.0)).result(timeout=5)
        assert time.monotonic() - start < 1.0

    def test_negative_cost_rejected(self, pool):
        with pytest.raises(ValueError):
            pool.compute(-1)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            WorkStealingPool(workers=1, compute_mode="warp")


class TestStealing:
    @staticmethod
    def run_nested_workload(pool, fanout, grandchildren):
        """A worker-spawns-children workload: the case the deques exist for."""

        def child(i):
            grand = [pool.submit(lambda j=j: j, name=f"g{i}.{j}") for j in range(grandchildren)]
            return sum(g.result(timeout=30) for g in grand)

        def parent():
            kids = [pool.submit(child, i) for i in range(fanout)]
            return sum(k.result(timeout=30) for k in kids)

        assert pool.submit(parent).result(timeout=30) == fanout * sum(range(grandchildren))

    def test_stealing_mode_uses_local_deques(self):
        """Nested submits land on the submitting worker's own deque; with
        several workers competing, steals occur (structurally, not by luck:
        the parent blocks-and-helps while others must steal to start)."""
        with WorkStealingPool(workers=4, name="s2") as pool:
            self.run_nested_workload(pool, fanout=40, grandchildren=8)
            stats = pool.stats
        assert stats.tasks_executed == 1 + 40 + 40 * 8

    def test_work_spread_across_workers(self):
        """Non-trivial work spreads over several workers.

        Tasks sleep briefly (releasing the GIL) so that no single worker
        can drain the queue alone even on a one-core host.
        """
        with WorkStealingPool(workers=4, name="w-stealing") as pool:
            pool.wait_all([pool.submit(time.sleep, 0.002) for _ in range(100)])
        busy = [n for n in pool.stats.per_worker_executed if n > 0]
        assert len(busy) >= 2  # more than one worker participated


class TestLifecycle:
    def test_task_id_distinct_per_task(self, pool):
        ids = pool.wait_all([pool.submit(pool.task_id) for _ in range(20)])
        assert len(set(ids)) == 20
        assert pool.task_id() == 0  # main thread is task 0

    def test_worker_validation(self):
        with pytest.raises(ValueError):
            WorkStealingPool(workers=0)

    def test_stats_per_worker_sum(self):
        with WorkStealingPool(workers=3) as pool:
            pool.wait_all([pool.submit(lambda: None) for _ in range(30)])
        assert sum(pool.stats.per_worker_executed) == pool.stats.tasks_executed == 30


def _square(x):
    return x * x


class TestSubmitMany:
    def test_submit_many_from_worker_thread(self, pool):
        def fan_out():
            futures = pool.submit_many(_square, [(i,) for i in range(10)])
            return [f.result(timeout=10) for f in futures]

        assert pool.submit(fan_out).result(timeout=10) == [i * i for i in range(10)]


class TestTimeoutBudget:
    def test_result_timeout_is_spent_once(self):
        """Regression: ``result(timeout=t)`` used to wait up to ``t`` in
        the help loop and then up to ``t`` again in the base wait —
        doubling the caller's deadline."""
        pool = WorkStealingPool(workers=1, compute_mode="sleep", time_scale=1.0)
        try:
            never = Future("external")  # not pool-managed: helping can't finish it
            gated = pool.submit(lambda: 1, after=[never], name="gated")
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                gated.result(timeout=0.3)
            elapsed = time.monotonic() - start
            assert elapsed < 0.9, f"timeout double-spent: waited {elapsed:.2f}s"
        finally:
            never.set_result(None)
            pool.shutdown()
