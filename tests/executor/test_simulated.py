"""Tests for the virtual-time executor."""

import pytest

from repro.executor import SimExecutor
from repro.machine import MachineSpec


def machine(cores, **kw):
    kw.setdefault("dispatch_overhead", 0.0)
    return MachineSpec(name=f"m{cores}", cores=cores, **kw)


class TestValues:
    def test_values_match_inline_semantics(self):
        ex = SimExecutor(machine(4))
        f = ex.submit(lambda a, b: a * b, 6, 7, cost=1.0)
        assert f.result() == 42

    def test_nested_tasks(self):
        ex = SimExecutor(machine(4))

        def outer():
            inner = ex.submit(lambda: 5, cost=1.0)
            return inner.result() * 2

        assert ex.submit(outer, cost=0.5).result() == 10


class TestTiming:
    def test_independent_tasks_parallelise(self):
        ex = SimExecutor(machine(4))
        for _ in range(8):
            ex.submit(lambda: None, cost=1.0)
        assert ex.elapsed() == pytest.approx(2.0)

    def test_single_core_serialises(self):
        ex = SimExecutor(machine(1))
        for _ in range(8):
            ex.submit(lambda: None, cost=1.0)
        assert ex.elapsed() == pytest.approx(8.0)

    def test_join_creates_serial_dependency(self):
        """main waits for A, then spawns B: A and B cannot overlap."""
        ex = SimExecutor(machine(4))
        fa = ex.submit(lambda: "a", cost=2.0)
        fa.result()
        ex.submit(lambda: "b", cost=2.0)
        assert ex.elapsed() == pytest.approx(4.0)

    def test_no_join_allows_overlap(self):
        ex = SimExecutor(machine(4))
        ex.submit(lambda: "a", cost=2.0)
        ex.submit(lambda: "b", cost=2.0)
        assert ex.elapsed() == pytest.approx(2.0)

    def test_compute_adds_to_current_task(self):
        ex = SimExecutor(machine(1))

        def work():
            ex.compute(3.0)

        ex.submit(work)
        assert ex.elapsed() == pytest.approx(3.0)

    def test_after_dependency_serialises(self):
        ex = SimExecutor(machine(4))
        fa = ex.submit(lambda: None, cost=1.0, name="a")
        ex.submit(lambda: None, cost=1.0, name="b", after=[fa])
        assert ex.elapsed() == pytest.approx(2.0)

    def test_foreign_after_future_rejected(self):
        from repro.executor.future import Future

        ex = SimExecutor(machine(2))
        foreign = Future("foreign")
        foreign.set_result(None)
        with pytest.raises(RuntimeError, match="SimExecutor"):
            ex.submit(lambda: None, after=[foreign])

    def test_rescheduling_on_other_machines(self):
        """One recording, many machines: the core-sweep primitive."""
        ex = SimExecutor(machine(1))
        for _ in range(16):
            ex.submit(lambda: None, cost=1.0)
        times = {p: ex.schedule(machine(p)).makespan for p in (1, 2, 4, 8, 16)}
        assert times[1] == pytest.approx(16.0)
        assert times[4] == pytest.approx(4.0)
        assert times[16] == pytest.approx(1.0)

    def test_fork_join_speedup_shape(self):
        """Recursive fork-join shows sublinear-but-real speedup."""

        def build(ex):
            def node(depth):
                if depth == 0:
                    ex.compute(1.0)
                    return 1
                left = ex.submit(node, depth - 1)
                right = ex.submit(node, depth - 1)
                return left.result() + right.result()

            root = ex.submit(node, 4)
            assert root.result() == 16
            return ex

        t1 = build(SimExecutor(machine(1))).elapsed()
        t8 = build(SimExecutor(machine(8))).elapsed()
        assert t1 == pytest.approx(16.0)
        assert t8 < t1 / 3  # real speedup
        assert t8 >= 1.0  # bounded by span


class TestCritical:
    def test_critical_sections_serialise(self):
        ex = SimExecutor(machine(4))

        def work():
            with ex.critical("shared"):
                ex.compute(1.0)

        for _ in range(4):
            ex.submit(work)
        # 4 critical sections on the same lock cannot overlap.
        assert ex.elapsed() == pytest.approx(4.0)

    def test_distinct_locks_do_not_serialise(self):
        ex = SimExecutor(machine(4))

        def work(i):
            with ex.critical(f"lock{i}"):
                ex.compute(1.0)

        for i in range(4):
            ex.submit(work, i)
        assert ex.elapsed() == pytest.approx(1.0)

    def test_work_outside_critical_still_parallel(self):
        ex = SimExecutor(machine(4))

        def work():
            ex.compute(2.0)
            with ex.critical("l"):
                ex.compute(0.5)

        for _ in range(4):
            ex.submit(work)
        t = ex.elapsed()
        assert t < 2.0 + 4 * 0.5 + 0.5  # overlap of the parallel part
        assert t >= 2.0 + 4 * 0.5 - 1e-9  # lock chain after own work


class TestBarrier:
    def test_barrier_synchronises_team(self):
        """Post-barrier work cannot start before every pre-barrier part."""
        ex = SimExecutor(machine(4))

        def member(i):
            ex.compute(float(i + 1))  # staggered pre-barrier work: 1..4
            ex.barrier("b", parties=4)
            ex.compute(1.0)

        for i in range(4):
            ex.submit(member, i)
        # slowest pre-barrier is 4.0; then 1.0 post-barrier each in parallel
        assert ex.elapsed() == pytest.approx(5.0)

    def test_cyclic_barrier_reuse(self):
        ex = SimExecutor(machine(2))

        def member():
            for _ in range(3):
                ex.compute(1.0)
                ex.barrier("loop", parties=2)

        ex.submit(member)
        ex.submit(member)
        assert ex.elapsed() == pytest.approx(3.0)
        assert ex.pending_barriers() == []

    def test_incomplete_barrier_detected(self):
        ex = SimExecutor(machine(2))

        def member():
            ex.barrier("b", parties=2)

        ex.submit(member)  # only one of two parties ever arrives
        with pytest.raises(RuntimeError, match="barrier"):
            ex.schedule()

    def test_surplus_arrival_leaves_pending_rendezvous(self):
        """A third task at a 2-party barrier starts a rendezvous that never
        completes — a real program would hang there, and schedule() says so."""
        ex = SimExecutor(machine(4))
        for _ in range(3):
            ex.submit(lambda: ex.barrier("b", parties=2))
        assert ex.pending_barriers() == ["b"]
        with pytest.raises(RuntimeError, match="barrier"):
            ex.schedule()

    def test_shrinking_parties_rejected(self):
        """Inconsistent parties within one rendezvous is a program bug."""
        ex = SimExecutor(machine(4))
        ex.submit(lambda: ex.barrier("b", parties=3))
        ex.submit(lambda: ex.barrier("b", parties=3))
        f = ex.submit(lambda: ex.barrier("b", parties=2))
        assert isinstance(f.exception(), RuntimeError)

    def test_generations_tracked_per_task(self):
        """Each member's k-th arrival joins rendezvous generation k, so a
        fast member cannot complete a rendezvous with itself."""
        ex = SimExecutor(machine(2))

        def member():
            ex.barrier("g", parties=2)
            ex.barrier("g", parties=2)

        ex.submit(member)  # arrives twice before the second member exists
        assert ex.pending_barriers() == ["g"]
        ex.submit(member)
        assert ex.pending_barriers() == []


class TestTaskIdentity:
    def test_task_ids_nest(self):
        ex = SimExecutor(machine(2))
        seen = []

        def outer():
            seen.append(ex.task_id())
            ex.submit(lambda: seen.append(ex.task_id()))
            seen.append(ex.task_id())

        assert ex.task_id() == 0
        ex.submit(outer)
        assert ex.task_id() == 0
        assert seen[0] == seen[2] != seen[1]
