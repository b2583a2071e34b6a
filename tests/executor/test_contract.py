"""The task lifecycle of ``executor/base.py``, held against every backend.

Each case runs on every registered backend (``registry.available()``).
Cases branch only on declared capabilities and on what a backend can be
seen to do (is a future already done when ``submit`` returns?), never
on a backend's name.  Task bodies come from ``spawn_tasks`` or the
standard library, so the processes backend can unpickle them.
"""

from __future__ import annotations

import operator
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.executor import ExecutorShutdown, Future, available, create, get_backend
from repro.resilience import (
    CancelledError,
    CancelToken,
    DeadlineExceeded,
    FaultPlan,
    InjectedFault,
)

from tests.executor import spawn_tasks

KINDS = available()


def make(kind: str, cores: int = 2, **kwargs):
    """A fresh executor of ``kind``; single-core backends take no core count."""
    return create(kind, cores=None if get_backend(kind).single_core else cores, **kwargs)


def cancelled_token() -> CancelToken:
    token = CancelToken("stop")
    token.cancel("stopped before submit")
    return token


def eager(ex) -> bool:
    """Whether ``ex`` runs each task at submit, so nothing ever waits."""
    return ex.submit(time.sleep, 0.01, name="probe").done()


def hold(ex, seconds: float) -> list | None:
    """Occupy every worker, and every in-flight slot, with a sleeper.

    ``None`` on an eager backend.  The processes backend ships up to
    ``workers * prefetch`` tasks before it holds any in the parent.
    """
    if eager(ex):
        return None
    slots = ex.cores * getattr(ex, "prefetch", 1)
    return [ex.submit(time.sleep, seconds, name=f"holder{i}") for i in range(slots)]


def psm_segments() -> set[str]:
    return {p.name for p in Path("/dev/shm").glob("psm_*")}


@pytest.fixture(scope="module", params=KINDS)
def backend(request):
    return get_backend(request.param)


@pytest.fixture(scope="module")
def ex(backend):
    """One executor per backend, shared by the cases that leave it usable."""
    with make(backend.name) as executor:
        yield executor


@pytest.fixture(params=KINDS)
def kind(request):
    """A backend name, for cases that need a fresh executor."""
    return request.param


class TestAfter:
    def test_dependent_starts_after_its_dependency(self, ex):
        dep = ex.submit(spawn_tasks.now_after, 0.2, name="dep")
        # a second worker is idle: only the dependency edge holds this back
        dependent = ex.submit(spawn_tasks.now_after, 0.0, name="dependent", after=[dep])
        assert dependent.result(timeout=10) >= dep.result(timeout=10)

    def test_cancelled_dependency_cancels_the_dependent(self, ex):
        dep = ex.submit(spawn_tasks.now_after, 0.0, name="dep", cancel=cancelled_token())
        dependent = ex.submit(spawn_tasks.now_after, 0.0, name="dependent", after=[dep])
        with pytest.raises(CancelledError, match="dependency 'dep' was cancelled"):
            dependent.result(timeout=10)
        assert dependent.cancelled()

    def test_failed_dependency_fails_the_dependent(self, ex):
        dep = ex.submit(spawn_tasks.fail_after, 0.1, name="dep")
        dependent = ex.submit(spawn_tasks.now_after, 0.0, name="dependent", after=[dep])
        with pytest.raises(RuntimeError, match="dependency failed"):
            dependent.result(timeout=10)
        assert not dependent.cancelled()

    @pytest.mark.parametrize("first", ["cancelled", "failed"])
    def test_first_bad_dependency_in_order_settles(self, ex, first):
        failed = ex.submit(spawn_tasks.fail_after, 0.0, name="failed")
        failed.exception(timeout=10)
        cancelled = ex.submit(int, 1, name="cancelled", cancel=cancelled_token())
        after = [cancelled, failed] if first == "cancelled" else [failed, cancelled]
        dependent = ex.submit(int, 2, name="dependent", after=after)
        dependent.exception(timeout=10)
        assert dependent.cancelled() == (first == "cancelled")

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_cancel_closure_property(self, ex, data):
        """Cancelling one DAG node cancels exactly its downstream closure;
        every other node still runs."""
        n = data.draw(st.integers(min_value=3, max_value=8), label="n")
        edges = {
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if data.draw(st.booleans(), label=f"edge{i}->{j}")
        }
        victim = data.draw(st.integers(min_value=0, max_value=n - 1), label="victim")
        closure = {victim}
        for i in range(n):  # edges only go forward, one pass suffices
            if any((p, i) in edges for p in closure):
                closure.add(i)

        root = ex.submit(time.sleep, 0.02, name="root")  # pool nodes wait on it
        futs = []
        for i in range(n):
            deps = [root, *(futs[p] for p in range(i) if (p, i) in edges)]
            token = cancelled_token() if i == victim else None
            futs.append(ex.submit(int, i, name=f"n{i}", after=deps, cancel=token))
        for i, fut in enumerate(futs):
            if i in closure:
                with pytest.raises(CancelledError):
                    fut.result(timeout=10)
                assert fut.cancelled()
            else:
                assert fut.result(timeout=10) == i


class TestCancel:
    def test_token_cancelled_before_submit(self, ex):
        fut = ex.submit(int, 1, name="t", cancel=cancelled_token())
        with pytest.raises(CancelledError, match="'stop'"):
            fut.result(timeout=10)
        assert fut.cancelled()

    def test_queued_task_cancelled_never_runs(self, ex, tmp_path):
        holders = hold(ex, 0.3)
        if holders is None:
            pytest.skip("tasks run at submit: nothing waits in a queue")
        token = CancelToken("batch")
        marks = [tmp_path / f"ran{i}" for i in range(3)]
        by_token = [ex.submit(spawn_tasks.touch, str(m), cancel=token) for m in marks[:2]]
        by_future = ex.submit(spawn_tasks.touch, str(marks[2]))
        token.cancel("user aborted")
        assert by_future.cancel("changed my mind")
        for fut in [*by_token, by_future]:
            with pytest.raises(CancelledError):
                fut.result(timeout=10)
        for h in holders:
            h.result(timeout=10)
        assert not any(m.exists() for m in marks)


class TestDeadline:
    def test_zero_deadline_cancels(self, ex):
        fut = ex.submit(int, 1, name="late", deadline=0)
        with pytest.raises(DeadlineExceeded, match="missed its deadline"):
            fut.result(timeout=10)

    def test_generous_deadline_lets_task_run(self, ex):
        assert ex.submit(int, 7, deadline=30.0).result(timeout=10) == 7

    def test_overdue_queued_task_is_reaped_in_the_queue(self, ex):
        holders = hold(ex, 0.6)
        if holders is None:
            pytest.skip("tasks run at submit: nothing waits in a queue")
        start = time.monotonic()
        late = ex.submit(int, 1, name="late", deadline=0.05)
        with pytest.raises(DeadlineExceeded):
            late.result(timeout=10)
        # cancelled while every worker is still busy, not when one frees up
        assert time.monotonic() - start < 0.5
        for h in holders:
            h.result(timeout=10)

    def test_deadline_counts_while_waiting_on_after(self, ex):
        if eager(ex):
            pytest.skip("tasks run at submit: nothing waits on a pending dependency")
        gate = Future("gate")
        late = ex.submit(int, 1, name="late", after=[gate], deadline=0.05)
        with pytest.raises(DeadlineExceeded):
            late.result(timeout=10)
        gate.set_result(None)  # released after its deadline: stays cancelled

    def test_negative_deadline_rejected(self, ex):
        with pytest.raises(ValueError, match="deadline"):
            ex.submit(int, 1, deadline=-1.0)


class TestExceptions:
    def test_exception_propagates(self, ex):
        with pytest.raises(RuntimeError, match="dependency failed"):
            ex.submit(spawn_tasks.fail_after, 0.0).result(timeout=10)

    def test_system_exit_fails_the_future_and_workers_live_on(self, ex):
        try:
            futs = [ex.submit(spawn_tasks.exit_with, 3) for _ in range(ex.cores)]
        except SystemExit:
            return  # the body ran on the caller and raised to it
        for fut in futs:
            with pytest.raises(SystemExit):
                fut.result(timeout=10)
        assert ex.submit(int, 5).result(timeout=10) == 5


class TestSubmitMany:
    def test_futures_in_order(self, ex):
        futs = ex.submit_many(operator.sub, [(10, i) for i in range(8)])
        assert [f.result(timeout=10) for f in futs] == [10 - i for i in range(8)]
        assert ex.submit_many(operator.sub, []) == []

    def test_costs_length_checked(self, ex):
        with pytest.raises(ValueError, match="costs"):
            ex.submit_many(operator.neg, [(1,), (2,)], costs=[0.1])


class TestShutdown:
    def test_drain_finishes_queued_work(self, kind):
        ex = make(kind, cores=1)
        futs = [ex.submit(operator.mul, i, i, name=f"sq{i}") for i in range(6)]
        ex.shutdown(drain=True)
        assert [f.result(timeout=0) for f in futs] == [i * i for i in range(6)]

    def test_no_drain_strands_queued_work(self, kind):
        ex = make(kind, cores=1)
        holders = hold(ex, 0.3)
        queued = [ex.submit(int, i, name=f"q{i}") for i in range(4)]
        ex.shutdown(drain=False)
        outcomes = []
        for fut in queued:
            assert fut.done(), "non-draining shutdown left a future pending"
            exc = fut.exception(timeout=0)
            assert exc is None or isinstance(exc, ExecutorShutdown)
            outcomes.append(exc is None)
        if holders is not None:
            assert not any(outcomes), "a task queued behind busy workers ran"

    def test_submit_after_shutdown_raises(self, kind):
        ex = make(kind)
        ex.shutdown()
        with pytest.raises(ExecutorShutdown):
            ex.submit(int, 1)
        with pytest.raises(ExecutorShutdown):
            ex.submit_many(operator.neg, [(1,)])


def test_fault_plan_fails_every_task(kind):
    with make(kind, faults=FaultPlan(seed=1, task_failure_rate=1.0)) as ex:
        futs = [ex.submit(int, i, name=f"t{i}") for i in range(4)]
        for fut in futs:
            with pytest.raises(InjectedFault, match="failed by fault plan"):
                fut.result(timeout=10)


def test_barriers_as_declared(ex, backend):
    if not backend.capabilities.barriers:
        with pytest.raises(RuntimeError, match="barrier"):
            ex.barrier("team", 2)
        return
    team = [ex.submit(ex.barrier, "team", 2, name=f"m{i}") for i in range(2)]
    assert [f.result(timeout=10) for f in team] == [None, None]
    with pytest.raises(ValueError, match="parties"):
        ex.barrier("team", 0)


def test_dead_worker_breaks_the_pool(kind):
    if not get_backend(kind).capabilities.out_of_process:
        pytest.skip("workers share the caller's process: none can die alone")
    before = psm_segments()
    ex = make(kind, cores=1)
    try:
        gate = Future("gate")
        waiting = ex.submit(int, 1, name="waiting", after=[gate])
        # the argument rides shared memory: its segment must go too
        doomed = ex.submit(spawn_tasks.kill_worker, 3, np.ones(1 << 16))
        with pytest.raises(ExecutorShutdown, match="broken"):
            doomed.result(timeout=30)
        with pytest.raises(ExecutorShutdown):
            ex.submit(int, 1)
        gate.set_result(None)  # released into a broken pool: fails, never hangs
        with pytest.raises(ExecutorShutdown):
            waiting.result(timeout=10)
    finally:
        ex.shutdown()
    assert psm_segments() - before == set()
