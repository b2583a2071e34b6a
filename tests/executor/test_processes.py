"""The processes backend: results, shm plane, traces, lifecycle.

Everything submitted here is a module-level function from the ``repro``
package (or NumPy), so the spawn-started workers can unpickle tasks
without importing the test module — the same spawn-safety discipline the
backend asks of applications.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.apps.kernels.matmul import matmul_tasks
from repro.apps.sorting import quicksort_chunks
from repro.executor import create
from repro.executor.processes import usable_cpus
from repro.obs import TraceRecorder
from repro.resilience import FaultPlan, InjectedFault

from tests.executor.spawn_tasks import THREAD_VARS, thread_env


@pytest.fixture(scope="module")
def pool():
    """One shared 2-worker pool: spawn cost is paid once per module."""
    with create("processes", cores=2) as ex:
        yield ex


class TestResults:
    def test_submit_returns_results(self, pool):
        futures = [pool.submit(np.sum, np.arange(i + 1), name=f"s{i}") for i in range(6)]
        assert [int(f.result()) for f in futures] == [0, 1, 3, 6, 10, 15]

    def test_exceptions_propagate(self, pool):
        f = pool.submit(np.linalg.inv, np.zeros((2, 2)), name="singular")
        with pytest.raises(np.linalg.LinAlgError):
            f.result()

    def test_matmul_through_the_shm_plane(self, pool):
        rng = np.random.default_rng(0)
        a, b = rng.random((160, 160)), rng.random((160, 160))  # > shm threshold
        assert np.allclose(matmul_tasks(a, b, pool, block=40), a @ b)

    def test_quicksort_chunks(self, pool):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 10_000, size=50_000)
        assert np.array_equal(quicksort_chunks(pool, values, chunks=4), np.sort(values))

    def test_map_preserves_order(self, pool):
        futures = pool.map(np.sum, [np.arange(n) for n in (3, 1, 2)])
        assert [int(f.result()) for f in futures] == [3, 0, 1]

    def test_cores_reported(self, pool):
        assert pool.cores == 2

    def test_barrier_unsupported(self, pool):
        with pytest.raises(RuntimeError, match="no cross-process barriers"):
            pool.barrier("phase", 2)


class TestTraceShards:
    def test_merged_trace_attributes_work_to_worker_processes(self):
        recorder = TraceRecorder()
        with create("processes", cores=2, trace=recorder) as ex:
            futures = [ex.submit(np.sum, np.arange(64), name=f"t{i}") for i in range(8)]
            for f in futures:
                f.result()
        events = recorder.events()
        submits = [e for e in events if e.kind == "submit"]
        spans = [e for e in events if e.kind == "task" and e.phase == "B"]
        assert len(submits) == 8
        assert len(spans) == 8
        # every executed span carries its worker lane and worker pid
        assert {e.worker for e in spans} <= {0, 1}
        pids = {e.attrs.get("pid") for e in spans}
        assert pids and None not in pids
        counters = recorder.metrics.snapshot()
        assert counters.get("procs.submitted") == 8
        assert counters.get("procs.tasks_executed") == 8


class TestLifecycle:
    def test_seeded_faults_are_deterministic_across_processes(self):
        plan = FaultPlan(seed=7, task_failure_rate=0.4)

        def outcomes():
            with create("processes", cores=2, faults=plan) as ex:
                futures = [ex.submit(np.sum, np.arange(4), name=f"t{i}") for i in range(12)]
                out = []
                for f in futures:
                    try:
                        f.result(timeout=30)
                        out.append("ok")
                    except InjectedFault:
                        out.append("fault")
                return out

        first, second = outcomes(), outcomes()
        assert first == second
        assert "fault" in first and "ok" in first


class TestConfigSurface:
    def test_unknown_option_rejected_without_spawning(self):
        with pytest.raises(ValueError, match="not understood by the 'processes'"):
            create("processes", cores=2, steal_seed=3)

    def test_alias_creates_processes(self):
        ex = create("mp", cores=1)
        try:
            assert type(ex).__name__ == "ProcessPool"
        finally:
            ex.shutdown()


class TestNativeThreadBudget:
    """Each worker's BLAS/OpenMP runtime gets its share of the usable
    CPUs, through variables the parent sets only while workers start."""

    @pytest.fixture(autouse=True)
    def no_user_setting(self, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)

    @staticmethod
    def worker_envs(cores: int) -> list[dict]:
        with create("processes", cores=cores) as ex:
            return [f.result() for f in [ex.submit(thread_env) for _ in range(4 * cores)]]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_workers_get_their_cpu_share(self, cores):
        share = str(max(1, usable_cpus() // cores))
        assert self.worker_envs(cores) == [dict.fromkeys(THREAD_VARS, share)] * (4 * cores)

    def test_parent_environment_is_unchanged(self):
        before = dict(os.environ)
        ex = create("processes", cores=2)
        try:
            assert dict(os.environ) == before
        finally:
            ex.shutdown()
        assert dict(os.environ) == before

    def test_user_setting_passes_through(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        expected = {"OMP_NUM_THREADS": "3", "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        assert self.worker_envs(2) == [expected] * 8
