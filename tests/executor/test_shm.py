"""Shared-memory segment lifetimes: the arena and the processes pool.

An argument segment lives exactly as long as the array it was exported
from; a one-shot result segment is unlinked by the parent that reads
it, also when the result is dropped.  On hosts with ``/dev/shm`` the
tests also check that no ``psm_*`` segment outlives them; that check
assumes no other process creates such segments while they run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.apps.kernels.matmul import matmul_tasks
from repro.executor import ExecutorShutdown, create
from repro.executor import shm as shm_plane
from repro.executor.shm import ShmArena

from tests.executor import spawn_tasks

SRC_DIR = Path(__file__).parents[2] / "src"
SHM_DIR = Path("/dev/shm")
needs_dev_shm = pytest.mark.skipif(not SHM_DIR.is_dir(), reason="no /dev/shm on this platform")


def _psm_segments() -> set[str]:
    return {p.name for p in SHM_DIR.glob("psm_*")} if SHM_DIR.is_dir() else set()


def _is_linked(name: str) -> bool:
    return (SHM_DIR / name).exists()


@pytest.fixture
def free_counts(monkeypatch):
    """Count how often each segment is freed, by name."""
    counts: Counter[str] = Counter()
    real_free = shm_plane._free

    def counting_free(shm):
        counts[shm.name] += 1
        real_free(shm)

    monkeypatch.setattr(shm_plane, "_free", counting_free)
    return counts


class TestArena:
    def test_segment_lives_as_long_as_its_array(self):
        arena = ShmArena(threshold=1)
        arr = np.arange(1000.0)
        ref = arena.export(arr)
        assert arena.export(arr) is ref, "a live array is exported once"
        assert arena.segments == 1 and arena.bytes_exported == arr.nbytes
        if SHM_DIR.is_dir():
            assert _is_linked(ref.name)
        del arr
        assert arena.segments == 0
        assert arena.bytes_exported == 8000, "bytes_exported stays cumulative"
        if SHM_DIR.is_dir():
            assert not _is_linked(ref.name)

    def test_close_is_idempotent_and_frees_each_survivor_once(self, free_counts):
        arena = ShmArena(threshold=1)
        arrays = [np.full(64, float(i)) for i in range(3)]
        names = [arena.export(a).name for a in arrays]
        arena.close()
        arena.close()
        assert arena.segments == 0
        del arrays  # the finalizers were detached: no second free
        assert free_counts == Counter(names)
        if SHM_DIR.is_dir():
            assert not any(_is_linked(n) for n in names)

    def test_close_racing_dying_arrays_frees_each_segment_once(self, free_counts):
        arena = ShmArena(threshold=1)
        arrays = [np.full(16, float(i)) for i in range(400)]
        names = [arena.export(a).name for a in arrays]
        start = threading.Barrier(5)

        def drop(share):
            start.wait()
            while share:
                share.pop()  # the array dies here, on this thread

        shares = [arrays[i::4] for i in range(4)]
        del arrays
        threads = [threading.Thread(target=drop, args=(s,)) for s in shares]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            start.wait()
            arena.close()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert free_counts == Counter(names)
        assert arena.segments == 0

    def test_array_dying_under_the_open_lock_does_not_deadlock(self):
        # Cyclic GC can run an arena callback inside an allocation made
        # while this thread holds the module's open lock.  A fresh
        # interpreter, so a deadlock fails this test, not every later one.
        script = (
            "import numpy as np\n"
            "from repro.executor import shm\n"
            "arena = shm.ShmArena(threshold=1)\n"
            "holder = [np.arange(100.0)]\n"
            "arena.export(holder[0])\n"
            "with shm._open_lock:\n"
            "    holder.clear()\n"
            "assert arena.segments == 0\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.fixture(scope="module")
def pool():
    with create("processes", cores=2) as ex:
        yield ex


class TestPoolArena:
    def test_shared_b_ships_once_per_call(self, pool):
        rng = np.random.default_rng(0)
        a, b = rng.random((256, 256)), rng.random((256, 256))
        before = pool._arena.bytes_exported
        assert np.allclose(matmul_tasks(a, b, pool, block=32), a @ b)
        # eight 64 KiB panels (together one ``a``) plus one ``b``, not eight
        assert pool._arena.bytes_exported - before == a.nbytes + b.nbytes

    def test_rounds_hold_at_most_one_rounds_worth(self, pool):
        rng = np.random.default_rng(1)
        for _ in range(6):
            a, b = rng.random((256, 256)), rng.random((256, 256))
            assert np.allclose(matmul_tasks(a, b, pool, block=32), a @ b)
            assert pool._arena.segments <= 8 + 1  # panels + b

    def test_fresh_arrays_never_hit_a_stale_export(self, pool):
        ids = []
        for i in range(240):
            arr = np.full(8192, float(i))  # 64 KiB: over the shm threshold
            ids.append(id(arr))
            assert pool.submit(np.sum, arr).result(timeout=30) == 8192.0 * i
        assert len(set(ids)) < len(ids), "no id was reused; the check proved nothing"


@needs_dev_shm
class TestNoSegmentOutlivesThePool:
    def test_shutdown_leaves_no_segment(self):
        before = _psm_segments()
        kept = np.random.default_rng(2).random((128, 128))
        with create("processes", cores=2) as ex:
            assert np.allclose(matmul_tasks(kept, kept, ex, block=32), kept @ kept)
            assert ex._arena.segments >= 1  # ``kept`` is still alive
        assert _psm_segments() - before == set()

    def test_result_of_a_reclaimed_task_is_unlinked(self):
        # One worker dies; the pool reclaims every shipped task, including
        # the one still running on the other worker, whose large result
        # then arrives for a task that is no longer tracked.
        before = _psm_segments()
        ex = create("processes", cores=2, prefetch=1)
        try:
            ex.submit(os._exit, 3, name="die")
            slow = ex.submit(spawn_tasks.big_result_after, 0.8, 1024, name="slow")
            with pytest.raises(ExecutorShutdown):
                slow.result(timeout=30)
        finally:
            ex.shutdown()
        assert _psm_segments() - before == set()
