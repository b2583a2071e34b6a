"""Shared-memory segment lifetimes: the arena and the processes pool.

An argument segment serves its array while the array lives, then stays
parked for the next export of a similar size until the arena closes; a
one-shot result segment is unlinked by the parent that reads it, also
when the result is dropped.  On hosts with ``/dev/shm`` the
tests also check that no ``psm_*`` segment outlives them; that check
assumes no other process creates such segments while they run.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.apps.kernels.matmul import matmul_tasks
from repro.apps.sorting import quicksort_chunks
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


def _parked_bytes(arena: ShmArena) -> int:
    return sum(shm.size for shm in arena._state.parked.copy().values())


def _held_bytes(arena: ShmArena) -> int:
    live = sum(entry[1].size for entry in arena._state.exports.copy().values())
    return live + _parked_bytes(arena)


def _settle(arena: ShmArena, timeout: float = 10.0) -> None:
    """Wait until no exported array is alive: a task's arguments are
    dropped just after its future resolves, on the pool's collector."""
    deadline = time.monotonic() + timeout
    while arena.segments and time.monotonic() < deadline:
        time.sleep(0.001)
    assert arena.segments == 0


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that can import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def _counts(free_counts: Counter, names: list[str]) -> Counter:
    """The free counts of ``names`` alone: another test's arena that is
    collected meanwhile frees its parked segments through ``_free`` too."""
    return Counter({name: free_counts[name] for name in names})


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
    def test_dead_arrays_segment_stays_parked_until_close(self):
        arena = ShmArena(threshold=1)
        arr = np.arange(1000.0)
        ref = arena.export(arr)
        assert arena.export(arr) is ref, "a live array is exported once"
        assert arena.segments == 1 and arena.bytes_exported == arr.nbytes
        if SHM_DIR.is_dir():
            assert _is_linked(ref.name)
        del arr
        assert arena.segments == 0, "the cache entry goes with the array"
        assert arena.bytes_exported == 8000, "bytes_exported stays cumulative"
        if SHM_DIR.is_dir():
            assert _is_linked(ref.name), "the segment is parked for reuse"
        arena.close()
        if SHM_DIR.is_dir():
            assert not _is_linked(ref.name)

    def test_parked_segment_serves_only_arrays_it_fits(self):
        arena = ShmArena(threshold=1)
        first = np.arange(1000.0)
        name = arena.export(first).name
        del first
        small = np.arange(300.0)
        assert arena.export(small).name != name, "over twice the array's size"
        second = np.full(1000, 7.0)
        assert arena.export(second).name == name
        arena.close()

    def test_miss_frees_the_largest_parked_segment_too_small(self, free_counts):
        arena = ShmArena(threshold=1)
        a, b = np.arange(100.0), np.arange(200.0)
        smaller, larger = arena.export(a).name, arena.export(b).name
        del a, b
        big = np.arange(1000.0)
        assert arena.export(big).name not in (smaller, larger)
        assert (free_counts[smaller], free_counts[larger]) == (0, 1)
        arena.close()

    def test_held_bytes_stay_within_twice_the_live_peak(self):
        # Each generation holds twice as many arrays, each a little under
        # half the size of the last, so no parked segment ever fits again
        # and none is ever too small to replace.  Without the bound the
        # parked bytes pass twice the peak in the third generation.
        arena = ShmArena(threshold=1)
        peak = 0
        for gen in range(7):
            arrays = [np.ones(int(16384 / 2.1**gen)) for _ in range(2**gen)]
            for arr in arrays:
                arena.export(arr)
            peak = max(peak, sum(arr.nbytes for arr in arrays))
            assert _held_bytes(arena) <= 2 * peak
            del arrays, arr
            assert _held_bytes(arena) <= 2 * peak
        arena.close()

    def test_close_is_idempotent_and_frees_each_survivor_once(self, free_counts):
        arena = ShmArena(threshold=1)
        arrays = [np.full(64, float(i)) for i in range(3)]
        names = [arena.export(a).name for a in arrays]
        arena.close()
        arena.close()
        assert arena.segments == 0
        del arrays  # the finalizers were detached: no second free
        assert _counts(free_counts, names) == Counter(names)
        if SHM_DIR.is_dir():
            assert not any(_is_linked(n) for n in names)

    def test_close_racing_dying_arrays_frees_each_segment_once(self, free_counts):
        arena = ShmArena(threshold=1)
        arrays = [np.full(16, float(i)) for i in range(800)]
        names = [arena.export(a).name for a in arrays]
        del arrays[400:]  # these die first: parked when close() starts
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
        assert _counts(free_counts, names) == Counter(names)
        assert arena.segments == 0

    def test_array_dying_after_close_frees_its_segment_at_once(self, free_counts):
        arena = ShmArena(threshold=1)
        arena.close()
        arr = np.arange(100.0)
        name = arena.export(arr).name
        del arr
        assert free_counts[name] == 1, "freed, not parked"
        if SHM_DIR.is_dir():
            assert not _is_linked(name)

    @needs_dev_shm
    def test_exit_without_close_leaves_no_segment(self):
        proc = _run_fresh(
            "import numpy as np\n"
            "from repro.executor import shm\n"
            "arena = shm.ShmArena(threshold=1)\n"
            "dropped, kept = np.arange(100.0), np.arange(200.0)\n"
            "print(arena.export(dropped).name, arena.export(kept).name)\n"
            "del dropped\n"
        )
        names = proc.stdout.split()
        assert len(names) == 2
        assert not any(_is_linked(n) for n in names)

    def test_array_dying_under_the_open_lock_does_not_deadlock(self):
        # Cyclic GC can run an arena callback inside an allocation made
        # while this thread holds the module's open lock.  A fresh
        # interpreter, so a deadlock fails this test, not every later one.
        _run_fresh(
            "import numpy as np\n"
            "from repro.executor import shm\n"
            "arena = shm.ShmArena(threshold=1)\n"
            "holder = [np.arange(100.0)]\n"
            "arena.export(holder[0])\n"
            "with shm._open_lock:\n"
            "    holder.clear()\n"
            "assert arena.segments == 0\n"
        )


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
        ids, names = [], set()
        for i in range(240):
            arr = np.full(8192, float(i))  # 64 KiB: over the shm threshold
            ids.append(id(arr))
            assert pool.submit(np.sum, arr).result(timeout=30) == 8192.0 * i
            names.add(pool._arena.export(arr).name)  # cached: the task's segment
        assert len(set(ids)) < len(ids), "no id was reused; the check proved nothing"
        assert len(names) < len(ids), "no segment was reused; the check proved nothing"

    def test_dead_exports_segment_serves_the_next_same_size_array(self, pool):
        first = np.full(9000, 1.0)
        assert pool.submit(np.sum, first).result(timeout=30) == 9000.0
        name = pool._arena.export(first).name
        del first
        _settle(pool._arena)
        second = np.full(9000, 2.0)
        assert pool._arena.export(second).name == name
        assert pool.submit(np.sum, second).result(timeout=30) == 18000.0

    def test_mixed_sizes_create_segments_only_in_the_first_rounds(self, pool, monkeypatch):
        created = []
        real_open = shm_plane.open_untracked

        def counting_open(name=None, create=False, size=0):
            if create:
                created.append(size)
            return real_open(name=name, create=create, size=size)

        monkeypatch.setattr(shm_plane, "open_untracked", counting_open)
        arena = pool._arena
        per_round, peak = [], 0
        for r in range(10):
            before, exported = len(created), arena.bytes_exported
            _mixed_round(pool, r)
            _settle(arena)
            per_round.append(len(created) - before)
            # Every array of a round is dead by now, so no more bytes were
            # live at once than the round exported (a reused segment holds
            # up to twice its array): the bound, from the outside.
            peak = max(peak, 2 * (arena.bytes_exported - exported))
            assert _parked_bytes(arena) <= 2 * peak
        assert per_round[2:] == [0] * 8, per_round


def _mixed_round(pool, r: int) -> None:
    """Matmul panels (64 KiB) and ``b`` (512 KiB), then samplesort
    buckets of varying size (up to 64 KiB), then a batch of single-use
    arrays (~300 KiB) no larger than round 0's."""
    rng = np.random.default_rng(r)
    a, b = rng.random((256, 256)), rng.random((256, 256))
    assert np.allclose(matmul_tasks(a, b, pool, block=32), a @ b)
    values = rng.random(40_000 + 2_000 * (r % 3))
    assert np.array_equal(quicksort_chunks(pool, values, chunks=8), np.sort(values))
    batch = [np.full(40_000 - 1_000 * (r % 3), float(i)) for i in range(4)]
    futures = [pool.submit(np.sum, x) for x in batch]
    assert [f.result(timeout=30) for f in futures] == [float(i) * x.size for i, x in enumerate(batch)]


class TestWorkerDeath:
    def test_reclaimed_tasks_keep_their_arguments_until_shutdown(self):
        # The surviving worker may still be reading a reclaimed task's
        # arguments, so their segments must not be parked for reuse.
        ex = create("processes", cores=2, prefetch=1)
        try:
            ex.submit(os._exit, 3, name="die")
            slow = ex.submit(spawn_tasks.sum_after, 0.8, np.ones(8192), name="slow")
            with pytest.raises(ExecutorShutdown):
                slow.result(timeout=30)
            assert ex._arena.segments == 1, "the reclaimed argument is still exported"
        finally:
            ex.shutdown()
        assert ex._arena.segments == 0


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

    def test_worker_killed_during_its_reply_leaves_no_result_segment(self):
        # The worker creates the result's one-shot segment, then dies
        # while the reply is pickled: no reply ever names the segment.
        before = _psm_segments()
        ex = create("processes", cores=2)
        try:
            doomed = ex.submit(spawn_tasks.big_result_then_exit_on_pickle, 512)
            with pytest.raises(ExecutorShutdown):
                doomed.result(timeout=30)
        finally:
            ex.shutdown()
        assert _psm_segments() - before == set()
