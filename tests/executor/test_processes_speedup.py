"""CI smoke: the processes backend delivers *measured* speedup.

This is the one test in the repository that asserts wall-clock numbers,
so it is deliberately forgiving: it skips cleanly when the process may
use only one CPU (a one-core host, or ``taskset -c 0``), uses a
pure-Python GIL-bound kernel (BLAS already escapes the GIL, so numpy
work would not demonstrate the point), and asserts only ``> 1.0`` with
generous task sizes.  The CI workflow runs it on multi-core runners as
the processes-backend smoke job.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.apps.kernels.matmul import matmul_tasks
from repro.executor import create
from repro.executor.processes import usable_cpus

multicore = pytest.mark.skipif(usable_cpus() < 2, reason="needs >= 2 usable CPUs to measure speedup")


def burn(n: int) -> int:
    """A GIL-bound busy kernel: pure-Python arithmetic, no C escapes."""
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return acc


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@multicore
def test_gil_bound_kernel_speeds_up_on_two_workers():
    n = 600_000  # ~40ms per task on a typical CI core
    tasks = 8
    expected = [burn(n)] * tasks  # deterministic: same input each task

    def inline_run():
        return [burn(n) for _ in range(tasks)]

    with create("processes", cores=2) as pool:
        # warm the workers (numpy import, first unpickle) off the clock
        for f in [pool.submit(burn, 10, name=f"warm{i}") for i in range(2)]:
            f.result()

        def pool_run():
            return [f.result() for f in [pool.submit(burn, n, name=f"b{i}") for i in range(tasks)]]

        t_inline = _wall(lambda: None or inline_run())
        t_pool = _wall(pool_run)
        results = pool_run()

    assert results == expected
    speedup = t_inline / t_pool
    assert speedup > 1.0, (
        f"processes backend should beat inline on >=2 cores: inline {t_inline:.3f}s, "
        f"pool {t_pool:.3f}s (speedup {speedup:.2f}x)"
    )


@multicore
def test_matmul_panels_not_slower_than_serial_transport_bound():
    """The shm plane keeps numpy payload transport from eating the win.

    BLAS kernels are fast relative to IPC, so this asserts a loose bound
    (no worse than 2x slower) rather than speedup — the GIL-bound test
    above is the speedup gate; this one guards transport regressions.
    """
    rng = np.random.default_rng(0)
    a, b = rng.random((1024, 1024)), rng.random((1024, 1024))
    t0 = time.perf_counter()
    serial = a @ b
    t_serial = time.perf_counter() - t0
    with create("processes", cores=2) as pool:
        for f in [pool.submit(burn, 10, name=f"warm{i}") for i in range(2)]:
            f.result()
        t0 = time.perf_counter()
        out = matmul_tasks(a, b, pool, block=256)
        t_pool = time.perf_counter() - t0
    assert np.allclose(out, serial)
    assert t_pool < max(2.0 * t_serial, t_serial + 1.0), (
        f"transport overhead blew up: serial {t_serial:.3f}s, pool {t_pool:.3f}s"
    )
