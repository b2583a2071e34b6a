"""Task bodies for tests that need behaviour no ``repro`` function has.

Spawn-started workers unpickle a task's function by import path, so
these live in a small module of their own: importing it pulls in NumPy
and nothing from the test machinery.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: The variables BLAS and OpenMP runtimes size their thread pools from.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def big_result_after(seconds: float, side: int) -> np.ndarray:
    """Sleep, then return a ``side`` x ``side`` float64 array (a result
    large enough to come back through a one-shot shm segment)."""
    time.sleep(seconds)
    return np.ones((side, side))


def thread_env() -> dict[str, str | None]:
    """The native-thread variables as this worker process sees them."""
    return {var: os.environ.get(var) for var in THREAD_VARS}
