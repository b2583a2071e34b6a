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


class ExitOnPickle:
    """Kills the process that tries to pickle it, with exit code 3."""

    def __reduce__(self):
        os._exit(3)


def big_result_then_exit_on_pickle(side: int) -> tuple[np.ndarray, ExitOnPickle]:
    """A result whose array goes out through a one-shot segment, and
    whose second item kills the worker while the reply is pickled."""
    return np.ones((side, side)), ExitOnPickle()


def now_after(seconds: float) -> float:
    """Sleep, then return the wall-clock time (``time.time()``)."""
    time.sleep(seconds)
    return time.time()


def fail_after(seconds: float) -> None:
    """Sleep, then raise ``RuntimeError``."""
    time.sleep(seconds)
    raise RuntimeError("dependency failed")


def sum_after(seconds: float, arr: np.ndarray) -> float:
    """Sleep, then read the argument."""
    time.sleep(seconds)
    return float(arr.sum())


def thread_env() -> dict[str, str | None]:
    """The native-thread variables as this worker process sees them."""
    return {var: os.environ.get(var) for var in THREAD_VARS}
