"""Task bodies for tests that need behaviour no ``repro`` function has.

Spawn-started workers unpickle a task's function by import path, so
these live in a small module of their own: importing it pulls in NumPy
and ``repro.resilience`` and nothing from the test machinery.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.resilience import current_token

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


def exit_with(code: int) -> None:
    """Raise ``SystemExit(code)``: a ``BaseException`` a task body can throw."""
    raise SystemExit(code)


def kill_worker(code: int, *_payload: object) -> None:
    """End the process running this body at once, as a crash would."""
    os._exit(code)


def token_name() -> str | None:
    """The name of the ambient cancel token the body runs under, if any.

    The token itself cannot travel back from a worker process: it holds
    a lock, which does not pickle.
    """
    token = current_token()
    return token.name if token is not None else None


def touch(path: str) -> None:
    """Create ``path``: evidence, visible from any process, that the body ran."""
    with open(path, "w"):
        pass
