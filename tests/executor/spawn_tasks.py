"""Task bodies for tests that need behaviour no ``repro`` function has.

Spawn-started workers unpickle a task's function by import path, so
these live in a small module of their own: importing it pulls in NumPy
and nothing from the test machinery.
"""

from __future__ import annotations

import time

import numpy as np


def big_result_after(seconds: float, side: int) -> np.ndarray:
    """Sleep, then return a ``side`` x ``side`` float64 array (a result
    large enough to come back through a one-shot shm segment)."""
    time.sleep(seconds)
    return np.ones((side, side))
