"""Task bodies the benchmark sends to pool workers.

Module-level so the processes backend can pickle them by reference; a
spawned worker imports this module (and through it ``repro``) the first
time it runs one, which happens during set-up via :func:`whoami`.
"""

from __future__ import annotations

import os
import threading
import time

from repro.serve.loadgen import KINDS


def whoami(delay: float) -> tuple[int, int]:
    """No-op task: identifies the worker (process, thread) that ran it."""
    time.sleep(delay)
    return os.getpid(), threading.get_ident()


def serve_body(kind: str, key: int) -> int:
    """The request body of the serve workloads: loadgen's kind catalogue."""
    return KINDS[kind][0](key)


def timed_body(kind: str, key: int) -> tuple[int, int, int]:
    """:func:`serve_body` plus where it ran on the shared monotonic clock:
    ``(value, start_ns, end_ns)``."""
    t0 = time.monotonic_ns()
    value = KINDS[kind][0](key)
    return value, t0, time.monotonic_ns()
