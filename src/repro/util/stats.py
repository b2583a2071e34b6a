"""Summary statistics and parallel-performance metrics.

The benchmark harness reports speedup/efficiency series for every project
experiment; the analytical models (Amdahl, Gustafson, Karp–Flatt) are
provided as overlays so bench output can show measured-vs-model shape, as
taught in weeks 1–5 of SoftEng 751.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Summary",
    "summarize",
    "quantile",
    "speedup",
    "efficiency",
    "amdahl_speedup",
    "gustafson_speedup",
    "karp_flatt",
]


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the normal-approximation 95% CI on the mean."""
        if self.n <= 1:
            return math.inf if self.n == 0 else 0.0
        return 1.96 * self.std / math.sqrt(self.n)

    def __str__(self) -> str:
        return (
            f"n={self.n} mean={self.mean:.4g}±{self.ci95_halfwidth:.2g} "
            f"median={self.median:.4g} p95={self.p95:.4g} "
            f"range=[{self.minimum:.4g}, {self.maximum:.4g}]"
        )


def summarize(samples: Sequence[float]) -> Summary:
    """Summarize a sample; raises ``ValueError`` on an empty sample."""
    if len(samples) == 0:
        raise ValueError("cannot summarize an empty sample")
    arr = np.asarray(samples, dtype=float)
    q = np.percentile(arr, [25, 50, 75, 95])
    return Summary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        p25=float(q[0]),
        median=float(q[1]),
        p75=float(q[2]),
        p95=float(q[3]),
        maximum=float(arr.max()),
    )


def quantile(sorted_xs: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending sample: the value at
    rank ``ceil(q·n)``, so every result is an observed sample.

    Exact under virtual time, which keeps the serve, SLO, stage and
    run-store figures byte-stable.  The caller sorts once, since one
    sample usually yields several quantiles.  Raises ``ValueError`` on
    an empty sample.

    Three paper statistics keep their own rules, because their golden
    reports print them: ``gui.sim_ui``'s ``p95_latency``
    (``sorted[int(0.95·n)]``), the upper median in ``sem``, and the
    interpolating :func:`summarize` under the course report.
    """
    n = len(sorted_xs)
    if n == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    return sorted_xs[max(0, min(n - 1, math.ceil(q * n) - 1))]


def speedup(t_serial: float, t_parallel: float) -> float:
    """Classic speedup S = T1 / Tp."""
    if t_parallel <= 0:
        raise ValueError(f"parallel time must be positive, got {t_parallel!r}")
    if t_serial < 0:
        raise ValueError(f"serial time must be non-negative, got {t_serial!r}")
    return t_serial / t_parallel


def efficiency(t_serial: float, t_parallel: float, cores: int) -> float:
    """Parallel efficiency E = S / p."""
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores!r}")
    return speedup(t_serial, t_parallel) / cores


def amdahl_speedup(serial_fraction: float, cores: int) -> float:
    """Amdahl's law: S(p) = 1 / (f + (1-f)/p) for serial fraction ``f``."""
    if not 0.0 <= serial_fraction <= 1.0:
        raise ValueError(f"serial fraction must be in [0,1], got {serial_fraction!r}")
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores!r}")
    return 1.0 / (serial_fraction + (1.0 - serial_fraction) / cores)


def gustafson_speedup(serial_fraction: float, cores: int) -> float:
    """Gustafson's law: S(p) = p - f * (p - 1), scaled-workload speedup."""
    if not 0.0 <= serial_fraction <= 1.0:
        raise ValueError(f"serial fraction must be in [0,1], got {serial_fraction!r}")
    if cores < 1:
        raise ValueError(f"cores must be >= 1, got {cores!r}")
    return cores - serial_fraction * (cores - 1)


def karp_flatt(measured_speedup: float, cores: int) -> float:
    """Karp–Flatt experimentally determined serial fraction.

    e = (1/S - 1/p) / (1 - 1/p).  Undefined for p == 1.
    """
    if cores <= 1:
        raise ValueError("Karp-Flatt metric requires cores > 1")
    if measured_speedup <= 0:
        raise ValueError(f"speedup must be positive, got {measured_speedup!r}")
    return (1.0 / measured_speedup - 1.0 / cores) / (1.0 - 1.0 / cores)
