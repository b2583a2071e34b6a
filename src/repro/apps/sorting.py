"""Project 2: parallel quicksort, three ways.

The brief: implement parallel quicksort "using object-oriented language
support" in three versions — Parallel Task, Pyjama, and standard
threads/concurrency classes.  All three live here, over the same
partition step, plus the sequential baseline:

* ``sequential`` — classic in-place-ish quicksort (reference);
* ``ptask`` — divide-and-conquer on the Parallel Task runtime with a
  spawn-depth cutoff (the idiomatic tasking version);
* ``pyjama`` — OpenMP-style: recursion expressed with nested *sections*
  (the way OpenMP programs parallelised quicksort before `task`);
* ``threads`` — raw executor submits with explicit futures (the
  "standard Java threads and concurrency classes" analogue).

Cost model: partitioning n elements costs ``COST_PER_ELEMENT * n``,
charged where the work happens, so virtual-time runs price the whole
recursion tree correctly (including its sequential-partition prefix —
why quicksort's speedup is sublinear, a lesson the bench shows).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.executor.base import Executor
from repro.ptask import ParallelTaskRuntime
from repro.pyjama import Pyjama

__all__ = ["quicksort", "quicksort_chunks", "VARIANTS", "COST_PER_ELEMENT"]

COST_PER_ELEMENT = 5e-8
VARIANTS = ("sequential", "ptask", "pyjama", "threads")

#: below this size, recursion stays sequential in the parallel variants
DEFAULT_CUTOFF = 64


def _partition(executor: Executor, values: list) -> tuple[list, list, list]:
    """Three-way partition around the middle element; charges its cost."""
    executor.compute(COST_PER_ELEMENT * len(values))
    pivot = values[len(values) // 2]
    less = [v for v in values if v < pivot]
    equal = [v for v in values if v == pivot]
    greater = [v for v in values if v > pivot]
    return less, equal, greater


def _sequential(executor: Executor, values: list) -> list:
    if len(values) <= 1:
        if values:
            executor.compute(COST_PER_ELEMENT)
        return list(values)
    less, equal, greater = _partition(executor, values)
    return _sequential(executor, less) + equal + _sequential(executor, greater)


def _ptask(rt: ParallelTaskRuntime, values: list, cutoff: int) -> list:
    if len(values) <= cutoff:
        return _sequential(rt.executor, values)
    less, equal, greater = _partition(rt.executor, values)
    left = rt.spawn(_ptask, rt, less, cutoff, name="qsort-left")
    right = _ptask(rt, greater, cutoff)  # current task takes one side itself
    return left.result() + equal + right


def _pyjama(omp: Pyjama, values: list, cutoff: int) -> list:
    if len(values) <= cutoff:
        return _sequential(omp.executor, values)
    less, equal, greater = _partition(omp.executor, values)
    parts = omp.sections(
        [
            lambda: _pyjama(omp, less, cutoff),
            lambda: _pyjama(omp, greater, cutoff),
        ],
        num_threads=2,
    )
    return parts[0] + equal + parts[1]


def _threads(executor: Executor, values: list, cutoff: int) -> list:
    if len(values) <= cutoff:
        return _sequential(executor, values)
    less, equal, greater = _partition(executor, values)
    left_future = executor.submit(_threads, executor, less, cutoff, name="qsort-thread")
    right = _threads(executor, greater, cutoff)
    return left_future.result() + equal + right


def quicksort(
    executor: Executor,
    values: Sequence,
    variant: str = "ptask",
    cutoff: int = DEFAULT_CUTOFF,
) -> list:
    """Sort ``values`` ascending with the chosen variant.

    All variants return identical results; they differ in how the
    recursion is expressed and scheduled — which is the experiment.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    data = list(values)
    if variant == "sequential":
        return _sequential(executor, data)
    if variant == "ptask":
        return _ptask(ParallelTaskRuntime(executor), data, cutoff)
    if variant == "pyjama":
        return _pyjama(Pyjama(executor), data, cutoff)
    return _threads(executor, data, cutoff)


def _sort_bucket(bucket: np.ndarray) -> np.ndarray:
    """Sort one samplesort bucket — module-level so workers can import it."""
    return np.sort(np.asarray(bucket), kind="quicksort")


def quicksort_chunks(executor: Executor, values: Sequence, chunks: int | None = None) -> np.ndarray:
    """Flat parallel samplesort: one independent bucket-sort task per chunk.

    The recursive variants above pass the executor *into* their task
    bodies for nested spawns, which only works when tasks share the
    submitting process.  This variant decomposes flat instead — sampled
    pivots split the input into ``chunks`` disjoint buckets, each bucket
    sorts as one self-contained task, and the sorted buckets concatenate
    in pivot order — so it runs unchanged on every backend, including
    out-of-process workers (buckets travel through the shared-memory
    plane).  Returns a sorted ``ndarray``; it is *not* a new
    ``quicksort`` variant because the golden-output tests pin
    :data:`VARIANTS`.

    The split runs in the submitting process before any bucket task can
    start, so it is the algorithm's serial fraction, and it takes one
    pass over the bucket index: one ``bincount`` gives the bucket sizes,
    and one stable argsort of the small-int index lays the buckets out
    back to back, each bucket then a slice.  Stability keeps every
    bucket's elements in input order, so the buckets, and the costs
    declared for them, are those a mask per bucket would give.
    """
    data = np.asarray(values)
    if data.ndim != 1:
        raise ValueError(f"expected a 1-d sequence, got shape {data.shape}")
    parts = chunks if chunks is not None else max(1, executor.cores)
    if parts < 1:
        raise ValueError(f"chunks must be >= 1, got {parts}")
    if parts == 1 or len(data) <= parts:
        executor.compute(COST_PER_ELEMENT * len(data))
        return np.sort(data, kind="quicksort")
    # Deterministic pivots: an evenly strided sample stands in for the
    # classic random sample, keeping runs byte-reproducible.
    sample = np.sort(data[:: max(1, len(data) // (parts * 32))])
    pivot_at = np.linspace(0, len(sample) - 1, parts + 1).astype(int)[1:-1]
    pivots = sample[pivot_at]
    which = np.searchsorted(pivots, data, side="right")
    executor.compute(COST_PER_ELEMENT * len(data))  # the partition pass
    sizes = np.bincount(which, minlength=parts).tolist()
    # NumPy radix-sorts 8- and 16-bit keys when asked for a stable sort.
    grouped = data[np.argsort(which.astype(np.min_scalar_type(parts - 1)), kind="stable")]
    futures = [
        executor.submit(
            _sort_bucket,
            grouped[end - size : end],
            cost=COST_PER_ELEMENT * max(1, size),
            name=f"bucket[{i}]",
        )
        for i, (size, end) in enumerate(zip(sizes, accumulate(sizes)))
    ]
    return np.concatenate([f.result() for f in futures])


def random_array(n: int, seed: int = 0) -> list[int]:
    """The workload generator: a large array of numbers to sort."""
    from repro.util.rng import derive

    rng = derive(seed, "quicksort-input")
    return rng.integers(0, max(1, n * 10), size=n).tolist()
