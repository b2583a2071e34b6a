"""Pool microbenchmark: the wall-clock perf-trajectory anchor.

ROADMAP item 4 asks for committed wall-clock perf baselines so the
direction-aware regression gate (:mod:`repro.obs.baseline`) tracks the
*wall-clock* trajectory of the hot paths, not just the sim's virtual
metrics.  This module is the first such anchor: a small, repeatable
microbench of the work-stealing pool's task plumbing —

* **fanout** — ``submit`` N trivial tasks one by one and wait for all
  of them: measures per-task submit + dispatch + resolve overhead;
* **batched** — the same N tasks through ``submit_many``: measures the
  amortised batch-submission path the serving gateway rides.

Every measurement is best-of-``REPEATS`` (minimum wall time), which is
the standard microbench noise filter: the *fastest* observed run is the
one least disturbed by the machine.  Metric names carry direction
tokens (``throughput`` up is good, ``seconds`` down is good) so
``compare_to_baseline`` gates them without any schema.

``python -m repro compare pool_micro --update-baseline`` pins a run as
the baseline in the run-history store (``benchmarks/runs/``, committed
to git); ``python -m repro compare pool_micro`` gates against the
latest pin.
"""

from __future__ import annotations

import time

from repro.bench.harness import ExperimentResult, register
from repro.executor.threads import WorkStealingPool
from repro.util.tables import Table

__all__ = ["run_pool_micro", "pool_micro_metrics"]

#: tasks per measured run — large enough that per-task overhead
#: dominates thread wakeup noise, small enough to keep CI fast
TASKS = 20_000

#: best-of-N runs; the minimum is the least-disturbed measurement
REPEATS = 3


def _noop(x: int) -> int:
    return x


def _measure_fanout(pool: WorkStealingPool, n: int) -> float:
    t0 = time.perf_counter()
    futures = [pool.submit(_noop, i, name="micro") for i in range(n)]
    for f in futures:
        f.result(timeout=60.0)
    return time.perf_counter() - t0


def _measure_batched(pool: WorkStealingPool, n: int) -> float:
    args = [(i,) for i in range(n)]
    t0 = time.perf_counter()
    futures = pool.submit_many(_noop, args, name="micro")
    for f in futures:
        f.result(timeout=60.0)
    return time.perf_counter() - t0


def pool_micro_metrics(
    workers: int = 4, tasks: int = TASKS, repeats: int = REPEATS
) -> dict[str, float]:
    """Run the microbench; returns direction-aware wall-clock metrics.

    Each measurement uses a fresh pool so a prior run's warm deques
    cannot flatter the next; within one measurement the pool is warmed
    by a tiny untimed burst so thread start-up never lands in the timed
    region.
    """
    fanout_best = batched_best = float("inf")
    for _ in range(repeats):
        pool = WorkStealingPool(workers=workers, name="micro")
        try:
            # Warm-up covers *both* submission paths: threads parked and
            # ready, and the submit/submit_many code paths (bytecode
            # specialisation, lazily built structures) already exercised —
            # otherwise the first timed submit_many burst pays cold-path
            # costs inside the batched measurement.
            _measure_fanout(pool, 64)
            _measure_batched(pool, 64)
            fanout_best = min(fanout_best, _measure_fanout(pool, tasks))
            batched_best = min(batched_best, _measure_batched(pool, tasks))
        finally:
            pool.shutdown()
    return {
        "pool.fanout_throughput_tasks_per_s": round(tasks / fanout_best, 1),
        "pool.fanout_per_task_seconds": round(fanout_best / tasks, 9),
        "pool.batched_throughput_tasks_per_s": round(tasks / batched_best, 1),
        "pool.batched_per_task_seconds": round(batched_best / tasks, 9),
        # "cores" carries no direction token ("workers" would match "work")
        "pool.cores": float(workers),
        "pool.tasks": float(tasks),
    }


@register(
    "pool_micro",
    "Work-stealing pool task-plumbing microbench (wall clock)",
    "ROADMAP item 4 (perf trajectory)",
    perf=True,
)
def run_pool_micro() -> ExperimentResult:
    metrics = pool_micro_metrics()
    table = Table(
        ["metric", "value"],
        title=f"pool microbench ({int(metrics['pool.cores'])} workers, "
        f"{int(metrics['pool.tasks'])} tasks, best of {REPEATS})",
        precision=9,
    )
    for name in sorted(metrics):
        table.add_row([name, metrics[name]])
    notes = (
        "Wall-clock numbers: machine-dependent by design — this is the "
        "trajectory anchor ROADMAP item 4 asks for, not a golden report. "
        "Gate against the committed pin with 'python -m repro compare "
        "pool_micro' (direction-aware: throughput up, seconds down) and "
        "re-pin with 'python -m repro compare pool_micro --update-baseline' "
        "when a PR intentionally moves the hot path."
    )
    return ExperimentResult(exp_id="pool_micro", tables=(table,), notes=notes, metrics=metrics)
