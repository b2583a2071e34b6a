"""kernels_processes: one long-lived process pool, run in rounds.

Each round makes fresh seeded inputs outside the timed region, then
times three ``apps`` kernels on ``create("processes", cores=2)``:
``matmul_tasks`` on 1024x1024 (8 row panels), ``quicksort_chunks`` on
1M floats (8 buckets) and 8 ``scale_pixels`` thumbnails from 768^2 down
to 128.  Outputs are checked after the round, outside the timed region.

The pool lives for the whole run on purpose: ``executor.shm.ShmArena``
keeps every array it exported (and its segment) until ``close()``, so
the parent grows by everything it ships, round after round.  That
growth is a known defect and must stay visible in ``peak_rss_mb``;
recreating the pool per round would hide it.  The round count is fixed
per ``--seconds`` (two timed rounds per second, after one untimed
warm-up round) rather than by the clock, so that ``peak_rss_mb``
compares like with like across runs and stays within memory on an 8 GB
host.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from typing import Any

import numpy as np

from repro.apps.images import scale_pixels
from repro.apps.kernels.matmul import matmul_tasks
from repro.apps.sorting import quicksort_chunks
from repro.executor import create
from repro.executor.shm import ShmArena
from repro.util.rng import derive

from perfbench.harness import (
    Outcome,
    Spans,
    children_peak_rss_mb,
    median,
    now_ns,
    percentile,
    rss_mb,
    traced_executor,
    warm_workers,
)

N = 1024
PANELS = 8
SORT_N = 1_000_000
BUCKETS = 8
THUMBS = 8
SIDE = 768
THUMB_SIDE = 128
CORES = 2
#: untimed lead-in rounds: the workers' first kernel calls and shm
#: attaches pay one-off costs
WARMUP_ROUNDS = 1
#: timed rounds of the inline (single-threaded) baseline in the traced run
INLINE_ROUNDS = 3
KERNELS = ("matmul", "sort", "thumbs")


def rounds_for(seconds: float) -> int:
    """Two timed rounds per second of ``--seconds`` (a round takes about
    0.45 s on two cores); at least 20 rounds are needed for the p95 to
    be other than the slowest round."""
    return max(3, round(2 * seconds))


def setup(params: dict[str, Any]) -> Any:
    """Start the pool and wait until every worker has answered."""
    pool = create("processes", cores=CORES)
    warm_workers(pool)
    return pool


def make_inputs(seed: int, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    rng = derive(seed, "perfbench.kernels", r)
    a = rng.random((N, N))
    b = rng.random((N, N))
    values = rng.random(SORT_N)
    images = [rng.random((SIDE, SIDE)) for _ in range(THUMBS)]
    return a, b, values, images


def one_round(ex: Any, inputs: tuple, mark: Any = None) -> tuple[tuple, list[int]]:
    """The timed region: the three kernels back to back.  ``mark(name)``
    is told which kernel starts next (the traced run's span parent)."""
    a, b, values, images = inputs
    stamps = [now_ns()]
    if mark:
        mark("matmul")
    product = matmul_tasks(a, b, ex, block=N // PANELS)
    stamps.append(now_ns())
    if mark:
        mark("sort")
    ordered = quicksort_chunks(ex, values, chunks=BUCKETS)
    stamps.append(now_ns())
    if mark:
        mark("thumbs")
    futures = [ex.submit(scale_pixels, img, f"img{i}", THUMB_SIDE) for i, img in enumerate(images)]
    thumbs = [f.result() for f in futures]
    stamps.append(now_ns())
    return (product, ordered, thumbs), stamps


def check(seed: int, r: int, inputs: tuple, outputs: tuple, out: Outcome, label: str) -> None:
    """Freivalds probe for the product, sorted-permutation check for the
    sort, checksums against in-process ``scale_pixels`` for thumbnails."""
    a, b, values, images = inputs
    product, ordered, thumbs = outputs
    x = derive(seed, "perfbench.freivalds", r).random(N)
    checks = {
        "matmul": product.shape == (N, N) and np.allclose(product @ x, a @ (b @ x), rtol=1e-9, atol=0.0),
        "sort": ordered.shape == values.shape and np.array_equal(ordered, np.sort(values)),
        "thumbs": len(thumbs) == THUMBS
        and all(
            math.isclose(t.checksum, scale_pixels(img, f"img{i}", THUMB_SIDE).checksum, rel_tol=1e-12)
            for i, (t, img) in enumerate(zip(thumbs, images))
        ),
    }
    out.attempted += len(checks)
    for kernel, ok in checks.items():
        if not ok:
            out.failures[f"{label} round {r} {kernel}"] = "output check failed"


def _rounds(
    ex: Any, seed: int, rounds: int, out: Outcome, label: str, mark: Any = None, after: Any = None
) -> dict[int, list[int]]:
    """Round 0 warms the workers up untimed, then ``rounds`` timed rounds
    follow; returns each timed round's stamps.  Every round's outputs are
    checked, and a kernel that raises fails its round."""
    timed = {}
    for r in range(WARMUP_ROUNDS + rounds):
        inputs = make_inputs(seed, r)
        try:
            outputs, stamps = one_round(ex, inputs, mark)
        except Exception as exc:  # noqa: BLE001 — counted, reported, run goes on
            out.attempted += len(KERNELS)
            for kernel in KERNELS:  # none of the round's outputs can be checked
                out.failures[f"{label} round {r} {kernel}"] = f"round raised {type(exc).__name__}: {exc}"
            continue
        check(seed, r, inputs, outputs, out, label)
        if r >= WARMUP_ROUNDS:
            timed[r] = stamps
        if after:
            after(r)
    return timed


def _round_ms(timed: dict[int, list[int]]) -> list[float]:
    return [(s[-1] - s[0]) / 1e6 for s in timed.values()]


def _kernel_ms(timed: dict[int, list[int]]) -> dict[str, float]:
    return {k: median([(s[i + 1] - s[i]) / 1e6 for s in timed.values()]) for i, k in enumerate(KERNELS)}


def close(pool: Any) -> None:
    pool.shutdown()


def run(pool: Any, params: dict[str, Any], seed: int, seconds: float, out: Outcome) -> None:
    """Untraced run: the end-to-end metrics."""
    rss: list[float] = []
    stamps = _rounds(pool, seed, rounds_for(seconds), out, "processes", after=lambda r: rss.append(rss_mb()))
    rounds_ms = _round_ms(stamps)
    out.metric("latency_p50_ms", percentile(rounds_ms, 0.5), "ms")
    out.metric("latency_p95_ms", percentile(rounds_ms, 0.95), "ms")
    out.metric("throughput_ops", len(rounds_ms) / (sum(rounds_ms) / 1e3) if rounds_ms else 0.0, "ops/s")
    per_kernel = _kernel_ms(stamps)
    out.notes.append(
        f"round_s {median(rounds_ms) / 1e3:.4f} s (median of {len(rounds_ms)} rounds; "
        + ", ".join(f"{k} {v:.1f} ms" for k, v in per_kernel.items())
        + ")"
    )
    out.notes.append("round_ms: " + " ".join(f"{x:.0f}" for x in rounds_ms))
    out.notes.append(
        "rss_mb after each round, warm-up first (ShmArena keeps every export): " + " ".join(f"{x:.0f}" for x in rss)
    )


def run_traced(params: dict[str, Any], seed: int, seconds: float, out: Outcome, spans_path: str) -> dict[str, float]:
    """Traced run: untraced rounds (tracing overhead, speedup base), the
    same rounds traced, and an inline single-threaded baseline."""
    rounds = rounds_for(seconds)
    pool = setup(params)
    try:
        base = _rounds(pool, seed, rounds, out, "processes")
    finally:
        pool.shutdown()
    base_round = median(_round_ms(base))

    spans = Spans()
    where = {"round": 0, "kernel": "matmul"}
    exported: dict[int, int] = {}
    tasks_ms: list[float] = []

    def on_dispatch(t: int, fn: Any, arg_tuples: list, futures: list) -> None:
        r, kernel = where["round"], where["kernel"]

        def done(_f: Any) -> None:
            end = now_ns()
            if r >= WARMUP_ROUNDS:
                tasks_ms.append((end - t) / 1e6)
            spans.add("executor.task", t, end, kernel, r)

        for future in futures:
            future.add_done_callback(done)

    export = ShmArena.export

    def counted_export(arena: ShmArena, arr: np.ndarray) -> Any:
        before = arena.bytes_exported
        t0 = now_ns()
        ref = export(arena, arr)
        spans.add("shm.export", t0, now_ns(), "round", where["round"])
        exported[where["round"]] = exported.get(where["round"], 0) + arena.bytes_exported - before
        return ref

    def mark(kernel: str) -> None:
        where["kernel"] = kernel

    def next_round(r: int) -> None:
        where["round"] = r + 1

    with ExitStack() as stack:
        ShmArena.export = counted_export
        stack.callback(setattr, ShmArena, "export", export)
        pool = setup(params)
        stack.callback(pool.shutdown)
        traced = _rounds(traced_executor(pool, on_dispatch), seed, rounds, out, "traced", mark, next_round)
        worker_rss = children_peak_rss_mb()
    for r, s in traced.items():
        spans.add("round", s[0], s[-1], None, r)
        for i, k in enumerate(KERNELS):
            spans.add(k, s[i], s[i + 1], "round", r)

    inline = create("inline")
    inline_stamps = _rounds(inline, seed, min(rounds, INLINE_ROUNDS), out, "inline")
    inline_round = median(_round_ms(inline_stamps))
    traced_round = median(_round_ms(traced))
    per_kernel = _kernel_ms(traced)
    selfs = spans.self_times()
    out.notes.append(f"tracing overhead: round_s {base_round / 1e3:.4f} untraced -> {traced_round / 1e3:.4f} traced")
    out.notes.append(
        "parent-side self time per kernel (span minus its tasks), median ms: "
        + ", ".join(f"{k} {median(selfs.get(k, [])) / 1e6:.1f}" for k in KERNELS)
    )
    spans.write(spans_path)
    return {
        "kernels.matmul_ms": per_kernel["matmul"],
        "kernels.sort_ms": per_kernel["sort"],
        "kernels.thumbs_ms": per_kernel["thumbs"],
        "kernels.matmul_gflops": 2 * N**3 / (per_kernel["matmul"] / 1e3) / 1e9 if per_kernel["matmul"] else 0.0,
        "executor.task_ms_p50": percentile(tasks_ms, 0.5),
        "executor.task_ms_p99": percentile(tasks_ms, 0.99),
        "shm.exported_mb": median([b for r, b in exported.items() if r >= WARMUP_ROUNDS]) / 2**20,
        "kernels.inline_round_s": inline_round / 1e3,
        "kernels.speedup": inline_round / base_round if base_round else 0.0,
        "executor.worker_peak_rss_mb": worker_rss,
        "trace.overhead_pct": (traced_round / base_round - 1) * 100 if base_round else 0.0,
    }

