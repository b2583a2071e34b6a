"""The repo benchmark: one command, one named workload, one seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

An untraced run (``--trace 0``) prints the machine fingerprint, the
workload's human-readable figures and, as its last line, one JSON
object with the end-to-end metrics (:data:`END_TO_END`), the operations
attempted and failed, and the correctness verdict.  A traced run
(``--trace 1``) prints the per-layer metrics (:data:`PER_LAYER`)
instead; it gets them by wrapping calls into each layer's public
functions from the benchmark's own files, and writes its spans to
``.perfbench_out/``.  A per-layer metric the workload does not reach
is reported as 0 and listed as such.

Every workload process runs with ``PYTHONHASHSEED=0`` (the script
re-executes itself to get it): it fixes set and dict order, which the
golden comparison of ``paper_sim`` needs.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: fresh interpreters that measure set-up besides the workload's own
SETUP_PROBES = 4


@dataclass(frozen=True)
class Workload:
    name: str
    module: str
    loop: str
    why: str
    params: dict
    #: hold the CPUs out of idle for the whole run (see harness.keep_awake)
    awake: bool = False


# Left out on purpose:
# - ``run_serve`` as the load loop: its replay sleeps each arrival gap
#   relative to the previous one, so drift builds up, and it times
#   latency from gateway arrival, which hides generator lateness.
# - Bursty traffic: its 3x peaks push past the latency knee.
# - A saturating closed loop: on processes it swung between 4.4k and
#   10.7k req/s across identical runs (GIL hand-off among the client,
#   feeder and collector threads).  Measuring capacity is left for later.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve_mixed_threads",
            "serving",
            "open loop, 3000 req/s steady Poisson, keyspace 8192, threads x2",
            "the default real-backend serving path: the gateway front door (admission, canonical_key, "
            "LRU reads, single-flight) and the work-stealing pool's submit_many carry real work; "
            "after the warm-up about 40% of requests hit the cache",
            {"backend": "threads", "rate": 3000.0, "keyspace": 8192},
            awake=True,
        ),
        Workload(
            "serve_cold_processes",
            "serving",
            "open loop, 1500 req/s steady Poisson, keyspace 10**6, processes x2",
            "almost every request goes batcher -> feeder -> pickle/pipe -> worker -> result pipe -> "
            "collector -> callback, the small-message transit; about 3% hit the cache and the LRU "
            "evicts on almost every miss, so the cache sees writes instead of reads",
            {"backend": "processes", "rate": 1500.0, "keyspace": 10**6},
            awake=True,
        ),
        Workload(
            "kernels_processes",
            "kernels",
            "rounds on one long-lived processes x2 pool, two timed rounds per --seconds second",
            "the only workload whose arrays cross the executor.shm data plane, with compute-bound "
            "tasks: kernel and shm costs dominate, not per-task overhead; the pool is kept so the "
            "ShmArena growth shows in peak_rss_mb",
            {},
        ),
        Workload(
            "paper_sim",
            "paper",
            "one regeneration pass in a fresh interpreter",
            "the only workload on the virtual-time stack (SimExecutor eager recording, "
            "machine.listsched, ptask/pyjama, the driven gateway in serve_traffic): what "
            "'python -m repro run all' users pay",
            {},
        ),
    )
}

#: name -> unit; printed by every untraced run.  The latency and
#: throughput figures are per timed operation: a request (serve), a
#: round (kernels_processes), the regeneration pass (paper_sim, whose
#: throughput counts artefacts per second).  The tail is the p95:
#: on a 2-vCPU KVM guest (Xeon) the p99 of both serve workloads swung by 40-80%
#: between identical runs (it sits where the 4 ms batch age-out plateau
#: ends and GIL/GC stalls begin), the p95 by a few percent; the p99 is
#: still reported, by the traced run.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_ops": "ops/s",
}

#: the deterministic artefacts of the bench registry when the benchmark was defined
EXPERIMENT_IDS = (
    "abl_amdahl", "abl_policy", "abl_sched", "fig1", "fig2", "proj1", "proj10", "proj2", "proj3",
    "proj4", "proj5", "proj6", "proj7", "proj8", "proj9", "sem", "serve_traffic", "tab_alloc",
    "tab_assess", "tab_likert", "tab_systems",
)  # fmt: skip

#: name -> unit; printed by every traced run
PER_LAYER = {
    "loadgen.late_ms_p99": "ms",
    "gateway.submit_us_p50": "us",
    "gateway.submit_us_p99": "us",
    "gateway.self_us_p50": "us",
    "admission.decide_us_p50": "us",
    "requests.canonical_key_us_p50": "us",
    "cache.begin_us_p50": "us",
    "batching.add_us_p50": "us",
    "executor.dispatch_us_p50": "us",
    "cache.hit_rate": "ratio",
    "cache.evictions": "count",
    "batching.wait_ms_p50": "ms",
    "batching.wait_ms_p99": "ms",
    "batching.occupancy": "ratio",
    "executor.queue_ms_p50": "ms",
    "executor.queue_ms_p99": "ms",
    "executor.run_us_p50": "us",
    "executor.return_ms_p50": "ms",
    "executor.return_ms_p99": "ms",
    "gateway.resolve_ms_p99": "ms",
    "executor.steal_ratio": "ratio",
    "executor.worker_peak_rss_mb": "MiB",
    "latency_p99_ms": "ms",
    "latency_p999_ms": "ms",
    "latency_p999_samples": "count",
    "kernels.matmul_ms": "ms",
    "kernels.sort_ms": "ms",
    "kernels.thumbs_ms": "ms",
    "kernels.matmul_gflops": "GFLOP/s",
    "executor.task_ms_p50": "ms",
    "executor.task_ms_p99": "ms",
    "shm.exported_mb": "MiB",
    "kernels.inline_round_s": "s",
    "kernels.speedup": "x",
    **{f"experiment.{i}_s": "s" for i in EXPERIMENT_IDS},
    "sim.submit_s": "s",
    "sim.tasks": "count",
    "sim.schedule_s": "s",
    "sim.schedules": "count",
    "simkernel.run_s": "s",
    "simkernel.steps": "count",
    "trace.overhead_pct": "%",
}


def parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def setup_workload(w: Workload):
    """Import the workload (and through it ``repro``), then make it ready
    for its first timed operation; returns ``(module, state, seconds)``.

    Every workload module offers ``setup(params)``, ``close(state)``,
    ``run(state, params, seed, seconds, out)`` and
    ``run_traced(params, seed, seconds, out, spans_path)``.
    """
    t0 = time.perf_counter()
    mod = importlib.import_module(f"perfbench.{w.module}")
    state = mod.setup(w.params)
    return mod, state, time.perf_counter() - t0


def probe_setup(w: Workload) -> None:
    """Child mode: print one set-up time, then tear down."""
    mod, state, elapsed = setup_workload(w)
    mod.close(state)
    print(repr(elapsed), flush=True)


def setup_samples(w: Workload, args: argparse.Namespace) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", w.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=170, check=True,
        )  # fmt: skip
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts to track
    semaphores and shared memory, and wait for it: left alone it outlives
    the benchmark by seconds.  Registered with ``atexit`` before anything
    imports ``multiprocessing``, so it runs after multiprocessing's own
    exit-time clean-up.  The standard library offers no public call."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv: list[str]) -> int:
    args = parse(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    atexit.register(stop_resource_tracker)
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.harness import keep_awake

    w = WORKLOADS[args.workload]
    if args.probe_setup:
        probe_setup(w)
    elif w.awake:
        with keep_awake():
            measure(w, args)
    else:
        measure(w, args)
    return 0


def measure(w: Workload, args: argparse.Namespace) -> None:
    from perfbench.harness import Outcome, cpu_ticks, emit, fingerprint, host_note, median, peak_rss_mb

    since = cpu_ticks()
    out = Outcome()
    lines = [f"workload: {w.name} ({w.loop})", f"why: {w.why}"]
    spans_path = str(OUT_DIR / f"{w.name}.spans.jsonl")
    if args.trace:
        mod = importlib.import_module(f"perfbench.{w.module}")
        layer = mod.run_traced(w.params, args.seed, args.seconds, out, spans_path)
        missing = [name for name in PER_LAYER if name not in layer]
        metrics = {name: (float(layer.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
        lines.append(f"spans: {spans_path}")
        lines.append("not reached by this workload (reported as 0): " + ", ".join(missing))
    else:
        samples = setup_samples(w, args)
        mod, state, own = setup_workload(w)
        samples.append(own)
        try:
            mod.run(state, w.params, args.seed, args.seconds, out)
        finally:
            mod.close(state)
        out.metric("setup_s", median(samples), "s")
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB")
        lines.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in samples))
        metrics = {name: (out.metrics[name][0], unit) for name, unit in END_TO_END.items()}
    lines.append("fingerprint: " + json.dumps(fingerprint(args.seed)))
    lines.append(host_note(since))
    lines.extend(out.notes)
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:34s} {value:14.6f} {unit}")
    for label, why in sorted(out.failures.items()):
        known = out.known.get(label)
        lines.append(f"failed: {label}: {why}" + (f" (known defect: {known})" if known else ""))
    lines.append(f"attempted {out.attempted}, failed {out.failed}, correct {out.correct}")
    lines.extend(f"broken: {b}" for b in out.broken[:10])
    emit(lines, out.correct, out.attempted, out.failed, metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
