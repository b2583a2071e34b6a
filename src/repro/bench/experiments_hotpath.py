"""Sim-kernel and trace-recorder microbenches: the other two hot loops.

ROADMAP item 4's measure-then-optimize ritual needs a committed
wall-clock anchor for each loop the flamegraphs say is hot.  The pool
plumbing has :mod:`repro.bench.experiments_pool`; this module adds the
remaining two —

* **sim_micro** — a large ablation-shaped simulation (thousands of
  generator processes sleeping, waiting on events and joining each
  other) driven through ``Simulator.run()``; the metric is *steps per
  wall second*, i.e. how fast the event loop turns the heap over;
* **trace_micro** — the :class:`~repro.obs.trace.TraceRecorder` emit
  path under the common configuration (single ``MemorySink``, no event
  cap): instants, span edges and counter increments per wall second.

Both follow the ``pool_micro`` conventions: best-of-``REPEATS`` minimum
wall time, direction-tokened metric names (``throughput`` up is good,
``seconds`` down is good, bare counts are info-only), and a baseline
pinned in the run-history store by ``python -m repro compare <bench>
--update-baseline``, against which ``python -m repro compare <bench>``
gates the trajectory.
"""

from __future__ import annotations

import time
from typing import Any, Generator

from repro.bench.harness import ExperimentResult, register
from repro.obs.trace import TraceRecorder
from repro.simkernel.core import Simulator
from repro.util.tables import Table

__all__ = [
    "run_sim_micro",
    "sim_micro_metrics",
    "run_trace_micro",
    "trace_micro_metrics",
]

#: best-of-N runs; the minimum is the least-disturbed measurement
REPEATS = 3

#: sim_micro shape: PROCS workers × PHASES sleep/event/join rounds
PROCS = 2_000
PHASES = 25

#: trace_micro volume: instants+spans+counts per measured run
TRACE_EVENTS = 120_000


# -- sim_micro ---------------------------------------------------------------


def _sim_workload(procs: int, phases: int) -> Simulator:
    """Build (without running) an ablation-shaped simulation.

    Each process alternates sleeps with waits on a shared per-phase
    barrier event fired by a coordinator, and half the processes join a
    partner at the end — so the measured loop exercises every scheduling
    primitive the real ablations use (timed wakeups, event fan-out,
    process joins), not just a sleep ladder.
    """
    sim = Simulator()
    gates = [sim.event(name=f"gate{p}") for p in range(phases)]

    def coordinator() -> Generator[Any, Any, None]:
        for gate in gates:
            yield 1.0
            gate.fire()

    def worker(i: int) -> Generator[Any, Any, int]:
        for p in range(phases):
            yield 0.25 + (i % 7) * 0.01
            yield gates[p]
        return i

    workers = [sim.spawn(worker(i), name=f"w{i}") for i in range(procs)]

    def joiner(partner_index: int) -> Generator[Any, Any, None]:
        yield workers[partner_index]

    for i in range(0, procs, 2):
        sim.spawn(joiner(i), name=f"j{i}")
    sim.spawn(coordinator(), name="coord")
    return sim


def sim_micro_metrics(
    procs: int = PROCS, phases: int = PHASES, repeats: int = REPEATS
) -> dict[str, float]:
    """Run the sim-kernel microbench; returns direction-aware metrics."""
    best = float("inf")
    steps = 0
    for _ in range(repeats):
        sim = _sim_workload(procs, phases)
        t0 = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - t0)
        steps = sim.steps  # identical across repeats: the sim is seeded
    return {
        "sim.steps_throughput_steps_per_s": round(steps / best, 1),
        "sim.per_step_seconds": round(best / steps, 9),
        # info-only workload descriptors (no direction token)
        "sim.steps": float(steps),
        "sim.procs": float(procs),
    }


@register(
    "sim_micro",
    "Sim-kernel event-loop microbench (wall clock)",
    "ROADMAP item 4 (perf trajectory)",
    perf=True,
)
def run_sim_micro() -> ExperimentResult:
    metrics = sim_micro_metrics()
    table = Table(
        ["metric", "value"],
        title=f"sim-kernel microbench ({int(metrics['sim.procs'])} procs, "
        f"{int(metrics['sim.steps'])} steps, best of {REPEATS})",
        precision=9,
    )
    for name in sorted(metrics):
        table.add_row([name, metrics[name]])
    notes = (
        "Wall-clock trajectory anchor for the Simulator.run() hot loop "
        "(heap pop, dead-process skip, clock advance, generator resume). "
        "Gate with 'python -m repro compare sim_micro'; re-pin with "
        "'python -m repro compare sim_micro --update-baseline' when a PR "
        "intentionally moves the loop."
    )
    return ExperimentResult(exp_id="sim_micro", tables=(table,), notes=notes, metrics=metrics)


# -- trace_micro -------------------------------------------------------------


def _emit_burst(recorder: TraceRecorder, events: int) -> None:
    """Emit ``events`` records shaped like the pool's instrumentation:
    two span edges + one instant + one counter bump per 4-event round."""
    event = recorder.event
    count = recorder.count
    rounds = events // 4
    for i in range(rounds):
        event("task", "micro", phase="B", task_id=i, worker=i & 3)
        event("steal", "micro", task_id=i, worker=i & 3)
        event("task", "micro", phase="E", task_id=i, worker=i & 3)
        count("bench.emitted")


def trace_micro_metrics(
    events: int = TRACE_EVENTS, repeats: int = REPEATS
) -> dict[str, float]:
    """Run the recorder-emit microbench; returns direction-aware metrics."""
    emitted = (events // 4) * 4  # whole rounds only
    best = float("inf")
    for _ in range(repeats):
        recorder = TraceRecorder()
        t0 = time.perf_counter()
        _emit_burst(recorder, events)
        best = min(best, time.perf_counter() - t0)
    return {
        "trace.emit_throughput_events_per_s": round(emitted / best, 1),
        "trace.per_event_seconds": round(best / emitted, 9),
        "trace.events": float(emitted),  # info-only
    }


@register(
    "trace_micro",
    "TraceRecorder emit-path microbench (wall clock)",
    "ROADMAP item 4 (perf trajectory)",
    perf=True,
)
def run_trace_micro() -> ExperimentResult:
    metrics = trace_micro_metrics()
    table = Table(
        ["metric", "value"],
        title=f"trace-emit microbench ({int(metrics['trace.events'])} events, "
        f"best of {REPEATS})",
        precision=9,
    )
    for name in sorted(metrics):
        table.add_row([name, metrics[name]])
    notes = (
        "Wall-clock trajectory anchor for the TraceRecorder emit path "
        "(event construction + sink append + metric bump; memory sink, no "
        "cap).  Gate with 'python -m repro compare trace_micro'; re-pin "
        "with 'python -m repro compare trace_micro --update-baseline' when "
        "a PR intentionally moves the path."
    )
    return ExperimentResult(exp_id="trace_micro", tables=(table,), notes=notes, metrics=metrics)
