"""Virtual-time executor: eager values, simulated schedule.

How it works
------------
Task *values* are computed eagerly: ``submit`` runs the function right
away on the calling thread, so results, nesting and exceptions behave
exactly like the inline executor.  Task *timing* is recorded instead of
performed: every task becomes one or more cost-annotated segments in a
:class:`~repro.machine.graph.SegmentGraph`, with edges for spawns, joins
(``future.result()``), critical sections and barriers.  Calling
:meth:`SimExecutor.schedule` list-schedules the recorded graph on a
:class:`~repro.machine.spec.MachineSpec`, yielding the makespan the same
program would have on that machine.

Restrictions (documented, checked where cheap): programs must be
*deterministic task-parallel* — results must not depend on cross-task
timing, because eager evaluation fixes one particular order.  All the
workloads in :mod:`repro.apps` satisfy this.

The big win: a graph recorded **once** can be re-scheduled on every
machine of a core sweep (1..64 cores) in milliseconds, which is what the
project benchmarks do.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.executor.base import Executor, ExecutorShutdown, injected_fault, settle_unstarted
from repro.executor.future import Future
from repro.machine.graph import SegmentGraph
from repro.machine.listsched import ScheduleResult, simulate_schedule
from repro.machine.spec import MachineSpec
from repro.obs.trace import TraceRecorder, resolve_recorder
from repro.resilience.cancel import CancelToken, scoped_token
from repro.resilience.faults import FaultPlan, resolve_faults

__all__ = ["SimExecutor", "SimFuture"]


class SimFuture(Future):
    """Future that records a join edge when its result is consumed."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "SimExecutor", name: str = "") -> None:
        super().__init__(name=name)
        self._sim = sim

    def result(self, timeout: float | None = None) -> Any:
        self._sim._record_join(self)
        return super().result(timeout=0)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        self._sim._record_join(self)
        return super().exception(timeout=0)


@dataclass
class _TaskCtx:
    task_id: int
    current_sid: int


class SimExecutor(Executor):
    """Records a task program and schedules it in virtual time.

    .. note:: prefer ``repro.executor.create("sim", cores=..., machine=...)``
       over this constructor; the direct form stays supported for
       backward compatibility.
    """

    def __init__(
        self,
        machine: MachineSpec,
        policy: str = "earliest",
        trace: TraceRecorder | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.machine = machine
        self.cores = machine.cores
        self.policy = policy
        self.faults = resolve_faults(faults)
        # Virtual timestamps only exist once a schedule is computed, so
        # the sim backend traces *post hoc*: each ``schedule()`` call
        # emits its placements as one trace group (see
        # :meth:`_emit_schedule_trace`).
        self.trace = resolve_recorder(trace)
        self._schedule_count = 0
        self.graph = SegmentGraph()
        root = self.graph.add(task_id=0, name="main", cost=0.0)
        self._stack: list[_TaskCtx] = [_TaskCtx(task_id=0, current_sid=root.sid)]
        self._task_counter = 0
        # Lock acquisitions are recorded, not chained eagerly: eager
        # program order would chain ALL of task 0's sections before task
        # 1's first, falsely serialising whole tasks even under striping.
        # At schedule time each lock's chain is wired in DAG-depth order
        # (fair interleaving across tasks); see :meth:`schedule`.
        self._lock_acquisitions: dict[str, list[int]] = {}
        # Barrier bookkeeping.  Eager evaluation runs one team member to
        # completion before the next starts, so a member's k-th arrival at a
        # cyclic barrier belongs to rendezvous *generation* k — arrivals must
        # be grouped by generation, not just by key.
        self._barrier_arrivals: dict[str, dict[int, list[tuple[int, int]]]] = {}
        self._barrier_generation: dict[tuple[str, int], int] = {}
        self._joined_sids: set[tuple[int, int]] = set()

    # -- recording hooks -----------------------------------------------------

    def _top(self) -> _TaskCtx:
        return self._stack[-1]

    def _split(self, ctx: _TaskCtx, name: str, extra_deps: Sequence[int] = ()) -> int:
        """End the task's current segment, start a new one depending on it."""
        seg = self.graph.add(
            task_id=ctx.task_id, name=name, cost=0.0, deps=[ctx.current_sid, *extra_deps]
        )
        ctx.current_sid = seg.sid
        return seg.sid

    def _record_join(self, fut: SimFuture) -> None:
        last_sid = fut.meta.get("last_sid")
        if last_sid is None:
            raise RuntimeError(f"future {fut.name!r} was not produced by this SimExecutor")
        ctx = self._top()
        key = (ctx.current_sid, last_sid)
        if key in self._joined_sids:  # joining the same future twice is a no-op
            return
        self._split(ctx, f"join:{fut.name}", extra_deps=[last_sid])
        self._joined_sids.add((ctx.current_sid, last_sid))

    # -- Executor interface ----------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *args: Any,
        cost: float | None = None,
        name: str = "",
        after: Sequence[Future] = (),
        cancel: CancelToken | None = None,
        deadline: float | None = None,
        **kwargs: Any,
    ) -> Future:
        """Record the spawn, evaluate ``fn`` eagerly, return a done future."""
        if self._shut:
            raise ExecutorShutdown("sim executor is shut down")
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        parent = self._top()
        self._task_counter += 1
        tid = self._task_counter
        name = name or getattr(fn, "__name__", f"task{tid}")

        dep_sids = [parent.current_sid]
        for dep in after:
            last = dep.meta.get("last_sid")
            if last is None:
                raise RuntimeError(
                    f"task {name!r}: 'after' future {dep.name!r} was not produced by this SimExecutor"
                )
            dep_sids.append(last)

        fut = SimFuture(self, name=name)
        fut.meta["tid"] = tid
        settled = (after or cancel is not None or deadline is not None) and settle_unstarted(
            fut, after, cancel, deadline, self.trace, "sim.cancelled"
        )
        if not settled and self.faults is not None:
            fault = injected_fault(self.faults, "sim", tid, name, self.trace, "sim.faults_injected")
            if fault is not None:
                fut.set_exception(fault)
                settled = True
        if settled:
            # A task that never runs still gets a zero-cost segment, so
            # dependants and joins find one.
            seg = self.graph.add(task_id=tid, name=f"{name}(skipped)", cost=0.0, deps=dep_sids)
            fut.meta["last_sid"] = seg.sid
            return fut

        first = self.graph.add(task_id=tid, name=name, cost=float(cost or 0.0), deps=dep_sids)
        self.trace.count("sim.tasks_recorded")
        ctx = _TaskCtx(task_id=tid, current_sid=first.sid)
        fut.try_start()

        self._stack.append(ctx)
        try:
            with scoped_token(cancel):
                value = fn(*args, **kwargs)
        except Exception as exc:
            fut.meta["last_sid"] = ctx.current_sid
            self._stack.pop()
            fut.set_exception(exc)
            return fut
        fut.meta["last_sid"] = ctx.current_sid
        self._stack.pop()
        fut.set_result(value)
        return fut

    def compute(self, cost: float) -> None:
        if cost < 0:
            raise ValueError(f"cost must be >= 0, got {cost}")
        self.graph.add_cost(self._top().current_sid, cost)

    @contextmanager
    def critical(self, name: str = "default") -> Iterator[None]:
        ctx = self._top()
        crit_sid = self._split(ctx, f"crit:{name}")
        self._lock_acquisitions.setdefault(name, []).append(crit_sid)
        try:
            yield
        finally:
            self._split(ctx, f"postcrit:{name}")

    def barrier(self, key: str, parties: int) -> None:
        """Record a rendezvous arrival; wires cross edges once all arrive."""
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        ctx = self._top()
        pre_sid = ctx.current_sid
        post_sid = self._split(ctx, f"bar:{key}")
        gen_key = (key, ctx.task_id)
        generation = self._barrier_generation.get(gen_key, 0)
        self._barrier_generation[gen_key] = generation + 1
        generations = self._barrier_arrivals.setdefault(key, {})
        arrivals = generations.setdefault(generation, [])
        arrivals.append((pre_sid, post_sid))
        if len(arrivals) == parties:
            for _, post in arrivals:
                for pre, _ in arrivals:
                    if pre != post and pre not in self.graph[post].deps:
                        self.graph.add_dep(post, pre)
            del generations[generation]
        elif len(arrivals) > parties:
            raise RuntimeError(
                f"barrier {key!r} generation {generation}: more arrivals than parties={parties}"
            )

    def task_id(self) -> int:
        return self._top().task_id

    # -- evaluation -------------------------------------------------------------

    def pending_barriers(self) -> list[str]:
        """Barrier keys with an incomplete rendezvous (a bug in the program)."""
        return [k for k, gens in self._barrier_arrivals.items() if any(gens.values())]

    def schedule(
        self, machine: MachineSpec | None = None, policy: str | None = None
    ) -> ScheduleResult:
        """Schedule the recorded graph; defaults to this executor's machine.

        May be called repeatedly with different machines to sweep core
        counts over a single recording.
        """
        incomplete = self.pending_barriers()
        if incomplete:
            raise RuntimeError(f"incomplete barrier rendezvous on keys {incomplete!r}")
        graph = self.graph
        if self._lock_acquisitions:
            # Wire each lock's serialisation chain on a copy (the live
            # graph may still grow, and the order can change as it does).
            #
            # Soundness: a section's DAG depth (longest edge-count path
            # from the roots) strictly exceeds every ancestor's, so
            # ordering by depth is a linear extension of the recorded
            # precedence — no cycles.  Fairness: concurrent tasks' k-th
            # sections share a depth band and therefore interleave,
            # instead of one task's whole sequence chaining first.  Ties
            # break by (task, sid), identically for every lock, so chains
            # of different locks cannot disagree on equal-depth order.
            graph = graph.copy()
            depth = self._segment_depths(graph)
            for acquisitions in self._lock_acquisitions.values():
                chain = sorted(
                    acquisitions, key=lambda sid: (depth[sid], graph[sid].task_id, sid)
                )
                for prev_sid, next_sid in zip(chain, chain[1:]):
                    graph.add_dep(next_sid, prev_sid)
        result = simulate_schedule(graph, machine or self.machine, policy=policy or self.policy)
        if self.trace.enabled:
            self._emit_schedule_trace(graph, result)
        return result

    def _emit_schedule_trace(self, graph: SegmentGraph, result: ScheduleResult) -> None:
        """Emit one trace group of virtual-time spans for a schedule.

        Every cost-carrying segment becomes a complete span on its core's
        lane.  Zero-cost synchronisation segments keep their own kinds
        (``barrier`` / ``critical`` / ``join``, recognised by the name
        prefixes the recorder writes) so rendezvous and lock hand-offs
        are visible.  A segment placed on a different core than the one
        that ran its task's previous segment (or, for a task's first
        segment, its spawn parent) is a *migration* — the virtual-time
        analogue of a work steal — and is emitted as a ``steal`` instant.
        """
        trace = self.trace
        self._schedule_count += 1
        group = trace.new_group(
            f"{result.machine.name} schedule#{self._schedule_count} ({self.policy})",
            cores=result.machine.cores,
        )
        # Authoritative schedule-level numbers: the analyzer prefers these
        # exact figures over reconstructing them from the span stream, and
        # the speedup-model fit reads (cores, makespan) pairs from them.
        trace.event(
            "sched",
            "schedule_summary",
            ts=0.0,
            group=group,
            cores=result.machine.cores,
            makespan=result.makespan,
            work=result.total_work,
            span=result.critical_path,
            utilization=result.utilization,
            policy=self.policy,
        )
        first_seg_of_task: dict[int, bool] = {}
        last_core_of_task: dict[int, int] = {}
        for sid in range(result.n_segments):
            seg = graph[sid]
            core = result.cores[sid]
            start, finish = result.starts[sid], result.finishes[sid]
            prefix = seg.name.split(":", 1)[0]
            kind = {"bar": "barrier", "crit": "critical", "postcrit": "critical", "join": "join"}.get(
                prefix, "task"
            )
            prev_core = last_core_of_task.get(seg.task_id)
            if prev_core is None and seg.deps:
                prev_core = result.cores[seg.deps[0]]  # the spawning segment
            if prev_core is not None and prev_core != core:
                trace.event(
                    "steal",
                    f"migrate:task{seg.task_id}",
                    ts=start,
                    task_id=seg.task_id,
                    worker=core,
                    group=group,
                    from_core=prev_core,
                )
                trace.count("sim.migrations")
            last_core_of_task[seg.task_id] = core
            span_attrs: dict[str, object] = {}
            if not first_seg_of_task.get(seg.task_id):
                first_seg_of_task[seg.task_id] = True
                if seg.deps:
                    # Spawn edge: the first segment's first dependency is
                    # the spawning segment of the parent task.
                    span_attrs["parent"] = graph[seg.deps[0]].task_id
            if seg.cost > 0 or kind != "task":
                trace.emit_span(
                    kind, seg.name, start, finish, task_id=seg.task_id, worker=core,
                    group=group, **span_attrs,
                )
            if kind == "barrier":
                trace.event(
                    "barrier", seg.name, ts=finish, task_id=seg.task_id, worker=core, group=group
                )
                trace.count("sim.barrier_passes")
        trace.count("sim.schedules")
        trace.set_gauge("sim.makespan", result.makespan)
        trace.set_gauge("sim.utilization", result.utilization)
        trace.observe("sim.schedule_makespans", result.makespan)

    @staticmethod
    def _segment_depths(graph: SegmentGraph) -> list[int]:
        """Longest edge-count distance from the roots, per segment."""
        depth = [0] * len(graph)
        for sid in graph.topological_order():
            seg = graph[sid]
            if seg.deps:
                depth[sid] = 1 + max(depth[d] for d in seg.deps)
        return depth

    def elapsed(self) -> float:
        """Virtual makespan on this executor's machine."""
        return self.schedule().makespan

    def __repr__(self) -> str:
        return (
            f"SimExecutor({self.machine.name}, tasks={self._task_counter}, "
            f"segments={len(self.graph)})"
        )
