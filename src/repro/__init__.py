"""repro: the PARC teaching stack from "EA: Research-infused teaching of
parallel programming concepts for undergraduate Software Engineering
students" (Giacaman & Sinnen, IPDPSW 2014).

A complete, adoptable Python implementation of everything the paper's
course runs on:

* **Parallel Task** (:mod:`repro.ptask`) — task parallelism with
  dependences, multi-tasks, GUI-aware notification, task-safe classes;
* **Pyjama** (:mod:`repro.pyjama`) — OpenMP-style regions, worksharing
  schedules, object reductions, GUI directives;
* **execution backends** (:mod:`repro.executor`) — the same programs run
  inline, on a work-stealing thread pool, or in virtual time on a
  simulated PARC machine (:mod:`repro.machine`, :mod:`repro.simkernel`);
* **substrates** — concurrent collections (:mod:`repro.concurrentlib`),
  a memory-model explorer with a race detector (:mod:`repro.memmodel`),
  an EDT/GUI layer (:mod:`repro.gui`), a mini subversion
  (:mod:`repro.vcs`);
* **the ten student projects** (:mod:`repro.apps`),
* **the course machinery itself** (:mod:`repro.course`): nexus model,
  schedule, doodle-poll allocation, assessment, Likert survey, and a
  full semester simulation; and
* **observability** (:mod:`repro.obs`) — tracing and metrics for every
  backend (``python -m repro analyze <experiment>`` writes a Chrome
  trace_event timeline).

Quickstart::

    from repro.executor import create
    from repro.ptask import ParallelTaskRuntime

    ex = create("sim", cores=64)
    rt = ParallelTaskRuntime(ex)
    futures = [rt.spawn(lambda i=i: i * i, cost=1.0) for i in range(64)]
    print([f.result() for f in futures][:5], ex.elapsed())
"""

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "apps",
    "concurrentlib",
    "course",
    "executor",
    "gui",
    "machine",
    "memmodel",
    "obs",
    "ptask",
    "pyjama",
    "simkernel",
    "util",
    "vcs",
]
