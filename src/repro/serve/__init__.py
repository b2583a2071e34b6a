"""``repro.serve`` — a serving gateway over the executor backends.

The batch experiments ask "how fast can we finish this work"; serving
asks "how does the system behave while work keeps arriving".  This
package layers a high-throughput front door over any
``repro.executor.create()`` backend:

- :class:`~repro.serve.gateway.Gateway` — bounded-queue submission with
  a typed ``submit()/result()`` API (responses, never hangs);
- :mod:`~repro.serve.admission` — token-bucket rate limiting and
  queue-depth backpressure (overload sheds with ``Rejected``);
- :mod:`~repro.serve.batching` — micro-batching of small homogeneous
  requests: a batch closes at once while a core is free, and otherwise
  waits for company under a max-size/max-delay policy;
- :mod:`~repro.serve.cache` — a memoizing result cache: real
  thread-safe LRU+TTL with single-flight on the real backends, a seeded
  hit-rate model (Occam's ``fsm_cache`` direction) under sim;
- :mod:`~repro.serve.loadgen` — seeded arrival traces (steady / bursty
  / diurnal / overload) and the end-to-end :func:`run_serve` report.

``python -m repro serve overload --backend sim`` is the CLI entry; the
``serve_traffic`` bench experiment and the chaos CLI compose with it.
"""

from repro.serve.admission import AdmissionController, AdmissionPolicy, TokenBucket
from repro.serve.batching import BatchPolicy, MicroBatcher, run_batch
from repro.serve.cache import CacheStats, LRUTTLCache, ModeledCache
from repro.serve.gateway import Gateway, GatewayStats
from repro.serve.loadgen import LoadReport, LoadSpec, build_trace, run_serve
from repro.serve.requests import (
    Completed,
    Failed,
    Rejected,
    Response,
    Ticket,
    Uncacheable,
    canonical_key,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BatchPolicy",
    "CacheStats",
    "Completed",
    "Failed",
    "Gateway",
    "GatewayStats",
    "LoadReport",
    "LoadSpec",
    "LRUTTLCache",
    "MicroBatcher",
    "ModeledCache",
    "Rejected",
    "Response",
    "Ticket",
    "TokenBucket",
    "Uncacheable",
    "build_trace",
    "canonical_key",
    "run_serve",
    "run_batch",
]
