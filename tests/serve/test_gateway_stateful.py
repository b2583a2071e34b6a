"""Stateful property: random request lifecycles through the gateway.

Hypothesis drives random sequences of submits (five keys, one of whose
bodies always raises, with optional cancel tokens and 0 or 5 ms
deadlines), token cancellations, pumps of the virtual clock (driven
mode only) and drains, then a final ``shutdown`` with a random
``drain`` flag.  Both completion sources — the driven heap (sim) and
future done-callbacks (threads) — must keep the same invariants.
"""

import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.executor.factory import create
from repro.resilience import CancelToken
from repro.serve.batching import BatchPolicy
from repro.serve.cache import LRUTTLCache
from repro.serve.gateway import Gateway
from repro.serve.requests import Completed

FAILING_KEY = 4


class GatewayLifecycle(RuleBasedStateMachine):
    backend: str  # set by the per-backend subclasses below
    tokens = Bundle("tokens")

    def __init__(self) -> None:
        super().__init__()
        self.executor = create(self.backend, cores=2)
        self.gateway = Gateway(
            self.executor,
            cache=LRUTTLCache(capacity=16),
            batching=BatchPolicy(max_size=3, max_delay=0.002),
        )
        self.tickets: list = []  # (ticket, key)
        self.runs: dict[int, int] = {}
        self.runs_lock = threading.Lock()
        self.final_drain = True

    def body(self, k: int) -> int:
        with self.runs_lock:
            self.runs[k] = self.runs.get(k, 0) + 1
        if k == FAILING_KEY:
            raise ValueError(f"key {k} always fails")
        return k * 11

    @initialize(drain=st.booleans())
    def choose_final_shutdown(self, drain):
        self.final_drain = drain

    @rule(
        target=tokens,
        key=st.integers(min_value=0, max_value=4),
        cancellable=st.booleans(),
        deadline=st.sampled_from([None, 0.0, 0.005]),
    )
    def submit(self, key, cancellable, deadline):
        token = CancelToken(name=f"t{len(self.tickets)}") if cancellable else None
        ticket = self.gateway.submit(
            self.body, key, task="memo", cost=0.001, deadline=deadline, cancel=token
        )
        self.tickets.append((ticket, key))
        return token if token is not None else multiple()

    @rule(token=tokens)
    def cancel(self, token):
        token.cancel()

    @precondition(lambda self: self.gateway.mode == "driven")
    @rule(dt=st.sampled_from([0.0, 0.001, 0.003, 0.01]))
    def pump(self, dt):
        self.gateway.pump(now=self.gateway.clock.now() + dt)

    @rule()
    def drain(self):
        self.gateway.drain()

    @invariant()
    def completed_values_are_body_results(self):
        for ticket, key in self.tickets:
            if ticket.done():
                resp = ticket.response()
                if isinstance(resp, Completed):
                    assert resp.value == key * 11

    @invariant()
    def an_open_batch_means_every_core_is_busy(self):
        gateway = self.gateway
        with gateway._lock:
            if gateway._batcher.pending():
                assert gateway._inflight >= gateway.executor.cores

    @invariant()
    def memoized_bodies_run_at_most_once(self):
        with self.runs_lock:
            runs = dict(self.runs)
        assert all(n == 1 for k, n in runs.items() if k != FAILING_KEY), runs

    def teardown(self):
        try:
            self.gateway.shutdown(drain=self.final_drain)
            self.gateway.drain()
            for ticket, _ in self.tickets:
                ticket.response(timeout=10.0)  # raises TimeoutError on a hang
            self.completed_values_are_body_results()
            self.memoized_bodies_run_at_most_once()
            stats = self.gateway.stats
            assert stats.submitted == len(self.tickets)
            assert stats.submitted == stats.completed + stats.failed + stats.shed_total
            assert self.gateway.queue_depth == 0
        finally:
            self.executor.shutdown()


class SimLifecycle(GatewayLifecycle):
    backend = "sim"


class ThreadsLifecycle(GatewayLifecycle):
    backend = "threads"


_SETTINGS = settings(max_examples=60, stateful_step_count=25, deadline=None)

TestSimLifecycle = SimLifecycle.TestCase
TestSimLifecycle.settings = _SETTINGS
TestThreadsLifecycle = ThreadsLifecycle.TestCase
TestThreadsLifecycle.settings = _SETTINGS
