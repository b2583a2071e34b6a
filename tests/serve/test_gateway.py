"""Gateway behaviour across backends: same API, typed responses, no hangs.

Process workers unpickle task bodies by import, so every body submitted
to the processes backend is a module-level function from the ``repro``
package (``repro.serve.loadgen.panel_body``) — the same spawn-safety
discipline the backend asks of applications.
"""

import sys
import threading

import pytest

from repro.executor.base import ExecutorShutdown
from repro.executor.factory import create
from repro.obs import TraceRecorder
from repro.obs.rtrace import RequestTraceCollector
from repro.resilience import CancelToken, FaultPlan, InjectedFault, RetryPolicy
from repro.serve.admission import AdmissionPolicy
from repro.serve.batching import BatchPolicy
from repro.serve.cache import LRUTTLCache, ModeledCache
from repro.serve.gateway import Gateway
from repro.serve.loadgen import panel_body
from repro.serve.requests import Completed, Failed, Rejected


def small_batches() -> BatchPolicy:
    return BatchPolicy(max_size=4, max_delay=0.001)


#: virtual seconds a sim holder keeps its core: longer than any test pumps
HOLD_COST = 1000.0


def hold_every_core(gateway: Gateway) -> threading.Event:
    """Occupy every core with a one-request batch of kind ``hold``, so
    the requests that follow wait for company as they do under load (on
    an idle pool a batch dispatches at once).

    Under sim each holder costs ``HOLD_COST`` virtual seconds.  On
    threads each parks its worker on the returned event: set it once
    the held requests may run, and before the executor shuts down.
    Holders bypass the cache and count toward the queue depth.
    """
    release = threading.Event()
    body = release.wait if gateway.mode == "thread" else int
    for _ in range(gateway.executor.cores):
        gateway.submit(body, task="hold", key=None, cost=HOLD_COST)
    return release


class Memo:
    """A memoizable body that counts its runs; with ``fail_first`` its
    first run raises ``self.error``."""

    def __init__(self, fail_first: bool = False) -> None:
        self.runs = 0
        self.fail_first = fail_first
        self.error = ValueError("boom")
        self._lock = threading.Lock()

    def __call__(self, k: int) -> int:
        with self._lock:
            self.runs += 1
            first = self.runs == 1
        if first and self.fail_first:
            raise self.error
        return k * 11


class TestSameSemanticsEveryBackend:
    @pytest.mark.parametrize("backend", ["inline", "sim", "threads"])
    def test_values_identical(self, backend):
        with create(backend) as executor:
            gateway = Gateway(executor, batching=small_batches())
            tickets = [
                gateway.submit(panel_body, k, task="panel", cost=0.001)
                for k in range(10)
            ]
            gateway.drain()
            values = [gateway.result(t, timeout=10.0).value for t in tickets]
            gateway.shutdown()
        assert values == [panel_body(k) for k in range(10)]

    def test_values_identical_processes(self):
        with create("processes", cores=2) as executor:
            gateway = Gateway(executor, batching=small_batches())
            tickets = [
                gateway.submit(panel_body, k, task="panel") for k in range(8)
            ]
            gateway.drain()
            values = [gateway.result(t, timeout=30.0).value for t in tickets]
            gateway.shutdown()
        assert values == [panel_body(k) for k in range(8)]

    @pytest.mark.parametrize("backend", ["sim", "threads"])
    def test_batch_size_reported(self, backend):
        with create(backend) as executor:
            gateway = Gateway(
                executor, batching=BatchPolicy(max_size=4, max_delay=5.0)
            )
            release = hold_every_core(gateway)
            tickets = [
                gateway.submit(panel_body, k, task="panel") for k in range(4)
            ]
            release.set()
            resp = gateway.result(tickets[0], timeout=10.0)
            gateway.shutdown()
        assert isinstance(resp, Completed) and resp.batch_size == 4


class TestCloseRule:
    """A batch waits for company only while every core is busy (sim,
    exact virtual times; ``pump`` rather than ``drain``/``result``,
    which flush open batches and would hide the wait)."""

    def test_idle_pool_dispatches_a_lone_request_at_once(self):
        with create("sim", cores=2) as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=8, max_delay=5.0))
            ticket = gateway.submit(panel_body, 1, task="panel", key=None, cost=0.25)
            gateway.pump(now=1.0)
            assert ticket.done()
            resp = ticket.response()
            gateway.shutdown()
        assert isinstance(resp, Completed)
        assert resp.latency == 0.25 and resp.batch_size == 1

    def test_oldest_open_batch_takes_the_first_free_core_whatever_its_kind(self):
        with create("sim", cores=2) as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=8, max_delay=5.0))
            gateway.submit(int, task="hold", key=None, cost=1.0)
            gateway.submit(int, task="hold", key=None, cost=1.5)
            gateway.pump(now=0.1)
            a = gateway.submit(panel_body, 1, task="a", key=None, cost=1.0)
            gateway.pump(now=0.2)
            b = gateway.submit(panel_body, 2, task="b", key=None, cost=1.0)
            gateway.pump(now=2.5)
            assert a.done() and b.done()
            gateway.shutdown()
        # a takes the core freed at 1.0, b the one freed at 1.5
        assert a.response().latency == 1.0 + 1.0 - 0.1
        assert b.response().latency == 1.5 + 1.0 - 0.2
        assert a.response().batch_size == b.response().batch_size == 1

    def test_batches_fill_while_every_core_is_busy(self):
        # 100 req/s of one kind against 2 cores that serve 20 req/s in
        # batches of 4: the pool never idles after the first two requests
        with create("sim", cores=2) as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=4, max_delay=10.0))
            tickets = []
            for i in range(42):
                gateway.pump(now=i * 0.01)
                tickets.append(gateway.submit(panel_body, i, task="panel", key=None, cost=0.1))
            gateway.pump(now=100.0)
            sizes = [t.response().batch_size for t in tickets if t.done()]
            gateway.shutdown()
        assert sizes == [1, 1] + [4] * 40
        assert gateway.stats.batches == 2 + 10


class TestAdmission:
    def test_queue_depth_sheds_typed(self):
        with create("sim") as executor:
            # the holders count toward the depth: 3 places are left
            gateway = Gateway(
                executor,
                admission=AdmissionPolicy(max_queue=3 + executor.cores),
                batching=BatchPolicy(max_size=100, max_delay=10.0),
            )
            hold_every_core(gateway)
            tickets = [gateway.submit(panel_body, k, key=None) for k in range(5)]
            responses = [t.response(0.1) if t.done() else None for t in tickets]
            shed = [r for r in responses if isinstance(r, Rejected)]
            assert len(shed) == 2 and all(r.reason == "queue" for r in shed)
            gateway.shutdown()

    def test_rate_limit_sheds_typed(self):
        with create("inline") as executor:
            gateway = Gateway(
                executor,
                admission=AdmissionPolicy(rate=1.0, burst=2.0, max_queue=None),
                batching=small_batches(),
            )
            tickets = [gateway.submit(panel_body, k, key=None) for k in range(4)]
            shed = [
                t.response(0.1)
                for t in tickets
                if t.done() and isinstance(t.response(0.1), Rejected)
            ]
            assert len(shed) == 2 and all(r.reason == "rate" for r in shed)
            gateway.shutdown()

    def test_submit_never_blocks_under_overload(self):
        with create("sim") as executor:
            gateway = Gateway(
                executor,
                admission=AdmissionPolicy(max_queue=1),
                batching=BatchPolicy(max_size=1000, max_delay=100.0),
            )
            for k in range(200):
                gateway.submit(panel_body, k, key=None)  # must return instantly
            assert gateway.queue_depth <= 1
            gateway.shutdown()


class TestLifecycle:
    def test_cancel_token_rejects_at_dispatch(self):
        token = CancelToken(name="client-gone")
        with create("sim") as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=10, max_delay=0.5))
            hold_every_core(gateway)
            ticket = gateway.submit(panel_body, 1, key=None, cancel=token)
            token.cancel()
            gateway.drain()
            resp = ticket.response(1.0)
            gateway.shutdown()
        assert isinstance(resp, Rejected) and resp.reason == "cancelled"

    def test_deadline_rejects_when_dispatch_is_late(self):
        with create("sim") as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=10, max_delay=1.0))
            hold_every_core(gateway)
            ticket = gateway.submit(panel_body, 1, key=None, deadline=0.5)
            gateway.pump(now=2.0)  # batch ages out at t=1.0 > deadline
            resp = ticket.response(1.0)
            gateway.shutdown()
        assert isinstance(resp, Rejected) and resp.reason == "deadline"

    def test_deadline_met_when_dispatch_is_prompt(self):
        with create("sim") as executor:
            gateway = Gateway(executor, batching=BatchPolicy(max_size=1, max_delay=0.0))
            ticket = gateway.submit(panel_body, 1, key=None, deadline=0.5)
            gateway.drain()
            resp = ticket.response(1.0)
            gateway.shutdown()
        assert isinstance(resp, Completed)

    def test_shutdown_drain_false_rejects_queued_requests(self):
        """The stranded-request mirror of ExecutorShutdown: queued but
        undispatched work resolves with Rejected, nobody waits forever."""
        with create("sim") as executor:
            gateway = Gateway(
                executor, batching=BatchPolicy(max_size=1000, max_delay=100.0)
            )
            hold_every_core(gateway)
            tickets = [gateway.submit(panel_body, k, key=None) for k in range(7)]
            gateway.shutdown(drain=False)
            responses = [t.response(1.0) for t in tickets]
        assert all(isinstance(r, Rejected) and r.reason == "shutdown" for r in responses)

    def test_shutdown_drain_false_threads_no_hang(self):
        with create("threads", cores=2) as executor:
            gateway = Gateway(
                executor, batching=BatchPolicy(max_size=1000, max_delay=100.0)
            )
            tickets = [gateway.submit(panel_body, k, key=None) for k in range(20)]
            gateway.shutdown(drain=False)
            responses = [t.response(5.0) for t in tickets]  # must all resolve
        assert all(isinstance(r, (Rejected, Completed, Failed)) for r in responses)
        assert any(isinstance(r, Rejected) and r.reason == "shutdown" for r in responses)

    def test_submit_after_shutdown_is_rejected_not_raised(self):
        with create("inline") as executor:
            gateway = Gateway(executor)
            gateway.shutdown()
            resp = gateway.submit(panel_body, 1).response(1.0)
        assert isinstance(resp, Rejected) and resp.reason == "shutdown"

    def test_shutdown_idempotent(self):
        with create("inline") as executor:
            gateway = Gateway(executor)
            gateway.shutdown()
            gateway.shutdown(drain=False)


class TestCacheIntegration:
    def test_modeled_warm_key_serves_cached_zero_latency(self):
        with create("sim") as executor:
            gateway = Gateway(
                executor,
                cache=ModeledCache(hit_rate=1.0, seed=0),
                batching=small_batches(),
            )
            ticket = gateway.submit(panel_body, 3, task="panel", cost=0.01)
            resp = gateway.result(ticket)
            gateway.shutdown()
        assert isinstance(resp, Completed)
        assert resp.cached and resp.latency == 0.0 and resp.value == panel_body(3)

    def test_lru_repeat_request_is_a_hit(self):
        with create("threads", cores=2) as executor:
            gateway = Gateway(
                executor, cache=LRUTTLCache(capacity=16), batching=small_batches()
            )
            first = gateway.submit(panel_body, 5, task="panel")
            gateway.drain()
            assert isinstance(first.response(5.0), Completed)
            second = gateway.submit(panel_body, 5, task="panel")
            resp = second.response(5.0)
            gateway.shutdown()
        assert isinstance(resp, Completed) and resp.cached

    def test_uncacheable_arguments_still_served(self):
        class Opaque:
            pass

        captured = []

        def probe(x):
            captured.append(x)
            return "ok"

        with create("inline") as executor:
            gateway = Gateway(
                executor, cache=LRUTTLCache(capacity=4), batching=small_batches()
            )
            ticket = gateway.submit(probe, Opaque(), task="opaque")
            resp = gateway.result(ticket)
            gateway.shutdown()
        assert isinstance(resp, Completed) and resp.value == "ok"
        assert ticket.key is None and len(captured) == 1


class TestFaultsAndRetries:
    def test_injected_faults_retried_transparently(self):
        plan = FaultPlan(seed=3, task_failure_rate=0.4)
        recorder = TraceRecorder()
        with create("sim", trace=recorder, faults=plan) as executor:
            gateway = Gateway(
                executor,
                batching=small_batches(),
                retry=RetryPolicy(
                    max_attempts=10, base_delay=0.0, max_delay=0.0, jitter=0.0,
                    retry_on=(InjectedFault,),
                ),
                trace=recorder,
            )
            tickets = [
                gateway.submit(panel_body, k, task="panel", key=None)
                for k in range(30)
            ]
            gateway.drain()
            responses = [t.response(1.0) for t in tickets]
            gateway.shutdown()
        assert all(isinstance(r, Completed) for r in responses)
        assert gateway.stats.retries > 0
        kinds = {e.kind for e in recorder.events()}
        assert "retry" in kinds and "fault" in kinds

    def test_exhausted_retries_fail_typed(self):
        plan = FaultPlan(seed=1, task_failure_rate=1.0)
        with create("sim", faults=plan) as executor:
            gateway = Gateway(
                executor,
                batching=small_batches(),
                retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            )
            ticket = gateway.submit(panel_body, 1, key=None)
            resp = gateway.result(ticket)
            gateway.shutdown()
        assert isinstance(resp, Failed) and isinstance(resp.error, InjectedFault)

    def test_retry_that_hits_shutdown_keeps_its_attempt_count(self, monkeypatch):
        """The first attempt fails, its retry cannot be submitted: the
        response reports both attempts and a retry stage, as the driven
        source does."""
        plan = FaultPlan(seed=0, task_failure_rate=1.0)
        collector = RequestTraceCollector()
        with create("threads", cores=2, faults=plan) as executor:
            sends: list[str] = []
            for attr in ("submit", "submit_many"):

                def second_send_raises(*args, _attr=attr, _real=getattr(executor, attr), **kwargs):
                    sends.append(_attr)
                    if len(sends) > 1:
                        raise ExecutorShutdown("pool shut down under the retry")
                    return _real(*args, **kwargs)

                monkeypatch.setattr(executor, attr, second_send_raises)
            gateway = Gateway(
                executor,
                batching=BatchPolicy(max_size=1, max_delay=0.0),
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0,
                    retry_on=(InjectedFault,),
                ),
                rtrace=collector,
            )
            resp = gateway.submit(panel_body, 1, key=None).response(timeout=10.0)
            gateway.shutdown()
        assert len(sends) == 2
        assert isinstance(resp, Failed) and isinstance(resp.error, ExecutorShutdown)
        assert resp.attempts == 2
        (rt,) = collector.summary().exemplars
        assert [stage for stage, _ in rt.marks] == [
            "admit", "cache", "batch", "retry", "resolve",
        ]


@pytest.mark.parametrize("backend", ["sim", "threads"])
class TestSingleFlightThroughGateway:
    """Followers coalesced on an in-flight key wait in the gateway under
    both completion sources and share their leader's outcome."""

    @staticmethod
    def gateway(executor) -> tuple[Gateway, threading.Event]:
        # busy cores and the long max_delay keep the leader queued until
        # the holders are released, drain or shutdown, so both followers
        # arrive while its key is in flight
        gateway = Gateway(
            executor,
            cache=LRUTTLCache(capacity=8),
            batching=BatchPolicy(max_size=8, max_delay=10.0),
        )
        return gateway, hold_every_core(gateway)

    def test_followers_share_the_leaders_single_run(self, backend):
        memo = Memo()
        with create(backend) as executor:
            gateway, release = self.gateway(executor)
            tickets = [gateway.submit(memo, 7, task="memo") for _ in range(3)]
            release.set()
            gateway.drain()
            leader, *followers = [t.response(timeout=10.0) for t in tickets]
            gateway.shutdown()
        assert memo.runs == 1
        assert isinstance(leader, Completed) and not leader.cached
        assert leader.value == 77
        assert all(
            isinstance(r, Completed) and r.cached and r.value == 77 for r in followers
        )

    def test_leader_failure_fails_followers_and_next_request_leads(self, backend):
        memo = Memo(fail_first=True)
        with create(backend) as executor:
            gateway, release = self.gateway(executor)
            tickets = [gateway.submit(memo, 7, task="memo") for _ in range(3)]
            release.set()
            gateway.drain()
            responses = [t.response(timeout=10.0) for t in tickets]
            again = gateway.submit(memo, 7, task="memo")
            gateway.drain()
            retried = again.response(timeout=10.0)
            gateway.shutdown()
        assert all(isinstance(r, Failed) and r.error is memo.error for r in responses)
        assert isinstance(retried, Completed) and not retried.cached
        assert retried.value == 77 and memo.runs == 2

    def test_shutdown_rejects_queued_leader_and_fails_followers(self, backend):
        memo = Memo()
        with create(backend) as executor:
            gateway, release = self.gateway(executor)
            tickets = [gateway.submit(memo, 7, task="memo") for _ in range(3)]
            gateway.shutdown(drain=False)
            release.set()
            leader, *followers = [t.response(timeout=5.0) for t in tickets]
        assert isinstance(leader, Rejected) and leader.reason == "shutdown"
        assert all(
            isinstance(r, Failed) and isinstance(r.error, ExecutorShutdown)
            for r in followers
        )
        assert memo.runs == 0


class TestThreadModeConcurrency:
    def test_many_clients_submit_concurrently(self):
        with create("threads", cores=2) as executor:
            gateway = Gateway(
                executor,
                batching=BatchPolicy(max_size=8, max_delay=0.002),
                cache=LRUTTLCache(capacity=64),
            )
            results: list[list] = [[] for _ in range(4)]

            def client(i: int) -> None:
                tickets = [
                    gateway.submit(panel_body, (i * 7 + j) % 10, task="panel")
                    for j in range(25)
                ]
                results[i] = [t.response(10.0) for t in tickets]

            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            gateway.drain()
            for t in threads:
                t.join(timeout=15.0)
            gateway.shutdown()
        flat = [r for rs in results for r in rs]
        assert len(flat) == 100
        assert all(isinstance(r, Completed) for r in flat)

    def test_inflight_count_survives_racing_clients_and_callbacks(self):
        # more clients than cores and a short switch interval, so submits
        # and done-callbacks interleave; a lost update of the in-flight
        # count would strand an open batch or leave the count off zero
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with create("threads", cores=2) as executor:
                gateway = Gateway(executor, batching=BatchPolicy(max_size=4, max_delay=0.05))
                results: list[list] = [[] for _ in range(6)]

                def client(i: int) -> None:
                    tickets = [
                        gateway.submit(panel_body, j, task="ab"[j % 2], key=None)
                        for j in range(50)
                    ]
                    results[i] = [t.response(10.0) for t in tickets]

                threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=20.0)
                assert not any(t.is_alive() for t in threads)
                with gateway._lock:
                    assert gateway._inflight == 0 and gateway._batcher.pending() == 0
                gateway.shutdown()
        finally:
            sys.setswitchinterval(interval)
        flat = [r for rs in results for r in rs]
        assert len(flat) == 300 and all(isinstance(r, Completed) for r in flat)
