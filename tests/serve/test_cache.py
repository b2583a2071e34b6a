"""Memoizing cache correctness: LRU order, TTL expiry, single-flight."""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.executor.factory import create
from repro.serve.batching import BatchPolicy
from repro.serve.cache import LRUTTLCache, ModeledCache
from repro.serve.gateway import Gateway
from repro.serve.requests import Completed


class TestLRUEvictionOrder:
    def test_evicts_least_recently_used_first(self):
        c = LRUTTLCache(capacity=3)
        for i, k in enumerate(("a", "b", "c")):
            c.begin(k, float(i))
            c.complete(k, k.upper(), float(i))
        # touch "a" so "b" becomes the LRU victim
        assert c.begin("a", 3.0).status == "hit"
        c.begin("d", 4.0)
        c.complete("d", "D", 4.0)
        assert c.keys() == ["c", "a", "d"]
        assert c.stats.evictions == 1
        assert c.begin("b", 5.0).status == "lead"  # evicted -> miss

    def test_store_order_is_recency_not_insertion(self):
        c = LRUTTLCache(capacity=8)
        for k in ("x", "y", "z"):
            c.begin(k, 0.0)
            c.complete(k, k, 0.0)
        c.begin("x", 1.0)  # hit moves x to MRU
        assert c.keys() == ["y", "z", "x"]

    def test_capacity_one(self):
        c = LRUTTLCache(capacity=1)
        c.begin("a", 0.0)
        c.complete("a", 1, 0.0)
        c.begin("b", 1.0)
        c.complete("b", 2, 1.0)
        assert c.keys() == ["b"]
        assert c.stats.evictions == 1


class TestTTLExpiry:
    def test_entry_expires_after_ttl(self):
        c = LRUTTLCache(capacity=8, ttl=10.0)
        c.begin("k", 0.0)
        c.complete("k", 42, 0.0)
        assert c.begin("k", 9.99).status == "hit"
        decision = c.begin("k", 10.0)  # ttl is inclusive at the boundary
        assert decision.status == "lead"
        assert c.stats.expirations == 1

    def test_completion_refreshes_stored_at(self):
        c = LRUTTLCache(capacity=8, ttl=10.0)
        c.begin("k", 0.0)
        c.complete("k", 1, 0.0)
        c.begin("k", 10.0)  # expired -> lead again
        c.complete("k", 2, 10.0)
        hit = c.begin("k", 19.0)
        assert hit.status == "hit" and hit.value == 2

    def test_get_respects_ttl(self):
        c = LRUTTLCache(capacity=8, ttl=5.0)
        c.begin("k", 0.0)
        c.complete("k", 7, 0.0)
        assert c.get("k", 4.0) == 7
        assert c.get("k", 6.0) is None

    def test_no_ttl_never_expires(self):
        c = LRUTTLCache(capacity=8)
        c.begin("k", 0.0)
        c.complete("k", 7, 0.0)
        assert c.begin("k", 1e9).status == "hit"


class TestSingleFlightPrimitive:
    """The cache only decides hit/wait/lead; releasing the followers is
    the gateway's job (``TestSingleFlightThroughGateway``)."""

    def test_second_request_waits_on_leader(self):
        c = LRUTTLCache(capacity=8)
        assert c.begin("k", 0.0).status == "lead"
        assert c.begin("k", 0.0).status == "wait"
        c.complete("k", 99, 0.0)
        hit = c.begin("k", 0.0)
        assert hit.status == "hit" and hit.value == 99
        assert c.stats.coalesced == 1

    def test_leader_failure_releases_waiters_uncached(self):
        c = LRUTTLCache(capacity=8)
        c.begin("k", 0.0)
        assert c.begin("k", 0.0).status == "wait"
        c.fail("k", ValueError("boom"))
        # nothing cached: the next request leads a fresh attempt
        assert c.begin("k", 1.0).status == "lead"
        assert len(c) == 0


class TestSingleFlightProperty:
    """A memoized body runs at most once per key under the threads backend."""

    @settings(max_examples=15, deadline=None)
    @given(keys=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30))
    def test_body_runs_at_most_once_per_key(self, keys):
        runs: dict[int, int] = {}
        lock = threading.Lock()

        def body(k: int) -> int:
            with lock:
                runs[k] = runs.get(k, 0) + 1
            return k * 11

        executor = create("threads", cores=2)
        gateway = Gateway(
            executor,
            cache=LRUTTLCache(capacity=64),
            batching=BatchPolicy(max_size=4, max_delay=0.001),
        )
        try:
            tickets = [gateway.submit(body, k, task="memo") for k in keys]
            gateway.drain()
            responses = [t.response(timeout=10.0) for t in tickets]
        finally:
            gateway.shutdown(drain=False)
            executor.shutdown()
        assert all(isinstance(r, Completed) for r in responses)
        for t, k in zip(tickets, keys):
            assert t.response().value == k * 11
        for k, n in runs.items():
            assert n == 1, f"body for key {k} ran {n} times"
        assert set(runs) == set(keys)


class TestModeledCache:
    def test_warm_set_is_seeded_and_stable(self):
        a = ModeledCache(hit_rate=0.5, seed=7)
        b = ModeledCache(hit_rate=0.5, seed=7)
        keys = [f"k{i}" for i in range(200)]
        assert [a.warm(k) for k in keys] == [b.warm(k) for k in keys]

    def test_hit_rate_shapes_warm_fraction(self):
        keys = [f"k{i}" for i in range(2000)]
        frac = sum(ModeledCache(hit_rate=0.7, seed=0).warm(k) for k in keys) / len(keys)
        assert 0.65 < frac < 0.75
        assert not any(ModeledCache(hit_rate=0.0, seed=0).warm(k) for k in keys)
        assert all(ModeledCache(hit_rate=1.0, seed=0).warm(k) for k in keys)

    def test_warm_key_counts_hit_even_on_first_access(self):
        c = ModeledCache(hit_rate=1.0, seed=0)
        d = c.begin("k", 0.0)
        assert d.status == "lead" and not d.charge
        assert c.stats.hits == 1 and c.stats.misses == 0
        c.complete("k", 5, 0.0)
        assert c.begin("k", 1.0).status == "hit"

    def test_cold_key_always_misses(self):
        c = ModeledCache(hit_rate=0.0, seed=0)
        for t in range(3):
            d = c.begin("k", float(t))
            assert d.status == "lead" and d.charge
            c.complete("k", 5, float(t))
        assert c.stats.misses == 3
