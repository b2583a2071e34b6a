"""Memoizing result caches for the serving gateway.

Two implementations behind one ``begin/complete/fail`` protocol:

* :class:`LRUTTLCache` — a real, thread-safe LRU with optional TTL and
  **single-flight** in-flight coalescing: the first request for a key
  becomes the *leader* and executes the body; concurrent requests for
  the same key are told to ``wait``, and the gateway parks them until
  the leader's ``complete``/``fail`` instead of re-running the work, so
  a memoized body runs at most once per key (the hypothesis property in
  ``tests/serve/test_cache.py`` pins this).  Used under the
  threads/processes backends where wall time is real.

* :class:`ModeledCache` — the deterministic stand-in for simulated
  runs, in the spirit of Occam's hit-rate-modelled ``fsm_cache``
  (SNIPPETS.md, snippet 2): each key is declared warm or cold by a
  seeded hash draw against ``hit_rate``, as if a long-running service
  had already been serving that keyspace.  A warm key's *first* access
  is charged as a hit (zero service cost) even though the value still
  has to be computed once to be returned — golden reports stay
  byte-identical because no real cache dynamics are involved.

The protocol
------------
``begin(key, now)`` returns a :class:`CacheDecision`:

=========  ==========================================================
status     meaning for the gateway
=========  ==========================================================
``hit``    value available now; respond without executing
``wait``   another request is computing this key; the caller parks
           the request until that leader's ``complete``/``fail``
``lead``   caller must execute the body, then ``complete``/``fail``;
           ``decision.charge=False`` means the execution is *not*
           charged service cost (ModeledCache warm-miss)
=========  ==========================================================
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.util.rng import stable_hash

__all__ = ["CacheDecision", "CacheStats", "LRUTTLCache", "ModeledCache"]

_HASH_SPACE = float(2**64)


@dataclass
class CacheStats:
    """Counters shared by both cache kinds; read by the gateway report."""

    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Hits (including coalesced followers) over all lookups."""
        n = self.lookups
        return (self.hits + self.coalesced) / n if n else 0.0

    def snapshot(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "expirations": self.expirations,
        }


@dataclass(frozen=True)
class CacheDecision:
    status: str  # "hit" | "wait" | "lead"
    value: Any = None
    #: False when the execution should not be charged service cost
    #: (ModeledCache treating a warm key's first access as a hit)
    charge: bool = True


class LRUTTLCache:
    """Thread-safe LRU with TTL and single-flight coalescing.

    ``capacity`` bounds *stored* entries (in-flight keys are tracked
    separately and do not count).  ``ttl=None`` disables expiry; expiry
    is checked lazily at lookup time against the ``now`` the caller
    passes, so the cache works identically on wall and virtual clocks.
    """

    def __init__(self, capacity: int, ttl: float | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be > 0, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: OrderedDict[str, tuple[Any, float]] = OrderedDict()
        self._inflight: set[str] = set()

    def begin(self, key: str, now: float) -> CacheDecision:
        """Look up ``key``: a fresh entry hits, an in-flight computation
        coalesces ("wait"), and anything else makes the caller the leader."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                value, stored_at = entry
                if self.ttl is not None and now - stored_at >= self.ttl:
                    del self._entries[key]
                    self.stats.expirations += 1
                else:
                    self._entries.move_to_end(key)
                    self.stats.hits += 1
                    return CacheDecision("hit", value=value)
            if key in self._inflight:
                self.stats.coalesced += 1
                return CacheDecision("wait")
            self.stats.misses += 1
            self._inflight.add(key)
            return CacheDecision("lead")

    def complete(self, key: str, value: Any, now: float) -> None:
        """Store the leader's result; the key is no longer in flight."""
        with self._lock:
            self._entries[key] = (value, now)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            self._inflight.discard(key)

    def fail(self, key: str, error: BaseException) -> None:
        """The leader failed with ``error``: nothing is cached, so the
        next request for the key leads a fresh attempt."""
        with self._lock:
            self._inflight.discard(key)

    # -- inspection (tests, reports) ---------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Stored keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: str, now: float) -> Any | None:
        """Plain lookup (counts as hit/expiry, never leads)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            value, stored_at = entry
            if self.ttl is not None and now - stored_at >= self.ttl:
                del self._entries[key]
                self.stats.expirations += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value


class ModeledCache:
    """Seeded hit-rate model: deterministic, dynamics-free (sim only).

    A key is *warm* iff a stable hash of ``(seed, key)`` maps below
    ``hit_rate``.  Warm keys are served as hits — the first access still
    computes the value (so the client sees a real result) but with
    ``charge=False`` the gateway books zero service cost for it, as if
    the entry predated the run.  Cold keys always miss.  There is no
    eviction, TTL or coalescing: the model answers "what would a warmed
    cache do", not "how does a cache converge".
    """

    def __init__(self, hit_rate: float = 0.6, seed: int = 0) -> None:
        if not 0.0 <= hit_rate <= 1.0:
            raise ValueError(f"hit_rate must be in [0, 1], got {hit_rate}")
        self.hit_rate = hit_rate
        self.seed = seed
        self.stats = CacheStats()
        self._store: dict[str, Any] = {}

    def warm(self, key: str) -> bool:
        return stable_hash(self.seed, "serve.cache", key) / _HASH_SPACE < self.hit_rate

    def begin(self, key: str, now: float) -> CacheDecision:
        if self.warm(key):
            self.stats.hits += 1
            if key in self._store:
                return CacheDecision("hit", value=self._store[key])
            return CacheDecision("lead", charge=False)
        self.stats.misses += 1
        return CacheDecision("lead")

    def complete(self, key: str, value: Any, now: float) -> None:
        if self.warm(key):
            self._store[key] = value

    def fail(self, key: str, error: BaseException) -> None:
        """Nothing to drop — the model never coalesces."""

    def __len__(self) -> int:
        return len(self._store)
