"""Queryable run-history store: every analyzed run becomes a record.

Every other observability surface in the repo — ``obs.analyze``,
``obs.baseline``, ``obs.slo`` — sees exactly one run at a time.  This
module is the longitudinal half (the paper's own method compares
cohorts across semesters): each analyzed, benchmarked or served run is
captured as a schema-versioned :class:`RunRecord` and appended to a
sharded, append-only JSONL store under ``benchmarks/runs/``, where it
stays queryable forever.  It is also where baselines live: a baseline
is a run record tagged :data:`PINNED`, and :meth:`RunStore.baseline`
returns an experiment's latest pin for the regression gate.

Three layers:

* :class:`RunRecord` — one run's flat metric map plus its identity
  (experiment id, producing command, backend kind + cores, seed,
  timestamp, revision), verdicts (baseline gate, SLO), per-metric deltas
  from a baseline comparison, the dominant latency stage, and free-form
  tags.  ``to_dict``/``from_dict`` round-trip exactly and reject unknown
  keys (the :class:`~repro.executor.factory.ExecutorConfig` contract).
* :class:`RunStore` — the persistence layer: records are appended as one
  JSON line each to ``shard-NN.jsonl`` files (shard chosen by experiment
  id hash), an in-memory index dedups identical records so re-ingesting
  a run is a byte-level no-op, :meth:`RunStore.query` filters by
  experiment/kind/backend/tag/verdict/time, :meth:`RunStore.baseline`
  finds the latest pin, and :meth:`RunStore.compact` rewrites shards
  time-ordered with duplicates dropped.
* :func:`aggregate` — min/mean/max/p50/p99 reducers over a metric,
  optionally grouped by experiment, kind, backend or revision.

Timestamps and revisions are **injectable**: :func:`use_clock` installs
an ambient ``(clock, revision)`` source — mirroring how the simulator
owns a :class:`~repro.util.stopwatch.ManualClock` — so golden-path runs
stamp records from virtual time and never touch the wall clock or the
git metadata reader.  Outside that scope, :func:`current_stamp` falls
back to ``time.time()`` and a subprocess-free read of ``.git/HEAD``.
Pins always take that wall-clock stamp, so the latest pin is the one
made last.  :func:`emit_metrics` exports fleet-level aggregates as
gauges the Prometheus exporter renders under ``repro_store_*``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.obs.metrics import Metrics
from repro.util.rng import stable_hash
from repro.util.stats import quantile
from repro.util.stopwatch import Clock

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_STORE_DIR",
    "RUN_KINDS",
    "PINNED",
    "REDUCERS",
    "RunRecord",
    "RunStore",
    "Aggregate",
    "aggregate",
    "reduce_values",
    "use_clock",
    "current_stamp",
    "head_revision",
    "default_store_dir",
    "emit_metrics",
]

#: Version stamped into every record; loaders skip records from a newer
#: schema instead of guessing at their shape.
SCHEMA_VERSION = 1

#: Where records land unless the caller (or ``REPRO_RUNS_STORE``) says otherwise.
DEFAULT_STORE_DIR = Path("benchmarks/runs")

#: How many ``shard-NN.jsonl`` files a store spreads its records over.
DEFAULT_SHARDS = 4

#: Which command produced a record; ``bench`` is for harness-level ingestion.
RUN_KINDS = ("analyze", "compare", "serve", "chaos", "bench")

#: The tag that makes a record its experiment's baseline
#: (``--update-baseline``); :meth:`RunStore.baseline` reads the latest.
PINNED = "pinned"

#: Reducers :func:`aggregate` understands.
REDUCERS = ("min", "max", "mean", "p50", "p99")


def default_store_dir() -> Path:
    """The ambient store location: ``$REPRO_RUNS_STORE`` or ``benchmarks/runs``."""
    return Path(os.environ.get("REPRO_RUNS_STORE", str(DEFAULT_STORE_DIR)))


# -- injectable timestamps + revisions ---------------------------------------

_ambient = threading.local()


@contextmanager
def use_clock(clock: Clock, revision: str = "sim") -> Iterator[None]:
    """Install an ambient ``(clock, revision)`` stamp source for records.

    Inside the scope, :func:`current_stamp` reads ``clock.now()`` and the
    given revision instead of the wall clock and git — so a simulated run
    (or a test) stamps its records deterministically and double-ingest is
    byte-identical at the store level.  Scopes nest; thread-local, like
    the other ambient installers in the library.
    """
    prev = getattr(_ambient, "stamp", None)
    _ambient.stamp = (clock, str(revision))
    try:
        yield
    finally:
        _ambient.stamp = prev


def current_stamp() -> tuple[float, str]:
    """The ``(timestamp, revision)`` a record created now should carry.

    With :func:`use_clock` installed this is pure virtual time — no
    wall-clock or VCS reads happen on that path.
    """
    stamp = getattr(_ambient, "stamp", None)
    if stamp is not None:
        clock, revision = stamp
        return float(clock.now()), revision
    return time.time(), head_revision()


_rev_cache: dict[str, str] = {}


def head_revision(root: Path | str = ".") -> str:
    """The current git revision (12 hex chars), or ``"unknown"``.

    Reads ``.git/HEAD`` (following one level of ``ref:`` indirection,
    including ``packed-refs``) directly — no subprocess — and caches per
    root, so stamping many records stays cheap.
    """
    key = str(Path(root).resolve())
    cached = _rev_cache.get(key)
    if cached is not None:
        return cached
    rev = "unknown"
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            ref = head.split(None, 1)[1]
            ref_path = git / ref
            if ref_path.exists():
                rev = ref_path.read_text().strip()[:12] or "unknown"
            else:
                packed = git / "packed-refs"
                if packed.exists():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + ref):
                            rev = line.split()[0][:12]
                            break
        elif head:
            rev = head[:12]
    except OSError:
        pass
    _rev_cache[key] = rev
    return rev


# -- the record --------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """One run, flattened: identity, metrics, verdicts, provenance.

    Parameters
    ----------
    exp_id:
        The experiment (or serve-run id like ``serve_overload_sim``) the
        record belongs to; timelines group on this.
    kind:
        Which command produced it — one of :data:`RUN_KINDS`.
    metrics:
        Flat ``name -> float`` map (the ``Metrics.snapshot()`` /
        ``obs.analyze`` baseline-metrics shape); stored sorted.
    backend / cores / seed:
        Execution identity, when the producer knows it.
    timestamp / revision:
        Stamp from :func:`current_stamp` — injectable, see
        :func:`use_clock`.
    verdicts:
        Gate outcomes by gate name, e.g. ``{"baseline": "regression"}``
        or ``{"slo": "pass"}``.
    deltas:
        Per-metric relative movement vs the stored baseline, recorded by
        ``python -m repro compare`` (``0.12`` = 12% up).
    dominant_stage:
        The stage dominating the latency tail of a traced serve run.
    tags:
        Free-form labels (:data:`PINNED`, ``"regressed:<metric>"`` …).
    """

    exp_id: str
    kind: str
    metrics: dict[str, float]
    backend: str | None = None
    cores: int | None = None
    seed: int | None = None
    timestamp: float = 0.0
    revision: str = "unknown"
    verdicts: dict[str, str] = field(default_factory=dict)
    deltas: dict[str, float] = field(default_factory=dict)
    dominant_stage: str | None = None
    tags: tuple[str, ...] = ()
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not isinstance(self.exp_id, str) or not self.exp_id:
            raise ValueError(f"exp_id must be a non-empty string, got {self.exp_id!r}")
        if self.kind not in RUN_KINDS:
            raise ValueError(f"kind must be one of {RUN_KINDS}, got {self.kind!r}")
        if self.cores is not None and self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if self.schema != SCHEMA_VERSION:
            raise ValueError(
                f"RunRecord is schema {SCHEMA_VERSION}, got {self.schema!r} "
                f"(newer records are skipped at load time, not parsed)"
            )
        object.__setattr__(
            self, "metrics", dict(sorted((str(k), float(v)) for k, v in self.metrics.items()))
        )
        object.__setattr__(
            self, "verdicts", dict(sorted((str(k), str(v)) for k, v in self.verdicts.items()))
        )
        object.__setattr__(
            self, "deltas", dict(sorted((str(k), float(v)) for k, v in self.deltas.items()))
        )
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))
        object.__setattr__(self, "timestamp", float(self.timestamp))

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict snapshot that :meth:`from_dict` reconstructs exactly."""
        return {
            "schema": self.schema,
            "exp_id": self.exp_id,
            "kind": self.kind,
            "backend": self.backend,
            "cores": self.cores,
            "seed": self.seed,
            "timestamp": self.timestamp,
            "revision": self.revision,
            "metrics": dict(self.metrics),
            "verdicts": dict(self.verdicts),
            "deltas": dict(self.deltas),
            "dominant_stage": self.dominant_stage,
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a record from :meth:`to_dict` output, rejecting unknown keys."""
        if not isinstance(data, Mapping):
            raise ValueError(f"RunRecord.from_dict expects a mapping, got {type(data).__name__}")
        allowed = {f.name for f in fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(
                f"unknown RunRecord keys {sorted(unknown)}; expected a subset of {sorted(allowed)}"
            )
        missing = {"exp_id", "kind", "metrics"} - set(data)
        if missing:
            raise ValueError(f"RunRecord.from_dict missing required keys {sorted(missing)}")
        kwargs = dict(data)
        kwargs["tags"] = tuple(kwargs.get("tags", ()))
        return cls(**kwargs)

    def to_json(self) -> str:
        """The canonical one-line JSON form the store appends."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @property
    def key(self) -> int:
        """Content hash: identical records collide, which is what makes
        re-ingesting the same run an idempotent no-op."""
        return stable_hash("RunRecord", self.to_json())

    @property
    def regressed(self) -> bool:
        """True when any gate verdict on this run is bad."""
        return any(v in ("regression", "violation", "fail") for v in self.verdicts.values())


# -- the store ---------------------------------------------------------------


class RunStore:
    """Sharded, append-only JSONL store of :class:`RunRecord` s.

    Records live one-per-line in ``shard-NN.jsonl`` files under ``root``
    (shard picked by a stable hash of the experiment id, so one
    experiment's history stays in one file).  The whole store is loaded
    into an in-memory index at construction: a content-hash set for
    idempotent appends plus the records in load order (shard filename,
    then line), which is the tie-break for equal timestamps.

    Thread-safe for appends; cheap for the store sizes a repo
    accumulates (thousands of runs, not millions — each record is one
    flat metric map).
    """

    def __init__(self, root: Path | str | None = None, shards: int = DEFAULT_SHARDS) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.root = Path(root) if root is not None else default_store_dir()
        self.shards = shards
        self._lock = threading.RLock()
        self._records: list[RunRecord] = []
        self._keys: set[int] = set()
        #: lines present on disk that did not load (unparseable, wrong
        #: schema, or duplicates) — what :meth:`compact` would clean up.
        self.skipped_lines = 0
        self._load()

    # -- persistence ---------------------------------------------------------

    def shard_path(self, exp_id: str) -> Path:
        """Which shard file records for ``exp_id`` land in."""
        return self.root / f"shard-{stable_hash('runstore.shard', exp_id) % self.shards:02d}.jsonl"

    def _load(self) -> None:
        self._records = []
        self._keys = set()
        self.skipped_lines = 0
        if not self.root.exists():
            return
        for path in sorted(self.root.glob("shard-*.jsonl")):
            for line in path.read_text().splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    if not isinstance(doc, dict) or int(doc.get("schema", 0)) != SCHEMA_VERSION:
                        self.skipped_lines += 1
                        continue
                    rec = RunRecord.from_dict(doc)
                except (ValueError, KeyError, TypeError):
                    self.skipped_lines += 1
                    continue
                if rec.key in self._keys:
                    self.skipped_lines += 1
                    continue
                self._keys.add(rec.key)
                self._records.append(rec)

    def append(self, record: RunRecord) -> bool:
        """Append one record; returns False (and writes nothing) when an
        identical record is already stored — ingest is idempotent."""
        with self._lock:
            if record.key in self._keys:
                return False
            self.root.mkdir(parents=True, exist_ok=True)
            with self.shard_path(record.exp_id).open("a", encoding="utf-8") as fh:
                fh.write(record.to_json() + "\n")
            self._keys.add(record.key)
            self._records.append(record)
            return True

    def record(self, exp_id: str, kind: str, metrics: Mapping[str, float], **kwargs: Any) -> RunRecord:
        """Build a record stamped via :func:`current_stamp` and append it.

        Explicit ``timestamp=``/``revision=`` keyword arguments override
        the ambient stamp.  Returns the record either way (appended or
        deduped)."""
        ts, rev = current_stamp()
        kwargs.setdefault("timestamp", ts)
        kwargs.setdefault("revision", rev)
        rec = RunRecord(exp_id=exp_id, kind=kind, metrics=dict(metrics), **kwargs)
        self.append(rec)
        return rec

    def add(self, record: RunRecord) -> RunRecord:
        """Stamp an unstamped record via :func:`current_stamp` and append.

        Producers like ``LoadReport.run_record`` build records without
        identity-of-time (timestamp 0.0, revision ``unknown``); this is
        where that identity gets filled in.  Records that already carry
        a stamp pass through untouched.
        """
        if record.timestamp == 0.0 and record.revision == "unknown":
            ts, rev = current_stamp()
            record = replace(record, timestamp=ts, revision=rev)
        self.append(record)
        return record

    def compact(self) -> int:
        """Rewrite every shard time-ordered with duplicate, unparseable
        and foreign-schema lines dropped; returns the lines removed.

        The in-memory index is authoritative: what loaded is what
        survives.  Use after hand-editing shards or after concurrent
        writers raced an append."""
        with self._lock:
            raw_lines = 0
            if self.root.exists():
                for path in self.root.glob("shard-*.jsonl"):
                    raw_lines += sum(1 for ln in path.read_text().splitlines() if ln.strip())
            by_shard: dict[Path, list[RunRecord]] = {}
            for rec in self._ordered():
                by_shard.setdefault(self.shard_path(rec.exp_id), []).append(rec)
            if self.root.exists():
                for path in self.root.glob("shard-*.jsonl"):
                    if path not in by_shard:
                        path.unlink()
            for path, recs in by_shard.items():
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("".join(r.to_json() + "\n" for r in recs), encoding="utf-8")
            self.skipped_lines = 0
            return raw_lines - len(self._records)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._ordered())

    def _ordered(self) -> list[RunRecord]:
        """Records sorted by timestamp, load/append order breaking ties."""
        return [
            rec
            for _, rec in sorted(
                enumerate(self._records), key=lambda pair: (pair[1].timestamp, pair[0])
            )
        ]

    def experiments(self) -> list[str]:
        """Every experiment id with at least one record, sorted."""
        return sorted({rec.exp_id for rec in self._records})

    def query(
        self,
        exp: str | None = None,
        kind: str | None = None,
        backend: str | None = None,
        tag: str | None = None,
        verdict: str | None = None,
        since: float | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Time-ordered records matching every given filter.

        ``verdict`` matches any gate (``"regression"`` finds runs where
        *some* gate said regression); ``since`` is an inclusive timestamp
        lower bound; ``limit`` keeps the **newest** N matches.
        """
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        out = []
        for rec in self._ordered():
            if exp is not None and rec.exp_id != exp:
                continue
            if kind is not None and rec.kind != kind:
                continue
            if backend is not None and rec.backend != backend:
                continue
            if tag is not None and tag not in rec.tags:
                continue
            if verdict is not None and verdict not in rec.verdicts.values():
                continue
            if since is not None and rec.timestamp < since:
                continue
            out.append(rec)
        if limit is not None:
            out = out[-limit:]
        return out

    def baseline(self, exp_id: str) -> RunRecord | None:
        """The latest :data:`PINNED` record for ``exp_id`` — the baseline
        ``compare`` and ``serve --compare`` gate against — or ``None``
        before the first pin."""
        pins = self.query(exp=exp_id, tag=PINNED)
        return pins[-1] if pins else None

    def __repr__(self) -> str:
        return f"RunStore({str(self.root)!r}, {len(self._records)} record(s), {self.shards} shard(s))"


# -- aggregation -------------------------------------------------------------


def reduce_values(values: Sequence[float], reducer: str) -> float:
    """Apply one named reducer; percentiles are exact nearest-rank."""
    if reducer not in REDUCERS:
        raise ValueError(f"reducer must be one of {REDUCERS}, got {reducer!r}")
    if not values:
        raise ValueError("cannot reduce an empty value list")
    xs = sorted(float(v) for v in values)
    if reducer == "min":
        return xs[0]
    if reducer == "max":
        return xs[-1]
    if reducer == "mean":
        return sum(xs) / len(xs)
    return quantile(xs, 0.50 if reducer == "p50" else 0.99)


@dataclass(frozen=True)
class Aggregate:
    """One group's reduced value: ``n`` runs contributed ``value``."""

    group: str
    n: int
    value: float


#: ``group_by`` key -> how to label a record's group.
_GROUPERS = {
    "exp": lambda r: r.exp_id,
    "kind": lambda r: r.kind,
    "backend": lambda r: r.backend if r.backend is not None else "-",
    "revision": lambda r: r.revision,
}


def aggregate(
    records: Iterable[RunRecord],
    metric: str,
    reduce: str = "mean",
    group_by: str | None = None,
) -> list[Aggregate]:
    """Reduce one metric over many records, optionally grouped.

    Records that never measured ``metric`` are skipped (an untraced run
    does not drag a p99 to zero).  Groups come back sorted by label;
    without ``group_by`` the single group is ``"all"``.
    """
    if group_by is not None and group_by not in _GROUPERS:
        raise ValueError(f"group_by must be one of {sorted(_GROUPERS)}, got {group_by!r}")
    grouper = _GROUPERS[group_by] if group_by is not None else (lambda r: "all")
    groups: dict[str, list[float]] = {}
    for rec in records:
        value = rec.metrics.get(metric)
        if value is None:
            continue
        groups.setdefault(grouper(rec), []).append(value)
    return [
        Aggregate(group=name, n=len(vals), value=reduce_values(vals, reduce))
        for name, vals in sorted(groups.items())
    ]


# -- Prometheus export -------------------------------------------------------


def emit_metrics(store: RunStore, metrics: Metrics) -> None:
    """Set fleet-level store gauges on a :class:`Metrics` registry.

    The exporter's sanitizer turns the dotted names into
    ``repro_store_*`` series: total runs, distinct experiments, per-kind
    counts, runs whose gates failed, and the newest stamp — enough for a
    dashboard to alert on "a regression landed" without parsing JSONL.
    """
    records = list(store)
    metrics.gauge("store.runs").set(float(len(records)))
    metrics.gauge("store.experiments").set(float(len(store.experiments())))
    metrics.gauge("store.shards").set(float(store.shards))
    by_kind: dict[str, int] = {}
    for rec in records:
        by_kind[rec.kind] = by_kind.get(rec.kind, 0) + 1
    for kind in RUN_KINDS:
        metrics.gauge(f"store.runs_{kind}").set(float(by_kind.get(kind, 0)))
    metrics.gauge("store.regressed_runs").set(
        float(sum(1 for rec in records if rec.regressed))
    )
    metrics.gauge("store.latest_timestamp").set(
        max((rec.timestamp for rec in records), default=0.0)
    )
