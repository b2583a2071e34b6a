"""Run-history store: record round-trips, idempotent appends, queries."""

import json
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.store import (
    PINNED,
    RUN_KINDS,
    SCHEMA_VERSION,
    RunRecord,
    RunStore,
    aggregate,
    current_stamp,
    emit_metrics,
    reduce_values,
    use_clock,
)
from repro.util.stopwatch import ManualClock


def rec(exp="exp_a", kind="analyze", metrics=None, ts=1.0, **kw):
    return RunRecord(
        exp_id=exp,
        kind=kind,
        metrics=metrics if metrics is not None else {"m": 1.0},
        timestamp=ts,
        revision="sim",
        **kw,
    )


# -- RunRecord serialization -------------------------------------------------

metric_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz._", min_size=1, max_size=12
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestRunRecord:
    @given(
        exp=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=16),
        kind=st.sampled_from(RUN_KINDS),
        metrics=st.dictionaries(metric_names, finite, max_size=6),
        backend=st.none() | st.sampled_from(["sim", "threads", "processes"]),
        cores=st.none() | st.integers(min_value=1, max_value=256),
        seed=st.none() | st.integers(min_value=0, max_value=2**31),
        ts=finite,
        verdicts=st.dictionaries(
            st.sampled_from(["baseline", "slo", "chaos"]),
            st.sampled_from(["pass", "regression", "violation"]),
            max_size=3,
        ),
        deltas=st.dictionaries(metric_names, finite, max_size=4),
        tags=st.lists(st.text(alphabet="abc:_", min_size=1, max_size=8), max_size=3),
    )
    def test_json_round_trip(
        self, exp, kind, metrics, backend, cores, seed, ts, verdicts, deltas, tags
    ):
        # the hard acceptance property: the canonical JSON line the store
        # writes reconstructs an *equal* record, floats included
        original = RunRecord(
            exp_id=exp,
            kind=kind,
            metrics=metrics,
            backend=backend,
            cores=cores,
            seed=seed,
            timestamp=ts,
            verdicts=verdicts,
            deltas=deltas,
            tags=tuple(tags),
        )
        rebuilt = RunRecord.from_dict(json.loads(original.to_json()))
        assert rebuilt == original
        assert rebuilt.key == original.key

    def test_unknown_keys_rejected(self):
        doc = rec().to_dict()
        doc["extra_field"] = 1
        with pytest.raises(ValueError, match="unknown RunRecord keys.*extra_field"):
            RunRecord.from_dict(doc)

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ValueError, match="missing required keys"):
            RunRecord.from_dict({"exp_id": "e"})

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            rec(kind="nonsense")
        with pytest.raises(ValueError, match="exp_id"):
            RunRecord(exp_id="", kind="analyze", metrics={})
        with pytest.raises(ValueError, match="cores"):
            rec(cores=0)
        with pytest.raises(ValueError, match="schema"):
            rec(schema=SCHEMA_VERSION + 1)

    def test_metrics_sorted_and_coerced(self):
        r = rec(metrics={"b": 2, "a": True})
        assert list(r.metrics) == ["a", "b"]
        assert r.metrics["a"] == 1.0 and isinstance(r.metrics["a"], float)

    def test_regressed_property(self):
        assert not rec(verdicts={"baseline": "pass"}).regressed
        assert rec(verdicts={"baseline": "regression"}).regressed
        assert rec(verdicts={"slo": "violation"}).regressed


# -- injectable stamps -------------------------------------------------------

class TestStamp:
    def test_ambient_clock_wins(self):
        clock = ManualClock(42.0)
        with use_clock(clock, "deadbeef"):
            assert current_stamp() == (42.0, "deadbeef")
            clock.advance(8.0)
            assert current_stamp() == (50.0, "deadbeef")

    def test_scopes_nest_and_restore(self):
        with use_clock(ManualClock(1.0), "outer"):
            with use_clock(ManualClock(2.0), "inner"):
                assert current_stamp() == (2.0, "inner")
            assert current_stamp() == (1.0, "outer")

    def test_wall_fallback_outside_scope(self):
        ts, revision = current_stamp()
        assert ts > 1e9  # a real wall-clock epoch, not virtual time
        assert isinstance(revision, str) and revision

    def test_record_stamps_from_ambient(self, tmp_path):
        store = RunStore(tmp_path)
        with use_clock(ManualClock(7.0), "sim"):
            r = store.record("e", "analyze", {"m": 1.0})
        assert (r.timestamp, r.revision) == (7.0, "sim")


# -- the store ---------------------------------------------------------------

class TestRunStore:
    def test_append_reload(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec(ts=1.0))
        store.append(rec(exp="exp_b", ts=2.0))
        reloaded = RunStore(tmp_path)
        assert len(reloaded) == 2
        assert [r.exp_id for r in reloaded] == ["exp_a", "exp_b"]

    def test_duplicate_append_is_byte_identical(self, tmp_path):
        # the sim-mode double-ingest acceptance: appending an identical
        # record must not change a single byte on disk
        store = RunStore(tmp_path)
        r = rec()
        assert store.append(r)
        before = store.shard_path(r.exp_id).read_bytes()
        assert not store.append(r)
        assert store.shard_path(r.exp_id).read_bytes() == before
        assert len(store) == 1

    def test_sharding_is_stable_per_experiment(self, tmp_path):
        store = RunStore(tmp_path, shards=4)
        for i in range(5):
            store.append(rec(ts=float(i), seed=i))
        # one experiment -> one shard file, whatever the record count
        assert len(list(tmp_path.glob("shard-*.jsonl"))) == 1
        assert store.shard_path("exp_a") == RunStore(tmp_path, shards=4).shard_path("exp_a")

    def test_time_order_with_load_order_tiebreak(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec(ts=5.0, seed=1))
        store.append(rec(ts=1.0, seed=2))
        store.append(rec(ts=5.0, seed=3))
        assert [r.seed for r in store] == [2, 1, 3]

    def test_corrupt_and_foreign_lines_skipped(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec())
        path = store.shard_path("exp_a")
        alien = dict(rec(ts=9.0).to_dict(), schema=SCHEMA_VERSION + 1)
        path.write_text(path.read_text() + "not json\n" + json.dumps(alien) + "\n")
        reloaded = RunStore(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 2

    def test_compact_drops_junk_and_sorts(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec(ts=2.0, seed=1))
        store.append(rec(ts=1.0, seed=2))
        path = store.shard_path("exp_a")
        path.write_text(path.read_text() + "garbage\n")
        reopened = RunStore(tmp_path)
        removed = reopened.compact()
        assert removed == 1
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(ln)["seed"] for ln in lines] == [2, 1]  # time-ordered
        assert len(RunStore(tmp_path)) == 2

    def test_query_filters(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec(ts=1.0, kind="analyze", backend="sim"))
        store.append(rec(ts=2.0, kind="serve", backend="threads", tags=("hot",)))
        store.append(
            rec(ts=3.0, kind="compare", verdicts={"baseline": "regression"}, seed=7)
        )
        store.append(rec(exp="exp_b", ts=4.0))
        assert len(store.query(exp="exp_a")) == 3
        assert [r.kind for r in store.query(kind="serve")] == ["serve"]
        assert [r.backend for r in store.query(backend="threads")] == ["threads"]
        assert [r.tags for r in store.query(tag="hot")] == [("hot",)]
        assert [r.seed for r in store.query(verdict="regression")] == [7]
        assert [r.timestamp for r in store.query(since=3.0)] == [3.0, 4.0]
        assert [r.timestamp for r in store.query(limit=2)] == [3.0, 4.0]
        with pytest.raises(ValueError, match="limit"):
            store.query(limit=0)

    def test_experiments_sorted(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec(exp="zzz"))
        store.append(rec(exp="aaa"))
        assert store.experiments() == ["aaa", "zzz"]

    def test_add_stamps_unstamped_records(self, tmp_path):
        store = RunStore(tmp_path)
        bare = RunRecord(exp_id="e", kind="serve", metrics={"m": 1.0})
        with use_clock(ManualClock(3.0), "sim"):
            stamped = store.add(bare)
        assert (stamped.timestamp, stamped.revision) == (3.0, "sim")
        prestamped = rec(ts=99.0)
        assert store.add(prestamped) == prestamped

    def test_concurrent_appends_all_land(self, tmp_path):
        store = RunStore(tmp_path)

        def worker(i):
            for j in range(20):
                store.append(rec(exp=f"exp_{i}", ts=float(j), seed=j))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store) == 80
        assert len(RunStore(tmp_path)) == 80


# -- aggregation -------------------------------------------------------------

class TestAggregate:
    def test_reducers(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert reduce_values(xs, "min") == 1.0
        assert reduce_values(xs, "max") == 5.0
        assert reduce_values(xs, "mean") == 3.0
        assert reduce_values(xs, "p50") == 3.0
        assert reduce_values(xs, "p99") == 5.0
        with pytest.raises(ValueError, match="reducer"):
            reduce_values(xs, "median")
        with pytest.raises(ValueError, match="empty"):
            reduce_values([], "mean")

    def test_group_by_and_missing_metrics_skipped(self):
        records = [
            rec(kind="analyze", metrics={"m": 1.0}),
            rec(kind="analyze", metrics={"m": 3.0}, seed=1),
            rec(kind="serve", metrics={"m": 10.0}),
            rec(kind="serve", metrics={"other": 99.0}, seed=2),  # no "m": skipped
        ]
        rows = aggregate(records, "m", reduce="mean", group_by="kind")
        assert [(a.group, a.n, a.value) for a in rows] == [
            ("analyze", 2, 2.0),
            ("serve", 1, 10.0),
        ]
        with pytest.raises(ValueError, match="group_by"):
            aggregate(records, "m", group_by="seed")


# -- pinned baselines --------------------------------------------------------

#: The committed store: nothing but the pinned baselines CI gates against.
COMMITTED_RUNS = Path(__file__).resolve().parents[2] / "benchmarks" / "runs"

#: One pin per gated id: the three sim ablations, the three wall-clock
#: microbenches and the three serve runs.
COMMITTED_PINS = (
    "abl_amdahl", "abl_policy", "abl_sched",
    "pool_micro", "sim_micro", "trace_micro",
    "serve_bursty_sim", "serve_overload_sim", "serve_overload_sim_slo",
)


class TestBaseline:
    def test_none_before_any_pin(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.baseline("exp_a") is None
        store.append(rec())
        assert store.baseline("exp_a") is None

    def test_latest_pin_wins(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec(metrics={"m": 1.0}, ts=1.0, tags=(PINNED,)))
        store.append(rec(metrics={"m": 3.0}, ts=3.0, tags=(PINNED,)))
        store.append(rec(metrics={"m": 2.0}, ts=2.0, tags=(PINNED,)))
        store.append(rec(exp="exp_b", metrics={"m": 9.0}, ts=9.0, tags=(PINNED,)))
        assert store.baseline("exp_a").metrics == {"m": 3.0}

    def test_later_unpinned_run_never_counts(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec(metrics={"m": 1.0}, ts=1.0, tags=(PINNED,)))
        store.append(rec(metrics={"m": 2.0}, ts=2.0, tags=("regressed:m",)))
        assert store.baseline("exp_a").metrics == {"m": 1.0}

    def test_survives_reopen_and_compact(self, tmp_path):
        store = RunStore(tmp_path)
        store.append(rec(metrics={"m": 2.0}, ts=2.0, tags=(PINNED,)))
        store.append(rec(metrics={"m": 1.0}, ts=1.0, tags=(PINNED,)))
        store.append(rec(metrics={"m": 3.0}, ts=3.0))
        pin = store.baseline("exp_a")
        assert RunStore(tmp_path).baseline("exp_a") == pin
        reopened = RunStore(tmp_path)
        reopened.compact()
        assert reopened.baseline("exp_a") == pin
        assert RunStore(tmp_path).baseline("exp_a") == pin

    def test_committed_store_holds_exactly_the_pins(self):
        # auto-recorded runs stay out of git: every committed record is
        # a pin, one per gated id
        records = list(RunStore(COMMITTED_RUNS))
        assert RunStore(COMMITTED_RUNS).skipped_lines == 0
        assert sorted(r.exp_id for r in records) == sorted(COMMITTED_PINS)
        assert all(r.tags == (PINNED,) for r in records)


# -- fleet gauges ------------------------------------------------------------

class TestEmitMetrics:
    def test_gauges_reach_prometheus_text(self, tmp_path):
        from repro.obs import Metrics
        from repro.obs.live.export import prometheus_text

        store = RunStore(tmp_path)
        store.append(rec(ts=1.0, kind="analyze"))
        store.append(
            rec(ts=2.0, kind="compare", verdicts={"baseline": "regression"}, seed=1)
        )
        metrics = Metrics()
        emit_metrics(store, metrics)
        text = prometheus_text(metrics)
        assert "repro_store_runs 2" in text
        assert "repro_store_experiments 1" in text
        assert "repro_store_runs_compare 1" in text
        assert "repro_store_regressed_runs 1" in text
        assert "repro_store_latest_timestamp 2" in text
