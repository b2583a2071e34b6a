"""Tests for the ``python -m repro`` command-line front end."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.store import PINNED, RunRecord, RunStore

#: The committed run-history store: the pinned baselines CI gates against.
COMMITTED_RUNS = Path(__file__).resolve().parents[1] / "benchmarks" / "runs"


def pin_halved_makespan(store) -> None:
    """Append a re-stamped copy of the ``abl_sched`` pin with
    ``primary.makespan`` halved, so the next run reads "2x slower"."""
    pin = RunStore(store).baseline("abl_sched")
    metrics = {**pin.metrics, "primary.makespan": pin.metrics["primary.makespan"] / 2}
    RunStore(store).append(replace(pin, metrics=metrics, timestamp=pin.timestamp + 1.0))


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig1", "fig2", "proj1", "proj10", "sem", "tab_likert"):
            assert exp_id in out


class TestRun:
    def test_run_one(self, capsys):
        assert main(["run", "tab_assess"]) == 0
        out = capsys.readouterr().out
        assert "assessment scheme" in out
        assert "TOTAL" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_with_output_dir(self, tmp_path, capsys):
        assert main(["run", "fig2", "-o", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.txt").exists()
        assert "week 12" in (tmp_path / "fig2.txt").read_text()


class TestAnalyze:
    def test_prints_analysis_and_writes_html(self, tmp_path, capsys):
        assert main(["analyze", "abl_sched", "-o", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "trace analysis:" in captured.out
        assert "parallelism" in captured.out
        assert "scheduler:" in captured.out
        assert "work/span per group" in captured.out
        html = (tmp_path / "analysis_abl_sched.html").read_text()
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html
        assert (tmp_path / "trace_abl_sched.json").stat().st_size > 0

    def test_max_events_cap_warns(self, tmp_path, capsys):
        assert main(["analyze", "abl_sched", "-o", str(tmp_path), "--max-events", "10"]) == 0
        assert "events dropped" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path, capsys):
        assert main(["analyze", "nope", "-o", str(tmp_path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestCompare:
    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(["compare", "abl_sched", "--store", store]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_roundtrip_then_injected_regression(self, tmp_path, capsys):
        """The CI gate end-to-end: a run compared against its own pin
        passes; a later pin with half the makespan flags a regression
        and exits non-zero."""
        store = tmp_path / "runs"
        assert main(["compare", "abl_sched", "--update-baseline", "--store", str(store)]) == 0
        assert "baseline pinned" in capsys.readouterr().err
        assert main(["compare", "abl_sched", "--store", str(store)]) == 0
        assert "no regressions" in capsys.readouterr().out

        pin_halved_makespan(store)
        assert main(["compare", "abl_sched", "--store", str(store)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "primary.makespan" in out

    def test_nothing_gated_exits_1(self, tmp_path, capsys):
        # a pin sharing no metric name with the run (a rename, or a pin
        # made by another command) must not pass the gate
        store = RunStore(tmp_path / "runs")
        store.append(
            RunRecord(
                exp_id="pool_micro", kind="compare", metrics={"primary.makespan": 1.0},
                timestamp=1.0, revision="test", tags=(PINNED,),
            )
        )
        assert main(["compare", "pool_micro", "--store", str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "0 metric(s)" in out
        assert "result: nothing gated" in out


class TestChaos:
    def test_proj10_under_faults_passes_gate(self, capsys):
        assert main(["chaos", "proj10", "--expect", "retry,fault"]) == 0
        captured = capsys.readouterr()
        assert "resilience:" in captured.out
        assert "chaos gate passed" in captured.err
        assert "chaos plan: seed=0" in captured.err

    def test_gate_fails_on_absent_kind(self, capsys):
        # proj10 retries through every fault; nothing is ever drained
        assert main(["chaos", "proj10", "--expect", "drain"]) == 1
        assert "chaos gate FAILED: no drain events" in capsys.readouterr().err

    def test_unknown_experiment(self, capsys):
        assert main(["chaos", "nope"]) == 2

    def test_unknown_expect_kind(self, capsys):
        assert main(["chaos", "proj10", "--expect", "explode"]) == 2
        assert "unknown lifecycle kind" in capsys.readouterr().err


class TestFlame:
    def test_writes_flamegraph_and_collapsed_stacks(self, tmp_path, capsys):
        assert main(
            ["flame", "abl_sched", "-o", str(tmp_path), "--interval", "0.002"]
        ) == 0
        captured = capsys.readouterr()
        assert "profile:" in captured.out
        assert "samples" in captured.out
        assert "flamegraph ->" in captured.err
        assert "sampler:" in captured.err
        html = (tmp_path / "flame_abl_sched.html").read_text()
        assert html.startswith("<!DOCTYPE html>") and "<svg" in html
        collapsed = (tmp_path / "flame_abl_sched.collapsed.txt").read_text()
        for line in collapsed.splitlines():
            frames, count = line.rsplit(" ", 1)
            assert int(count) >= 1 and frames

    def test_scrape_out_saves_valid_exposition(self, tmp_path, capsys):
        scrape = tmp_path / "metrics.txt"
        assert main(
            ["flame", "abl_sched", "-o", str(tmp_path), "--interval", "0.002",
             "--scrape-out", str(scrape)]
        ) == 0
        err = capsys.readouterr().err
        assert "serving live metrics at http://127.0.0.1:" in err
        assert "/metrics scrape ->" in err
        body = scrape.read_text()
        assert "# TYPE repro_live_workers gauge" in body
        assert "repro_live_sampler_passes" in body

    def test_unknown_experiment(self, capsys):
        assert main(["flame", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestWebdemo:
    def test_generates_site(self, tmp_path, capsys):
        assert main(["webdemo", str(tmp_path / "site")]) == 0
        assert (tmp_path / "site" / "index.html").exists()


class TestTopics:
    def test_prints_ten_topics(self, capsys):
        assert main(["topics"]) == 0
        out = capsys.readouterr().out
        assert "Parallel quicksort" in out
        assert "repro.apps.webfetch" in out
        assert out.count("implemented in") == 10


class TestArgparse:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["flame", "abl_sched", "--repeat", "0"], "--repeat must be >= 1, got 0"),
            (["flame", "abl_sched", "--interval", "0"], "interval must be > 0"),
            (["serve", "steady", "--requests", "0"], "requests must be >= 1"),
            (["serve", "steady", "--cores", "0"], "cores must be >= 1"),
            (["serve", "steady", "--backend", "threads", "--cores", "0"], "cores must be >= 1"),
            (["serve", "steady", "--rate", "0"], "base_rate must be > 0"),
            (["serve", "steady", "--slo", "--slo-window", "0"], "window must be > 0"),
            (["analyze", "abl_sched", "--max-events", "0"], "max_events must be >= 1"),
            (["analyze", "abl_sched", "--backend", "processes", "--cores", "0"], "cores must be >= 1"),
            (["chaos", "proj10", "--failure-rate", "1.5"], "failure_rate must be in [0, 1]"),
            (
                ["compare", "abl_sched", "--threshold", "-1", "--no-record"],
                "threshold must be non-negative",
            ),
            (
                ["serve", "overload", "--requests", "2000", "--compare", "--threshold", "-1"],
                "threshold must be non-negative",
            ),
            (["runs", "timeline", "serve_steady_sim", "--threshold", "0"], "threshold must be positive"),
            (["runs", "timeline", "serve_steady_sim", "--limit", "0"], "limit must be >= 1"),
        ],
        ids=[
            "flame-repeat", "flame-interval", "serve-requests", "serve-cores-sim",
            "serve-cores-threads", "serve-rate", "serve-slo-window", "analyze-max-events",
            "analyze-cores", "chaos-failure-rate", "compare-threshold", "serve-threshold",
            "timeline-threshold", "timeline-limit",
        ],
    )
    def test_out_of_range_value_exits_2(self, argv, message, capsys):
        """A value the library rejects is a usage error (2), caught before
        the run starts: never a traceback, never serve's regression code 1."""
        assert main(argv) == 2
        assert message in capsys.readouterr().err


class TestServe:
    def test_sim_run_prints_report(self, capsys):
        assert main(["serve", "steady", "--backend", "sim", "--requests", "800"]) == 0
        out = capsys.readouterr().out
        assert "throughput_rps" in out and "cache_hit_rate" in out

    def test_deterministic_output(self, capsys):
        args = ["serve", "bursty", "--backend", "sim", "--requests", "800"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_compare_without_baseline_exits_2(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(
            ["serve", "steady", "--requests", "500", "--compare", "--store", store]
        ) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_baseline_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(
            ["serve", "overload", "--requests", "2000", "--update-baseline", "--store", store]
        ) == 0
        capsys.readouterr()
        assert main(
            ["serve", "overload", "--requests", "2000", "--compare", "--store", store]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_shorter_repin_becomes_the_baseline(self, tmp_path, capsys):
        # pins carry the wall clock even on sim: a virtual stamp is the
        # run's length, and would let the older 4000-request pin win
        store = str(tmp_path / "runs")
        for n in ("4000", "2000"):
            assert main(
                ["serve", "overload", "--requests", n, "--update-baseline", "--store", store]
            ) == 0
        assert RunStore(store).baseline("serve_overload_sim").metrics["serve.completed"] == 2000
        capsys.readouterr()
        assert main(
            ["serve", "overload", "--requests", "2000", "--compare", "--store", store]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_pin_ignores_no_record(self, tmp_path, capsys):
        store = tmp_path / "runs"
        assert main(
            ["serve", "steady", "--requests", "500", "--update-baseline", "--no-record",
             "--store", str(store)]
        ) == 0
        (pin,) = list(RunStore(store))
        assert pin.tags == (PINNED,)
        assert pin.revision != "sim"  # wall-clock stamped

    def test_pin_write_error_raises_record_error_warns(self, tmp_path, capsys):
        not_a_dir = tmp_path / "runs"
        not_a_dir.write_text("")
        args = ["serve", "steady", "--requests", "500", "--store", str(not_a_dir)]
        assert main(args) == 0
        assert "warning: run-history record failed" in capsys.readouterr().err
        with pytest.raises(OSError):
            main(args + ["--update-baseline"])

    def test_scrape_out_exposes_serve_metrics(self, tmp_path, capsys):
        scrape = tmp_path / "metrics.prom"
        assert main(
            ["serve", "steady", "--requests", "500", "--scrape-out", str(scrape)]
        ) == 0
        text = scrape.read_text()
        assert "repro_serve_submitted" in text
        assert "repro_serve_queue_depth" in text

    def test_slo_flag_prints_decomposition_and_verdict(self, capsys):
        assert main(["serve", "steady", "--requests", "800", "--slo"]) == 0
        out = capsys.readouterr().out
        assert "latency decomposition" in out
        assert "SLO verdict" in out
        assert "dominant stage:" in out

    def test_slo_violation_exits_3_deterministically(self, capsys):
        args = ["serve", "overload", "--requests", "20000", "--slo"]
        assert main(args) == 3
        first = capsys.readouterr().out
        assert main(args) == 3
        assert capsys.readouterr().out == first  # byte-identical under sim

    def test_custom_objectives_gate(self, capsys):
        ok = ["serve", "steady", "--requests", "800", "--objectives", "p99<=10"]
        assert main(ok) == 0
        capsys.readouterr()
        bad = ["serve", "steady", "--requests", "800", "--objectives", "p99<=0"]
        assert main(bad) == 3
        assert "SLO gate FAILED" in capsys.readouterr().err

    def test_bad_objective_exits_2(self, capsys):
        assert main(
            ["serve", "steady", "--requests", "100", "--objectives", "nope<=1"]
        ) == 2
        assert "metric must be one of" in capsys.readouterr().err

    def test_waterfall_writes_selfcontained_html(self, tmp_path, capsys):
        wf = tmp_path / "wf.html"
        assert main(
            ["serve", "steady", "--requests", "800", "--waterfall", str(wf)]
        ) == 0
        text = wf.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text and "Latency decomposition" in text
        assert "<script" not in text  # self-contained: no JavaScript

    def test_slo_scrape_exports_burn_rate_counters(self, tmp_path, capsys):
        scrape = tmp_path / "metrics.prom"
        assert main(
            ["serve", "steady", "--requests", "500", "--slo",
             "--scrape-out", str(scrape)]
        ) == 0
        text = scrape.read_text()
        assert "repro_slo_burn_rate" in text
        assert "repro_slo_ok" in text

    def test_traced_compare_uses_its_own_baseline_id(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(
            ["serve", "steady", "--requests", "800", "--slo",
             "--update-baseline", "--store", store]
        ) == 0
        capsys.readouterr()
        assert [r.exp_id for r in RunStore(store).query(tag=PINNED)] == ["serve_steady_sim_slo"]
        assert main(
            ["serve", "steady", "--requests", "800", "--slo",
             "--compare", "--store", store]
        ) == 0
        assert "no regressions" in capsys.readouterr().out


class TestSloCommand:
    """The SLO gate as a command, ``serve <pattern> --slo``: the verdict
    on stdout, the gate's one-line outcome on stderr, exit 3 on a breach."""

    def test_verdict_only_run_passes_on_steady(self, capsys):
        assert main(["serve", "steady", "--requests", "800", "--slo"]) == 0
        out = capsys.readouterr()
        assert "SLO verdict" in out.out
        assert "SLO gate passed" in out.err

    def test_violation_exits_3(self, capsys):
        assert main(["serve", "overload", "--requests", "20000", "--slo"]) == 3
        assert "SLO gate FAILED" in capsys.readouterr().err

    def test_deterministic_output(self, capsys):
        # bursty at this size breaches shed_rate: same verdict, same bytes
        args = ["serve", "bursty", "--requests", "800", "--slo"]
        assert main(args) == 3
        first = capsys.readouterr().out
        assert main(args) == 3
        assert capsys.readouterr().out == first


class TestRuns:
    def seeded_store(self, tmp_path):
        """A store holding the acceptance trajectory: two healthy serve
        runs and one deliberately-regressed one."""
        store = RunStore(tmp_path / "runs")
        for ts, rps in ((1.0, 1990.0), (2.0, 1975.0)):
            store.append(
                RunRecord(
                    exp_id="serve_overload_sim",
                    kind="serve",
                    metrics={"serve.throughput_rps": rps},
                    backend="sim",
                    timestamp=ts,
                    revision="sim",
                )
            )
        store.append(
            RunRecord(
                exp_id="serve_overload_sim",
                kind="serve",
                metrics={"serve.throughput_rps": 410.0},
                backend="sim",
                timestamp=3.0,
                revision="sim",
                tags=("regressed:deliberate",),
            )
        )
        return str(tmp_path / "runs")

    def test_list_shows_committed_history(self, capsys):
        assert main(["runs", "list", "--store", str(COMMITTED_RUNS)]) == 0
        out = capsys.readouterr().out
        for exp_id in ("abl_sched", "pool_micro", "sim_micro", "trace_micro",
                       "serve_overload_sim"):
            assert exp_id in out
        assert "9 record(s)" in out

    def test_timeline_flags_regressed_run_and_writes_html(self, tmp_path, capsys):
        # the acceptance scenario: two healthy runs plus one
        # deliberately-regressed run -> change-point flagged, exit code
        # != 0, self-contained HTML out
        store = self.seeded_store(tmp_path)
        html_path = tmp_path / "timeline.html"
        rc = main(
            ["runs", "timeline", "serve_overload_sim",
             "--store", store, "-o", str(html_path)]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert "change-point: serve.throughput_rps at run 2" in captured.out
        assert "change-point(s) detected" in captured.err
        html = html_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "<script" not in html

    def test_timeline_without_history_exits_2(self, tmp_path, capsys):
        rc = main(
            ["runs", "timeline", "serve_overload_sim", "--store", str(tmp_path / "empty")]
        )
        assert rc == 2
        assert "no stored runs" in capsys.readouterr().err

    def test_query_filters_and_aggregates(self, tmp_path, capsys):
        store = self.seeded_store(tmp_path)
        assert main(
            ["runs", "query", "serve_overload_sim", "--store", store, "--kind", "serve"]
        ) == 0
        out = capsys.readouterr().out
        assert "3 record(s)" in out
        assert main(
            ["runs", "query", "--store", store, "--tag", "regressed:deliberate"]
        ) == 0
        assert "1 record(s)" in capsys.readouterr().out
        assert main(
            ["runs", "query", "--store", store,
             "--metric", "serve.throughput_rps", "--reduce", "min", "--group-by", "exp"]
        ) == 0
        out = capsys.readouterr().out
        assert "serve_overload_sim" in out and "410" in out

    def test_list_scrape_exports_store_gauges(self, tmp_path, capsys):
        store = self.seeded_store(tmp_path)
        scrape = tmp_path / "scrape.txt"
        assert main(
            ["runs", "list", "--store", store, "--scrape-out", str(scrape)]
        ) == 0
        text = scrape.read_text()
        assert "# TYPE repro_store_runs gauge" in text
        assert "repro_store_runs 3" in text
        assert "repro_store_runs_serve 3" in text

    def test_compact_reports_removed_lines(self, tmp_path, capsys):
        store = self.seeded_store(tmp_path)
        assert main(["runs", "compact", "--store", store]) == 0
        assert "0 line(s) removed" in capsys.readouterr().err


class TestAutoRecord:
    def test_serve_records_and_double_ingest_is_byte_identical(self, tmp_path, capsys):
        store = tmp_path / "runs"
        args = ["serve", "bursty", "--requests", "2000", "--store", str(store)]
        assert main(args) == 0
        assert "run recorded" in capsys.readouterr().err
        shards = {p.name: p.read_bytes() for p in Path(store).glob("*.jsonl")}
        assert shards
        # the same deterministic sim run again: stamped from the injected
        # clock, so the record dedups and the store stays byte-identical
        assert main(args) == 0
        capsys.readouterr()
        assert {p.name: p.read_bytes() for p in Path(store).glob("*.jsonl")} == shards

    def test_serve_record_carries_identity(self, tmp_path, capsys):
        store = tmp_path / "runs"
        assert main(
            ["serve", "steady", "--requests", "1000", "--seed", "7",
             "--store", str(store)]
        ) == 0
        capsys.readouterr()
        (rec,) = list(RunStore(store))
        assert rec.exp_id == "serve_steady_sim"
        assert rec.kind == "serve"
        assert (rec.backend, rec.cores, rec.seed) == ("sim", 4, 7)
        assert rec.revision == "sim"
        assert rec.metrics["serve.completed"] > 0

    def test_no_record_writes_nothing(self, tmp_path, capsys):
        store = tmp_path / "runs"
        assert main(
            ["serve", "steady", "--requests", "1000",
             "--store", str(store), "--no-record"]
        ) == 0
        assert "run recorded" not in capsys.readouterr().err
        assert not store.exists()

    def test_analyze_records_analysis_metrics(self, tmp_path, capsys):
        store = tmp_path / "runs"
        assert main(
            ["analyze", "abl_sched", "-o", str(tmp_path), "--store", str(store)]
        ) == 0
        capsys.readouterr()
        (rec,) = list(RunStore(store))
        assert rec.kind == "analyze"
        assert rec.exp_id == "abl_sched"
        assert "primary.makespan" in rec.metrics

    def test_compare_records_verdict_and_deltas(self, tmp_path, capsys):
        store = tmp_path / "runs"
        assert main(["compare", "abl_sched", "--update-baseline", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["compare", "abl_sched", "--store", str(store)]) == 0
        capsys.readouterr()
        # pin half the makespan: the re-run now "regresses", and the
        # verdict + per-metric deltas land in the store
        pin_halved_makespan(store)
        assert main(["compare", "abl_sched", "--store", str(store)]) == 1
        capsys.readouterr()
        records = [r for r in RunStore(store).query(kind="compare") if PINNED not in r.tags]
        assert [r.verdicts["baseline"] for r in records] == ["pass", "regression"]
        bad = records[-1]
        assert bad.regressed
        assert bad.deltas["primary.makespan"] == pytest.approx(1.0)
        assert "regressed:primary.makespan" in bad.tags

    def test_chaos_records_gate_verdict(self, tmp_path, capsys):
        store = tmp_path / "runs"
        assert main(
            ["chaos", "proj10", "--expect", "retry,fault", "--store", str(store)]
        ) == 0
        capsys.readouterr()
        (rec,) = list(RunStore(store))
        assert rec.kind == "chaos"
        assert rec.verdicts == {"chaos": "pass"}
        assert rec.seed == 0
