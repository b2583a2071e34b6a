"""Tests of the benchmark's own code.

Run with ``python -m pytest perfbench/tests`` from the repository root;
the smoke runs take about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import kernels, paper, run as bench, serving
from perfbench.harness import Outcome, Spans
from repro.apps.images import scale_pixels
from repro.serve.loadgen import KINDS

ROOT = Path(__file__).resolve().parents[2]


def invoke(workload: str, trace: int, seconds: float, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )  # fmt: skip


def result_of(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_smoke_untraced(workload):
    lines, result = result_of(invoke(workload, 0, 0.5))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(bench.END_TO_END)
    assert all(m["value"] > 0 and m["unit"] == bench.END_TO_END[k] for k, m in result["metrics"].items())
    assert result["attempted"] >= 1
    fp = json.loads(next(line for line in lines if line.startswith("fingerprint: ")).split(": ", 1)[1])
    assert {"nproc", "cpu_model", "python", "numpy", "platform", "hash_seed", "seed"} <= set(fp)
    assert fp["hash_seed"] == "0" and fp["seed"] == 7
    if workload == "paper_sim":
        # the known defect is counted, named, and does not flip the verdict
        assert result["failed"] == 1 and result["correct"]
        assert any(line.startswith("failed: proj5") for line in lines)
    else:
        assert result["failed"] == 0 and result["correct"]


def test_smoke_traced_kernels():
    lines, result = result_of(invoke("kernels_processes", 1, 0.5))
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["kernels.matmul_ms"] > 0 and metrics["shm.exported_mb"] > 0
    assert result["correct"] and result["failed"] == 0


def test_no_program_means_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = invoke("serve_mixed_threads", 0, 0.5, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_segments_tile_each_latency(monkeypatch):
    monkeypatch.setattr(serving, "WARMUP_S", 0.2)
    session = serving.setup({"backend": "threads"}, traced=True)
    try:
        run = serving.drive(session, seed=3, seconds=0.6, rate=1000.0, keyspace=512)
    finally:
        session.close()
    out = Outcome()
    latencies = serving.check(run, out)
    tiled = 0
    for i, lat in enumerate(latencies):
        split = serving.segments(run, latencies, session.trace, i)
        if split is None:
            continue
        _stamps, parts = split
        assert len(parts) == len(serving.SEGMENTS)
        assert sum(parts) == lat and min(parts) >= 0
        tiled += 1
    assert tiled > 100
    serving.per_layer(run, latencies, session.trace, out)
    assert out.correct and not out.broken


def _serve_run(values, statuses):
    n = len(values)
    return serving.Run(
        kinds=["panel"] * n, keys=list(range(n)), due=[0] * n, call=[1] * n, ret=[2] * n,
        rid=list(range(n)), value=values, status=statuses, resolved={i: 9 for i in range(n)},
        timed_from=0, seconds=1.0, stats={}, worker_rss=0.0,
    )  # fmt: skip


def test_corrupted_serve_response_is_counted_failed():
    good = [KINDS["panel"][0](k) for k in range(3)]
    run = _serve_run([good[0], good[1] + 1, None], [serving.HIT, serving.RAN, serving.FAILED])
    out = Outcome()
    latencies = serving.check(run, out)
    assert latencies == [2, None, None]
    assert out.attempted == 3 and out.failed == 2 and not out.correct


def test_corrupted_kernel_output_is_counted_failed():
    inputs = kernels.make_inputs(1, 0)
    a, b, values, images = inputs
    thumbs = [scale_pixels(img, f"img{i}", kernels.THUMB_SIDE) for i, img in enumerate(images)]
    product = a @ b
    out = Outcome()
    kernels.check(1, 0, inputs, (product, np.sort(values), thumbs), out, "t")
    assert out.attempted == 3 and out.failed == 0 and out.correct
    product[5, 7] += 1.0
    kernels.check(1, 0, inputs, (product, np.sort(values)[::-1], thumbs), out, "t")
    assert set(out.failures) == {"t round 0 matmul", "t round 0 sort"} and not out.correct


class _BrokenPool:
    cores = 2

    def submit(self, *args, **kwargs):
        raise RuntimeError("worker died")

    def compute(self, cost):
        pass


def test_kernel_round_that_raises_is_counted_failed():
    out = Outcome()
    timed = kernels._rounds(_BrokenPool(), 1, 1, out, "t")
    rounds = kernels.WARMUP_ROUNDS + 1
    assert timed == {} and out.attempted == 3 * rounds and out.failed == 3 * rounds and not out.correct


class _Exp:
    perf = False

    def __init__(self, exp_id, text=None):
        self.exp_id, self.text = exp_id, text

    def __call__(self):
        if self.text is None:
            raise RuntimeError("boom")
        return type("R", (), {"render": lambda _self: self.text})()


def test_corrupted_report_is_counted_failed():
    golden = (paper.GOLDEN / "proj6.txt").read_text()
    out = Outcome()
    paper.regenerate([_Exp("proj6", golden[:-1])], out, "")
    assert out.failed == 0, "a report equal to its golden passes"
    out = Outcome()
    paper.regenerate([_Exp("proj6", golden[:-1] + "x"), _Exp("fig1")], out, "")
    assert set(out.failures) == {"proj6", "fig1"} and not out.correct
    out = Outcome()
    paper.regenerate([_Exp("proj5", "not the golden")], out, "")
    assert out.failed == 1 and out.correct, "a listed known defect counts but keeps the verdict"


def test_self_time_subtracts_the_union_of_children():
    spans = Spans()
    spans.add("parent", 0, 100, None, 1)
    spans.add("a", 10, 40, "parent", 1)
    spans.add("b", 30, 60, "parent", 1)  # overlaps a
    spans.add("c", 90, 120, "parent", 1)  # runs past the parent
    spans.add("a", 0, 5, "parent", 2)  # another request: not a child
    assert spans.self_times()["parent"] == [100 - 50 - 10]
