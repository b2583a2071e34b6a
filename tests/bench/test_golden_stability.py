"""Golden-report stability: tracing must be a pure observer.

The hot-path work in the executor, sim kernel and tracer is only safe if
it never perturbs the deterministic artefacts the repo commits.  These
tests pin that down for one representative sim ablation: the rendered
terminal report must match the committed golden byte-for-byte whether or
not an ambient trace recorder is installed, and the analysis metrics the
baseline gate consumes must match the committed pin exactly (the sim
runs in virtual time, so they are reproducible to the last digit, not
approximately).  Every other deterministic artefact is byte-compared
with its golden untraced.
"""

from pathlib import Path

import pytest

import repro.bench as bench
from repro.obs import RunStore, TraceRecorder, use

REPORTS = Path(__file__).resolve().parents[2] / "benchmarks" / "reports"
RUNS = Path(__file__).resolve().parents[2] / "benchmarks" / "runs"


#: Artefacts regenerated deterministically: the wall-clock ones
#: (``perf=True`` and ``real_speedup``) measure the host they run on.
DETERMINISTIC = [e.exp_id for e in bench.all_experiments() if not e.perf and e.exp_id != "real_speedup"]
#: Goldens no run reproduces, with the reason.
KNOWN_MISMATCHES = {
    "proj5": "its report prints a Python set, whose order follows the string hash; "
    "no hash seed tried reproduces the golden",
}


def _golden_text(exp_id: str) -> str:
    return (REPORTS / f"{exp_id}.txt").read_text()


@pytest.mark.parametrize(
    "exp_id",
    [
        pytest.param(exp_id, marks=pytest.mark.xfail(strict=True, reason=KNOWN_MISMATCHES[exp_id]))
        if exp_id in KNOWN_MISMATCHES
        else exp_id
        for exp_id in DETERMINISTIC
    ],
)
def test_every_deterministic_report_matches_its_golden(exp_id):
    assert bench.get_experiment(exp_id)().render() + "\n" == _golden_text(exp_id)


class TestTracedVsUntracedGoldens:
    def test_untraced_report_matches_committed_golden(self):
        exp = bench.get_experiment("abl_sched")
        result = exp()
        assert result.render() + "\n" == _golden_text("abl_sched")

    def test_traced_report_matches_committed_golden(self):
        exp = bench.get_experiment("abl_sched")
        recorder = TraceRecorder()
        with use(recorder):
            result = exp()
        assert result.render() + "\n" == _golden_text("abl_sched")
        # the recorder actually observed the run — it was not a no-op
        assert recorder.events()

    def test_traced_analysis_metrics_match_committed_baseline(self):
        committed = RunStore(RUNS).baseline("abl_sched").metrics
        exp = bench.get_experiment("abl_sched")
        with use(TraceRecorder()):
            result = exp()
        assert result.analysis is not None
        current = result.analysis.baseline_metrics()
        # virtual-time run: every gated metric reproduces exactly.  The
        # analysis may export metrics newer than the stored baseline
        # (the gate only compares stored keys), so subset — not equality.
        assert committed.items() <= current.items()
