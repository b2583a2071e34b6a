"""The create() factory and its declarative twin ExecutorConfig."""

import pytest

from repro.executor import (
    ExecutorConfig,
    InlineExecutor,
    SimExecutor,
    WorkStealingPool,
    create,
)
from repro.machine import PARC8, PARC64
from repro.obs import TraceRecorder, use


class TestCreateKinds:
    def test_inline(self):
        ex = create("inline")
        assert isinstance(ex, InlineExecutor)
        assert ex.cores == 1

    def test_threads_defaults(self):
        with create("threads") as pool:
            assert isinstance(pool, WorkStealingPool)
            assert pool.cores == 4

    def test_threads_cores_and_options(self):
        with create("threads", cores=2, compute_mode="sleep", name="t") as pool:
            assert pool.cores == 2
            assert pool.compute_mode == "sleep"
            assert pool.name == "t"

    def test_sim_default_machine_is_parc64(self):
        ex = create("sim")
        assert isinstance(ex, SimExecutor)
        assert ex.machine.name == PARC64.name
        assert ex.cores == 64

    def test_sim_cores_rescale_machine(self):
        ex = create("sim", cores=16)
        assert ex.cores == 16

    def test_sim_explicit_machine(self):
        ex = create("sim", machine=PARC8)
        assert ex.machine == PARC8

    def test_sim_machine_plus_cores_rescales(self):
        ex = create("sim", machine=PARC8, cores=2)
        assert ex.cores == 2

    def test_sim_policy_passthrough(self):
        assert create("sim", policy="affinity").policy == "affinity"

    def test_aliases(self):
        with create("pool", cores=1) as pool:
            assert isinstance(pool, WorkStealingPool)
        assert isinstance(create("simulated"), SimExecutor)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            create("gpu")

    def test_bad_cores(self):
        with pytest.raises(ValueError, match="cores"):
            create("threads", cores=0)

    def test_inline_rejects_cores(self):
        with pytest.raises(ValueError, match="single-core"):
            create("inline", cores=2)

    def test_inline_rejects_machine(self):
        with pytest.raises(ValueError, match="machine"):
            create("inline", machine=PARC8)

    def test_unknown_option_names_the_accepted_set(self):
        with pytest.raises(ValueError, match="compute_mode"):
            create("threads", cores=1, granularity=3)
        with pytest.raises(ValueError, match="policy"):
            create("sim", granularity=3)

    def test_validation_is_eager_on_config(self):
        with pytest.raises(ValueError):
            ExecutorConfig(kind="nope")


class TestConfig:
    def test_config_normalises_aliases(self):
        assert ExecutorConfig(kind="virtual").kind == "sim"

    def test_config_is_comparable_and_rebuildable(self):
        cfg = ExecutorConfig(kind="sim", cores=8)
        assert cfg == ExecutorConfig(kind="sim", cores=8)
        a, b = cfg.build(), cfg.build()
        assert a is not b
        assert a.machine == b.machine

    def test_threads_worker_count_from_machine(self):
        with ExecutorConfig(kind="threads", machine=PARC8).build() as pool:
            assert pool.cores == 8


class TestTraceInjection:
    def test_explicit_trace_reaches_every_backend(self):
        rec = TraceRecorder()
        assert create("inline", trace=rec).trace is rec
        assert create("sim", trace=rec).trace is rec
        with create("threads", cores=1, trace=rec) as pool:
            assert pool.trace is rec

    def test_ambient_trace_reaches_every_backend(self):
        rec = TraceRecorder()
        with use(rec):
            assert create("inline").trace is rec
            assert create("sim").trace is rec

    def test_backends_work_end_to_end(self):
        """The factory path runs the same program on all three backends."""
        results = {}
        for kind in ("inline", "threads", "sim"):
            ex = create(kind, cores=2) if kind != "inline" else create(kind)
            fs = [ex.submit(lambda i=i: i * i, cost=1.0) for i in range(8)]
            results[kind] = [f.result() for f in fs]
            if kind == "threads":
                ex.shutdown()
        assert results["inline"] == results["threads"] == results["sim"]
