"""The backend table: the four backends, their aliases and capabilities,
the unknown-kind error, and the ambient backend override."""

from __future__ import annotations

import pytest

from repro.executor import (
    ExecutorConfig,
    InlineExecutor,
    available,
    backend_override,
    create,
    get_backend,
)
from repro.executor.factory import _apply_override


class TestBuiltins:
    def test_builtins_registered(self):
        assert available() == ("inline", "threads", "sim", "processes")

    def test_builtin_aliases(self):
        assert {name: get_backend(name).aliases for name in available()} == {
            "inline": (),
            "threads": ("pool", "thread"),
            "sim": ("simulated", "virtual"),
            "processes": ("mp", "process"),
        }

    def test_capability_declarations(self):
        assert get_backend("sim").capabilities.virtual_time
        procs = get_backend("processes").capabilities
        assert procs.out_of_process and not procs.barriers and not procs.virtual_time
        assert get_backend("inline").single_core

    def test_get_backend_resolves_aliases(self):
        assert get_backend("thread").name == "threads"
        assert get_backend("virtual").name == "sim"


class TestUnknownKindError:
    def test_error_lists_backends_and_aliases(self):
        with pytest.raises(ValueError) as err:
            create("gpu")
        assert str(err.value) == (
            "unknown executor kind 'gpu'; registered backends: inline, "
            "processes (aliases: mp, process), sim (aliases: simulated, virtual), "
            "threads (aliases: pool, thread)"
        )


class TestBackendOverride:
    def test_redirects_redirectable_kinds(self):
        with backend_override(kind="inline"):
            ex = create("threads", cores=3)
        assert isinstance(ex, InlineExecutor)

    def test_cores_override(self):
        with backend_override(cores=2):
            ex = create("threads", cores=6)
        try:
            assert ex.cores == 2
        finally:
            ex.shutdown()

    def test_sim_call_sites_untouched(self):
        from repro.executor import SimExecutor

        with backend_override(kind="inline"):
            ex = create("sim", cores=4)
        assert isinstance(ex, SimExecutor)

    def test_drops_options_target_does_not_accept(self):
        # threads-specific compute_mode must not blow up the inline target
        with backend_override(kind="inline"):
            ex = create("threads", cores=2, compute_mode="sleep")
        assert isinstance(ex, InlineExecutor)

    def test_override_cannot_target_virtual_time(self):
        with pytest.raises(ValueError, match="virtual-time"):
            with backend_override(kind="sim"):
                pass

    def test_override_restored_after_block(self):
        from repro.executor import WorkStealingPool

        with backend_override(kind="inline"):
            pass
        ex = create("threads", cores=2)
        try:
            assert isinstance(ex, WorkStealingPool)
        finally:
            ex.shutdown()

    def test_override_is_config_validated(self):
        cfg = ExecutorConfig(kind="threads", cores=2, options={"compute_mode": "sleep"})
        with backend_override(kind="mp"):
            redirected = _apply_override(cfg)  # a config, not a pool: nothing spawns
        assert redirected.kind == "processes"
        assert redirected.cores == 2
        assert redirected.options == {}
