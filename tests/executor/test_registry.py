"""The open backend registry: registration, aliases, capabilities, KINDS."""

from __future__ import annotations

import pytest

from repro.executor import (
    KINDS,
    ExecutorConfig,
    InlineExecutor,
    available,
    backend_aliases,
    backend_override,
    create,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.executor.registry import BackendCapabilities


def _build_fake(cfg):
    ex = InlineExecutor(trace=cfg.trace, faults=cfg.faults)
    ex.config_seen = cfg  # lets tests assert what the builder received
    return ex


@pytest.fixture
def fake_backend():
    backend = register_backend(
        "fakeback",
        _build_fake,
        capabilities=BackendCapabilities(real_parallel=True, barriers=False),
        options=("colour",),
        aliases=("fb", "fakey"),
        summary="test double",
    )
    yield backend
    unregister_backend("fakeback")


class TestBuiltins:
    def test_builtins_registered(self):
        assert set(available()) >= {"inline", "threads", "sim", "processes"}

    def test_builtin_aliases(self):
        aliases = backend_aliases()
        assert aliases["pool"] == "threads"
        assert aliases["simulated"] == "sim"
        assert aliases["mp"] == "processes"

    def test_capability_declarations(self):
        assert get_backend("sim").capabilities.virtual_time
        assert not get_backend("sim").capabilities.real_parallel
        procs = get_backend("processes").capabilities
        assert procs.real_parallel and procs.out_of_process and not procs.barriers
        assert get_backend("inline").single_core

    def test_get_backend_resolves_aliases(self):
        assert get_backend("thread").name == "threads"
        assert get_backend("virtual").name == "sim"


class TestRegistration:
    def test_registered_backend_is_creatable(self, fake_backend):
        ex = create("fakeback", colour="red")
        assert ex.config_seen.kind == "fakeback"
        assert ex.config_seen.options == {"colour": "red"}
        assert ex.submit(lambda: 41).result() == 41

    def test_aliases_create_too(self, fake_backend):
        assert create("fb").config_seen.kind == "fakeback"
        assert create("fakey").config_seen.kind == "fakeback"

    def test_kinds_view_is_live(self, fake_backend):
        assert "fakeback" in KINDS
        assert KINDS == tuple(available())
        assert len(KINDS) == len(available())
        assert KINDS[-1] == "fakeback"  # registration order

    def test_unregister_removes_kind_and_aliases(self, fake_backend):
        unregister_backend("fakeback")
        try:
            with pytest.raises(ValueError, match="unknown executor kind 'fakeback'"):
                create("fakeback")
            with pytest.raises(ValueError, match="unknown executor kind 'fb'"):
                create("fb")
        finally:  # leave the fixture something to tear down
            register_backend("fakeback", _build_fake, aliases=("fb", "fakey"))

    def test_duplicate_name_rejected(self, fake_backend):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("fakeback", _build_fake)

    def test_alias_collision_rejected(self, fake_backend):
        with pytest.raises(ValueError, match="collides"):
            register_backend("otherback", _build_fake, aliases=("fb",))
        assert "otherback" not in available()

    def test_alias_shadowing_backend_name_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            register_backend("shadower", _build_fake, aliases=("inline",))

    def test_replace_swaps_registration(self, fake_backend):
        register_backend("fakeback", _build_fake, aliases=("fb2",), replace=True)
        aliases = backend_aliases()
        assert aliases.get("fb2") == "fakeback"
        assert "fb" not in aliases  # old aliases dropped on replace
        register_backend(
            "fakeback", _build_fake, aliases=("fb", "fakey"), replace=True
        )  # restore for teardown

    def test_name_must_be_identifier(self):
        with pytest.raises(ValueError, match="identifier"):
            register_backend("no good", _build_fake)

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError, match="not registered"):
            unregister_backend("neverwas")


class TestUnknownKindError:
    def test_error_lists_backends_and_aliases(self):
        with pytest.raises(ValueError) as err:
            create("gpu")
        message = str(err.value)
        assert "unknown executor kind 'gpu'" in message
        for name in ("inline", "threads", "sim", "processes"):
            assert name in message
        assert "mp" in message and "simulated" in message  # aliases listed


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

    def test_override_is_config_validated(self, fake_backend):
        cfg = ExecutorConfig(kind="threads", cores=2)
        with backend_override(kind="fakeback"):
            from repro.executor.factory import _apply_override

            redirected = _apply_override(cfg)
        assert redirected.kind == "fakeback"
        assert redirected.cores == 2
