"""Registry semantics: registration, discovery, resolution precedence."""

import pytest

from repro.backends import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    BackendConfig,
    BackendUnavailableError,
    ComputeBackend,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
    register_unavailable,
    resolve_backend,
    unregister_backend,
)
from repro.errors import ConfigurationError

from tests.backends.numpy_ref import NumpyBackend


class TestRegistry:
    def test_builtins_registered(self):
        names = {info.name for info in available_backends()}
        assert {"numpy", "blocked"} <= names

    def test_default_is_blocked(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == "blocked"
        assert resolve_backend(None).name == "blocked"

    def test_get_backend_unknown_name(self):
        with pytest.raises(UnknownBackendError, match="nope"):
            get_backend("nope")

    def test_unknown_error_lists_known_names(self):
        with pytest.raises(UnknownBackendError, match="numpy"):
            get_backend("nope")

    def test_unavailable_stub_raises_distinct_error(self):
        register_unavailable("stub-backend", "dependency missing", "a stub")
        try:
            rows = {info.name: info for info in available_backends()}
            assert not rows["stub-backend"].available
            assert rows["stub-backend"].unavailable_reason == "dependency missing"
            with pytest.raises(BackendUnavailableError, match="dependency"):
                get_backend("stub-backend")
        finally:
            unregister_backend("stub-backend")

    def test_third_party_registration_roundtrip(self):
        @register_backend
        class _PluginBackend(NumpyBackend):
            name = "plugin-test"
            description = "registered by the test"

        try:
            assert get_backend("plugin-test").name == "plugin-test"
            assert resolve_backend("plugin-test").name == "plugin-test"
        finally:
            unregister_backend("plugin-test")

    def test_registration_requires_a_name(self):
        with pytest.raises(ConfigurationError, match="name"):
            register_backend(type("Anon", (ComputeBackend,), {}))


class TestResolutionPrecedence:
    def test_env_var_beats_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        assert resolve_backend(None).name == "blocked"

    def test_kwarg_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "blocked")
        assert resolve_backend("numpy").name == "numpy"

    def test_instance_passes_through(self):
        instance = NumpyBackend(BackendConfig(block_rows=7))
        assert resolve_backend(instance) is instance

    def test_instance_plus_config_rejected(self):
        with pytest.raises(ConfigurationError, match="backend_config"):
            resolve_backend(NumpyBackend(), BackendConfig())

    def test_config_forwarded_by_name(self):
        backend = resolve_backend("blocked", BackendConfig(block_rows=33))
        assert backend.config.block_rows == 33

    def test_non_name_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            resolve_backend(3.14)


class TestBackendConfig:
    def test_defaults(self):
        config = BackendConfig()
        assert config.block_rows >= 1
        assert config.step_memo_cap >= 1

    @pytest.mark.parametrize("bad", [0, -5])
    def test_block_rows_validated(self, bad):
        with pytest.raises(ConfigurationError, match="block_rows"):
            BackendConfig(block_rows=bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_step_memo_cap_validated(self, bad):
        with pytest.raises(ConfigurationError, match="step_memo_cap"):
            BackendConfig(step_memo_cap=bad)

    def test_step_memo_cap_none_allowed(self):
        assert BackendConfig(step_memo_cap=None).step_memo_cap is None


class TestEquivalenceContracts:
    def test_exact_backends_declare_zero_tolerance(self):
        for info in available_backends():
            if info.available and info.exact:
                assert info.tolerance == 0.0, info.name

    def test_tolerant_backends_declare_a_bound(self):
        for info in available_backends():
            if info.available and not info.exact:
                assert info.tolerance > 0.0, info.name

    def test_every_backend_has_a_description(self):
        for info in available_backends():
            assert info.description, info.name
