"""The kernel seam: configuration and the default kernel."""

import pytest

from repro.backends import BackendConfig, BlockedBackend, resolve_backend
from repro.errors import ConfigurationError

from tests.backends.numpy_ref import NumpyBackend


class TestRegistry:
    def test_default_is_blocked(self):
        backend = resolve_backend(None)
        assert isinstance(backend, BlockedBackend)
        assert backend.name == "blocked"


class TestResolutionPrecedence:
    def test_instance_passes_through(self):
        instance = NumpyBackend(BackendConfig(block_rows=7))
        assert resolve_backend(instance) is instance


class TestBackendConfig:
    def test_defaults(self):
        config = BackendConfig()
        assert config.block_rows >= 1

    @pytest.mark.parametrize("bad", [0, -5])
    def test_block_rows_validated(self, bad):
        with pytest.raises(ConfigurationError, match="block_rows"):
            BackendConfig(block_rows=bad)
