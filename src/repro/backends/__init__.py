"""Pluggable compute backends for the Monte-Carlo scoring hot paths.

See :mod:`repro.backends.base` for the protocol and the equivalence
contract.  Importing this package registers the library's one kernel,
``blocked`` (:mod:`repro.backends.blocked`): flat gathers and a
row-blocked chain in per-thread scratch of ``block_rows`` rows.  The
stacked-array reference it is held bit-identical to lives with the
tests (``tests/backends/numpy_ref.py``), which register it as ``numpy``
for their session.

Select a registered backend with ``QueryEngine(backend=...)``, the CLI's
``--backend``, or the ``REPRO_BACKEND`` environment variable; inspect the
registry with ``repro backends list``.
"""

from repro.backends.base import (
    BACKEND_ENV_VAR,
    BackendConfig,
    BackendError,
    BackendInfo,
    BackendUnavailableError,
    ComputeBackend,
    DEFAULT_BACKEND,
    UnknownBackendError,
    WalkScoreRequest,
    WalkScoreResult,
    available_backends,
    default_backend_name,
    get_backend,
    kernel_timer,
    register_backend,
    register_unavailable,
    resolve_backend,
    unregister_backend,
)

# Importing the module registers the kernel.
from repro.backends import blocked as _blocked  # noqa: F401

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendConfig",
    "BackendError",
    "BackendInfo",
    "BackendUnavailableError",
    "ComputeBackend",
    "DEFAULT_BACKEND",
    "UnknownBackendError",
    "WalkScoreRequest",
    "WalkScoreResult",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "kernel_timer",
    "register_backend",
    "register_unavailable",
    "resolve_backend",
    "unregister_backend",
]
