"""Pluggable compute backends for the Monte-Carlo scoring hot paths.

See :mod:`repro.backends.base` for the protocol and the equivalence
contract.  Importing this package registers the built-in backends:

* ``numpy`` — the reference stacked-array kernels (the baseline every
  other backend is verified against);
* ``blocked`` — cache-blocked/preallocated kernels, bit-identical to the
  reference and the guaranteed accelerated fallback.

Select one with ``QueryEngine(backend=...)``, the CLI's ``--backend``, or
the ``REPRO_BACKEND`` environment variable; inspect the registry with
``repro backends list``.
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

# Importing the modules registers the built-ins.
from repro.backends import numpy_ref as _numpy_ref  # noqa: F401
from repro.backends import blocked as _blocked      # noqa: F401

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
