"""The walk-score kernel behind the Monte-Carlo scoring hot paths.

See :mod:`repro.backends.base` for the protocol and the equivalence
contract.  The library's one kernel is ``blocked``
(:mod:`repro.backends.blocked`): flat gathers and a row-blocked chain in
per-thread scratch of ``block_rows`` rows.  The stacked-array reference
it is held bit-identical to lives with the tests
(``tests/backends/numpy_ref.py``), which pass it to engines as an
instance: ``QueryEngine(backend=NumpyBackend())``.
"""

from repro.backends.base import (
    BackendConfig,
    ComputeBackend,
    ComputedCells,
    WalkScoreRequest,
    WalkScoreResult,
    kernel_timer,
)
from repro.backends.blocked import BlockedBackend


def resolve_backend(backend: ComputeBackend | None = None) -> ComputeBackend:
    """*backend* itself, or a fresh library kernel when it is ``None``.

    Callable with no argument: ``perfbench/traced_serve.py`` finds the
    kernel class to wrap through ``type(resolve_backend(None))``.
    """
    return backend if backend is not None else BlockedBackend()


__all__ = [
    "BackendConfig",
    "BlockedBackend",
    "ComputeBackend",
    "ComputedCells",
    "WalkScoreRequest",
    "WalkScoreResult",
    "kernel_timer",
    "resolve_backend",
]
