"""Resilient serving layer over :class:`~repro.api.QueryEngine`.

:class:`~repro.serve.manager.IndexManager` owns the engine: it opens the
primary index with bounded retries, quarantines a persistently failing
index behind a :class:`~repro.serve.breaker.CircuitBreaker`, degrades to
the exact iterative solver when the walk index is lost, and rebuilds the
primary in the background.  Requests go through
:class:`~repro.sched.ServingRuntime`, which takes the manager and owns
the per-request deadline, the responses of :mod:`repro.serve.service`
(each with its ``degraded`` flag) and the ``serve_*`` request metrics.

Failure behaviour is exercised deterministically via
:mod:`repro.testing.faults`; the semantics are documented in
``docs/serving.md``.
"""

from repro.serve.breaker import CircuitBreaker, CircuitState
from repro.serve.errors import (
    CircuitOpenError,
    DeadlineExceeded,
    IndexUnavailableError,
    MutationRejectedError,
    ServeError,
)
from repro.serve.manager import Acquisition, IndexManager
from repro.serve.retry import RETRYABLE, RetryPolicy, call_with_retry
from repro.serve.service import (
    BatchResponse,
    QueryResponse,
    TopKResponse,
)

__all__ = [
    "Acquisition",
    "BatchResponse",
    "CircuitBreaker",
    "CircuitOpenError",
    "CircuitState",
    "DeadlineExceeded",
    "IndexManager",
    "IndexUnavailableError",
    "MutationRejectedError",
    "QueryResponse",
    "RETRYABLE",
    "RetryPolicy",
    "ServeError",
    "TopKResponse",
    "call_with_retry",
]
