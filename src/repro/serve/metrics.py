"""The serving layer's metric families, registered once for the package.

Kept in one module so :mod:`repro.serve.retry`, ``breaker``, ``manager``
and :mod:`repro.sched.runtime` share the same children instead of
re-registering, and so ``docs/serving.md`` has a single source of truth
to document.
"""

from __future__ import annotations

from repro.obs.registry import get_registry

_REGISTRY = get_registry()

SERVE_REQUESTS = _REGISTRY.counter(
    "serve_requests_total",
    help="Served requests by outcome "
    "(ok, degraded, deadline_exceeded, error, rejected).",
    labelnames=("outcome",),
)
SERVE_RETRIES = _REGISTRY.counter(
    "serve_retries_total",
    help="Retry attempts performed by the serving layer, per I/O operation.",
    labelnames=("operation",),
)
DEGRADED_QUERIES = _REGISTRY.counter(
    "degraded_queries_total",
    help="Queries answered from the iterative fallback while the primary "
    "index was unavailable.",
)
CIRCUIT_STATE = _REGISTRY.gauge(
    "circuit_state",
    help="Circuit-breaker state per breaker: 0=closed, 1=open, 2=half-open.",
    labelnames=("name",),
)
CIRCUIT_TRANSITIONS = _REGISTRY.counter(
    "circuit_transitions_total",
    help="Circuit-breaker state transitions, by breaker and target state.",
    labelnames=("name", "to"),
)
SERVE_REBUILDS = _REGISTRY.counter(
    "serve_rebuilds_total",
    help="Primary-index rebuild attempts by outcome (ok, failed).",
    labelnames=("outcome",),
)
INDEX_GENERATION = _REGISTRY.gauge(
    "index_generation",
    help="Generation counter of the engine currently published for serving "
    "(bumped by every activation, rebuild and live-mutation swap).",
)
MUTATIONS_APPLIED = _REGISTRY.counter(
    "mutations_applied_total",
    help="Graph mutations applied through the live-update path, by kind "
    "(add_edge, set_weight, remove_edge, add_node).",
    labelnames=("kind",),
)
INDEX_SWAP_SECONDS = _REGISTRY.histogram(
    "index_swap_seconds",
    help="Wall time of one live-update cycle: apply-incremental, persist "
    "the new generation, atomic swap.",
)
