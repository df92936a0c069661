"""The scheduler's metric families, registered once for the package.

Kept in one module (mirroring :mod:`repro.serve.metrics`) so the queue,
coalescer, worker pool and runtime share children instead of
re-registering, and so ``docs/serving.md`` has one source of truth.

Logical request outcomes still land in the serving layer's
``serve_requests_total`` — the scheduler adds the queueing view on top:
how deep the queue is, how long requests waited, how large the dispatched
micro-batches were, how much merging the coalescer achieved, and how busy
the workers are.
"""

from __future__ import annotations

from repro.obs.registry import DEFAULT_TIME_BUCKETS, get_registry

_REGISTRY = get_registry()

QUEUE_DEPTH = _REGISTRY.gauge(
    "sched_queue_depth",
    help="Requests currently admitted and waiting for dispatch.",
)
QUEUE_WAIT = _REGISTRY.histogram(
    "sched_queue_wait_seconds",
    help="Time each request spent between admission and dispatch.",
    buckets=DEFAULT_TIME_BUCKETS,
)
BATCH_SIZE = _REGISTRY.histogram(
    "sched_batch_size",
    help="Logical requests per dispatched micro-batch.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0),
)
REJECTED = _REGISTRY.counter(
    "sched_rejected_total",
    help="Requests refused by admission control, by reason "
    "(overloaded, closed) — expired-in-queue requests are counted "
    "under sched_expired_total instead.",
    labelnames=("reason",),
)
EXPIRED = _REGISTRY.counter(
    "sched_expired_total",
    help="Admitted requests dropped at dispatch because their deadline "
    "had already passed; each one is answered with DeadlineExceeded, "
    "never silently discarded.",
)
COALESCED = _REGISTRY.counter(
    "sched_coalesced_requests_total",
    help="Single-pair requests merged into a shared score_pairs call "
    "(requests dispatched alone are not counted).",
)
WORKERS = _REGISTRY.gauge(
    "sched_workers",
    help="Worker threads the runtime was started with.",
)
WORKERS_BUSY = _REGISTRY.gauge(
    "sched_workers_busy",
    help="Workers currently executing a micro-batch.",
)
WORKER_BUSY_SECONDS = _REGISTRY.counter(
    "sched_worker_busy_seconds_total",
    help="Cumulative seconds workers spent executing micro-batches; "
    "divide by (sched_workers x wall time) for utilization.",
)

# ---------------------------------------------------------------------------
# Multi-process sharding (ShardedRuntime) — the scatter-gather view.
# ---------------------------------------------------------------------------

SHARD_REQUESTS = _REGISTRY.counter(
    "shard_requests_total",
    help="Per-shard operations issued by the router, by outcome "
    "(ok, error, timeout, deadline, quarantined — timeout is a miss of "
    "the shard_timeout liveness bound and feeds the shard's breaker; "
    "deadline means the request's own budget ran out mid-gather, which "
    "does not; quarantined means the shard was skipped and its key "
    "range answered from the fallback engine).",
    labelnames=("shard", "outcome"),
)
SCATTER_FANOUT = _REGISTRY.histogram(
    "shard_scatter_fanout",
    help="Shards touched per scatter-gathered logical request.",
    buckets=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0),
)
MERGE_LATENCY = _REGISTRY.histogram(
    "shard_merge_seconds",
    help="Router-side gather+merge time per scatter (from first send "
    "to the merged result, excluding queue wait).",
    buckets=DEFAULT_TIME_BUCKETS,
)
SHARD_WORKERS = _REGISTRY.gauge(
    "shard_workers",
    help="Threads answering one shard process's messages, by shard "
    "(1 while the shard runs, 0 after close).",
    labelnames=("shard",),
)
STATS_PULLS = _REGISTRY.counter(
    "shard_stats_pulls_total",
    help="Worker-registry snapshot pulls by the router, by outcome "
    "(ok, skipped, error, timeout).  Pull failures never feed the shard "
    "breakers — a slow stats reply says nothing about query health; "
    "skipped means the worker shares the router's process registry "
    "(thread-hosted test seam), whose samples are already counted.",
    labelnames=("outcome",),
)
SHARD_QUARANTINED = _REGISTRY.gauge(
    "shard_quarantined",
    help="1 while the shard's circuit is refusing traffic and its key "
    "range is served degraded from the fallback engine, else 0.",
    labelnames=("shard",),
)
