"""Concurrent serving runtime: admission control, micro-batching, workers.

The ``repro.sched`` package turns the request/response serving stack of
:mod:`repro.serve` into a concurrent runtime:

* :class:`AdmissionQueue` — bounded FIFO; overload is answered at
  submission time with :class:`Overloaded`, never by silent drops.
* :func:`plan_groups` — the coalescer: every single-pair request in a
  micro-batch, whatever its source, merges into one vectorised
  ``score_pairs`` call (bit-identical to scalar ``score``).
* :class:`WorkerPool` — N dispatch threads (numpy releases the GIL)
  behind a pluggable thread factory.
* :class:`ServingRuntime` — ties the three together over one
  :class:`~repro.serve.QueryService`; PR 4's retries, circuit breaking
  and degraded fallback still apply to every logical request.
* :class:`ShardedRuntime` — the multi-process layer on top: one worker
  process per node-range shard (see :mod:`repro.store.sharding`), each
  serving its range from the one index artifact, scatter-gather routing
  with a bit-identical top-k merge, and per-shard circuit breakers so a
  failing shard degrades only its key range.

See ``docs/serving.md`` ("Concurrency" and "Multi-process sharding") for
the architecture diagrams and tuning guidance.
"""

from repro.sched.errors import Overloaded, RuntimeClosed
from repro.sched.pool import ThreadFactory, WorkerPool
from repro.sched.queue import AdmissionQueue
from repro.sched.request import (
    KIND_BATCH,
    KIND_SCORE,
    KIND_TOPK,
    DispatchGroup,
    ScheduledRequest,
    plan_groups,
)
from repro.sched.runtime import ServingRuntime
from repro.sched.shard_worker import ShardEngine, shard_worker_main
from repro.sched.sharded import (
    ProcessShardWorker,
    ShardClient,
    ShardedRuntime,
    ShardFailure,
    ThreadShardWorker,
)

__all__ = [
    "AdmissionQueue",
    "DispatchGroup",
    "KIND_BATCH",
    "KIND_SCORE",
    "KIND_TOPK",
    "Overloaded",
    "ProcessShardWorker",
    "RuntimeClosed",
    "ScheduledRequest",
    "ServingRuntime",
    "ShardClient",
    "ShardEngine",
    "ShardFailure",
    "ShardedRuntime",
    "ThreadFactory",
    "ThreadShardWorker",
    "WorkerPool",
    "plan_groups",
    "shard_worker_main",
]
