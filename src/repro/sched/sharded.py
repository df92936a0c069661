"""Multi-process sharded serving: scatter-gather over node-range shards.

:class:`ShardedRuntime` extends :class:`~repro.sched.runtime.ServingRuntime`
— same admission queue, same coalescer, same worker threads, same
future-based API — but the dispatch step routes through one worker
**process** per shard instead of one in-process engine:

* a single-pair request goes to the shard owning the *candidate*'s node
  range (a micro-batch's coalesced pairs, whatever their sources, scatter
  as ``(source, candidate)`` pairs, so the micro-batching win and the
  multi-process win compose);
* ``BATCH`` scatters candidates by owning range and gathers the pieces
  back into submission order — bit-identical to the unsharded call
  because per-candidate scores never depend on their batch-mates;
* ``TOPK`` asks every shard for its exact local top-k (same
  ``(value, str(node))`` comparator as :func:`~repro.core.topk.top_k_similar`)
  and re-selects the global k from the union under that same total
  order — provably identical to the unsharded scan, property-tested in
  ``tests/properties/test_shard_identity.py``.

Fault isolation is per shard: every shard gets its own
:class:`~repro.serve.CircuitBreaker`; a worker that errors, misses the
``shard_timeout`` liveness bound, or dies trips only its breaker (a
request that merely exhausts its *own* deadline budget mid-gather does
not — that says nothing about the shard's health), and the
quarantined range is answered **degraded** from the fallback
:class:`~repro.serve.IndexManager` stack (the ``service`` the runtime
wraps) while every other range keeps serving at full fidelity.  When the
breaker half-opens, the next request restarts the worker process as the
probe.

Every worker opens the one index artifact by path and serves its range
through that index's own :class:`~repro.api.QueryEngine`, so a request
message carries node positions only.

The worker seam mirrors PR 5's thread-factory seam one level up:
``worker_factory(index_path, config)`` defaults to
:class:`ProcessShardWorker` (one forked process per shard, talking over
a duplex pipe) and tests swap in :class:`ThreadShardWorker` to run the
identical worker loop on in-process threads, deterministically.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from copy import deepcopy
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import NodeNotFoundError
from repro.obs.aggregate import (
    SnapshotError,
    collect_snapshot,
    empty_snapshot,
    fold_snapshot,
    snapshot_diff,
)
from repro.obs.logging import get_logger, log_event
from repro.obs.registry import is_enabled
from repro.obs.trace import current_span_id, current_trace_id
from repro.sched.metrics import (
    COALESCED,
    MERGE_LATENCY,
    SCATTER_FANOUT,
    SHARD_QUARANTINED,
    SHARD_REQUESTS,
    SHARD_WORKERS,
    STATS_PULLS,
)
from repro.sched.request import KIND_BATCH, KIND_SCORE, KIND_TOPK, DispatchGroup
from repro.sched.runtime import ServingRuntime, _deliver
from repro.sched.shard_worker import (
    OP_BATCH,
    OP_SHUTDOWN,
    OP_STATS,
    OP_TOPK,
    score_positions,
    shard_worker_main,
)
from repro.serve.breaker import CircuitBreaker, CircuitState
from repro.serve.errors import MutationRejectedError
from repro.serve.service import BatchResponse, QueryResponse, QueryService, TopKResponse
from repro.store.artifacts import read_artifact
from repro.store.engine_io import graph_from_artifact
from repro.store.sharding import ShardPlan, validate_shard_set

_LOG = get_logger("sched.sharded")

#: How long ``start()`` waits for a shard worker's ready handshake.
START_TIMEOUT = 60.0

#: Per-shard wait for deadline-less requests — a hung worker must trip
#: the breaker eventually, not pin a router thread forever.
DEFAULT_SHARD_TIMEOUT = 30.0


class ShardFailure(RuntimeError):
    """One shard could not answer (transport down, worker error, timeout).

    Router-internal: it feeds the shard's circuit breaker and the request
    falls back to the unsharded service — callers of the runtime never
    see this exception.
    """


# ---------------------------------------------------------------------------
# Worker transports (the process-factory seam)
# ---------------------------------------------------------------------------

class ProcessShardWorker:
    """One shard served from a forked worker process over a duplex pipe.

    The child receives only the index *path* and a plain config dict —
    it opens the index itself, so the transport is spawn-safe and every
    worker's memory maps share the index's pages in the OS page cache.
    """

    def __init__(self, path, config: dict) -> None:
        context = multiprocessing.get_context()
        self.conn, child = context.Pipe(duplex=True)
        self.process = context.Process(
            target=shard_worker_main,
            args=(str(path), child, dict(config)),
            name=f"repro-shard-{config.get('shard', '?')}",
            daemon=True,
        )
        self.process.start()
        child.close()  # the child's end lives in the child now

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def shutdown(self, timeout: float = 5.0) -> None:
        try:
            self.conn.send({"op": OP_SHUTDOWN})
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover — stuck worker
            self.process.terminate()
            self.process.join(1.0)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class ThreadShardWorker:
    """The identical worker loop on an in-process thread — the test seam.

    Runs :func:`shard_worker_main` unchanged (its signal setup no-ops off
    the main thread), so identity and resilience tests exercise the very
    code the forked workers run, without process-spawn nondeterminism.
    """

    def __init__(self, path, config: dict) -> None:
        self.conn, child = multiprocessing.Pipe(duplex=True)
        self.thread = threading.Thread(
            target=shard_worker_main,
            args=(str(path), child, dict(config)),
            name=f"repro-shard-{config.get('shard', '?')}-thread",
            daemon=True,
        )
        self.thread.start()

    @property
    def alive(self) -> bool:
        return self.thread.is_alive()

    def shutdown(self, timeout: float = 5.0) -> None:
        try:
            self.conn.send({"op": OP_SHUTDOWN})
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.thread.join(timeout)
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


#: ``worker_factory(index_path, config) -> worker`` — the multi-process seam.
WorkerFactory = Callable[[object, dict], object]


class ShardClient:
    """Router-side endpoint of one shard: pipe and pending futures.

    Request/reply matching is by id: a reader thread resolves futures as
    replies arrive, in whatever order the worker finishes them.
    """

    def __init__(
        self,
        index: int,
        lo: int,
        hi: int,
        path,
        config: dict,
        factory: WorkerFactory,
    ) -> None:
        self.index = index
        self.lo = lo
        self.hi = hi
        self.path = path
        self._config = dict(config, shard=index, lo=lo, hi=hi)
        self._factory = factory
        self._lock = threading.Lock()
        self._pending: dict[int, Future] = {}
        self._next_id = 0
        self._worker = None
        self._dead = True
        self.ready: dict = {}

    @property
    def running(self) -> bool:
        worker = self._worker
        return worker is not None and not self._dead and worker.alive

    def start(self) -> None:
        """(Re)spawn the worker and wait for its ready handshake."""
        with self._lock:
            if self.running:
                return
            self._fail_pending(ShardFailure(f"shard {self.index} restarting"))
            worker = self._factory(self.path, self._config)
            try:
                if not worker.conn.poll(START_TIMEOUT):
                    raise ShardFailure(
                        f"shard {self.index} worker sent no ready handshake "
                        f"within {START_TIMEOUT}s"
                    )
                ready = worker.conn.recv()
            except (EOFError, OSError, ShardFailure) as exc:
                worker.shutdown(timeout=1.0)
                raise ShardFailure(
                    f"shard {self.index} worker failed to start: {exc}"
                ) from exc
            if ready.get("error"):
                worker.shutdown(timeout=1.0)
                raise ShardFailure(
                    f"shard {self.index} worker failed to open the index: "
                    f"{ready['error']}"
                )
            self.ready = ready
            self._worker = worker
            self._dead = False
            threading.Thread(
                target=self._read_loop,
                args=(worker,),
                name=f"shard-{self.index}-reader",
                daemon=True,
            ).start()

    def _read_loop(self, worker) -> None:
        while True:
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                break
            with self._lock:
                future = self._pending.pop(reply.get("id"), None)
            if future is not None:
                _deliver(future, reply)
        with self._lock:
            if self._worker is worker:
                self._dead = True
            self._fail_pending(
                ShardFailure(f"shard {self.index} connection closed")
            )

    def _fail_pending(self, exc: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            _deliver(future, exc=exc)

    def submit(self, op: str, **fields) -> Future:
        """Send one operation; the returned future resolves to the reply."""
        with self._lock:
            if self._worker is None or self._dead:
                raise ShardFailure(f"shard {self.index} worker is not running")
            self._next_id += 1
            message = {"op": op, "id": self._next_id, **fields}
            future: Future = Future()
            self._pending[message["id"]] = future
            try:
                self._worker.conn.send(message)
            except (OSError, ValueError, BrokenPipeError) as exc:
                self._pending.pop(message["id"], None)
                self._dead = True
                raise ShardFailure(
                    f"shard {self.index} pipe send failed: {exc}"
                ) from exc
            return future

    def close(self, timeout: float = 5.0) -> None:
        with self._lock:
            worker, self._worker = self._worker, None
            self._dead = True
            self._fail_pending(ShardFailure(f"shard {self.index} closed"))
        if worker is not None:
            worker.shutdown(timeout)


def _members(pos_u: int | np.ndarray, member_idx: np.ndarray):
    """The sources of pairs *member_idx*: a shared source stays one int."""
    return pos_u if np.ndim(pos_u) == 0 else pos_u[member_idx]


# ---------------------------------------------------------------------------
# The runtime
# ---------------------------------------------------------------------------

class ShardedRuntime(ServingRuntime):
    """Scatter-gather serving over node-range shard worker processes.

    Parameters beyond :class:`ServingRuntime`'s (whose ``workers`` here
    are the *router* threads doing scatter-gather):

    index_path:
        The ``method="mc"`` index artifact every shard worker opens.
    plan:
        A :class:`~repro.store.ShardPlan` over the index's nodes, or a
        shard count (even split).
    workers_per_shard:
        Worker threads inside each shard process.
    worker_factory:
        ``(index_path, config) -> worker`` seam; defaults to
        :class:`ProcessShardWorker`.
    breaker_factory:
        ``(shard_index) -> CircuitBreaker`` for per-shard quarantine.
    shard_timeout:
        Per-shard gather wait (seconds) for requests without a deadline;
        requests with a deadline wait only for their remaining budget.
    stats_interval:
        Seconds between background pulls of each worker's metrics
        registry snapshot (folded under a ``shard`` label into
        :meth:`merged_snapshot`).  ``None`` disables the puller thread
        *and* the implicit pulls on :meth:`health` and drain — the
        deterministic-test mode, where a fault-double worker must not be
        waited on.

    The wrapped *service* is the **fallback stack**: quarantined ranges
    are answered from ``service.manager`` (full PR 4 machinery — retry,
    its own breaker, iterative degradation) and flagged ``degraded``.
    """

    def __init__(
        self,
        service: QueryService,
        index_path,
        plan: "ShardPlan | int",
        *,
        workers: int = 4,
        workers_per_shard: int = 1,
        max_batch: int = 32,
        max_wait_us: float = 0.0,
        queue_depth: int = 1024,
        clock: Callable[[], float] | None = None,
        autostart: bool = True,
        thread_factory=None,
        worker_factory: WorkerFactory | None = None,
        breaker_factory: Callable[[int], CircuitBreaker] | None = None,
        backend=None,
        backend_config=None,
        shard_timeout: float | None = DEFAULT_SHARD_TIMEOUT,
        stats_interval: float | None = 10.0,
        timings: bool = False,
    ) -> None:
        index = read_artifact(Path(index_path))
        self._nodes = list(graph_from_artifact(index).nodes())
        if not isinstance(plan, ShardPlan):
            plan = ShardPlan.even(len(self._nodes), plan)
        validate_shard_set(index, plan)
        self._plan = plan
        self._node_position = {node: i for i, node in enumerate(self._nodes)}
        super().__init__(
            service,
            workers=workers,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            queue_depth=queue_depth,
            clock=clock,
            autostart=False,
            thread_factory=thread_factory,
            timings=timings,
        )
        self.workers_per_shard = max(1, int(workers_per_shard))
        self._shard_timeout = shard_timeout
        self._stats_interval = stats_interval
        self._stats_lock = threading.Lock()
        self._worker_baseline: dict[int, dict] = {}
        self._worker_acc = empty_snapshot(ts=0.0)
        self._stats_stop = threading.Event()
        self._stats_thread: threading.Thread | None = None

        self._range_starts = np.fromiter(
            (lo for lo, _ in self._plan.boundaries),
            dtype=np.int64,
            count=self._plan.num_shards,
        )

        config = {
            "workers": self.workers_per_shard,
            "backend": backend,
            "backend_config": backend_config,
        }
        factory = worker_factory if worker_factory is not None else ProcessShardWorker
        self._clients = [
            ShardClient(shard, lo, hi, index_path, config, factory)
            for shard, (lo, hi) in enumerate(self._plan.boundaries)
        ]
        if breaker_factory is None:
            breaker_factory = lambda index: CircuitBreaker(  # noqa: E731
                name=f"shard-{index}", clock=self._clock,
            )
        self._breakers = [breaker_factory(i) for i in range(len(self._clients))]
        self._shard_cells: dict[tuple[int, str], object] = {}
        self._quarantine_gauges = [
            SHARD_QUARANTINED.labels(shard=str(i))
            for i in range(len(self._clients))
        ]
        self._clients_closed = False
        self._mutations_rejected = 0
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def plan(self) -> ShardPlan:
        return self._plan

    def start(self) -> None:
        """Spawn shard workers (failures quarantine, they don't abort),
        then the router pool."""
        for client in self._clients:
            if client.running:
                continue
            breaker = self._breakers[client.index]
            try:
                client.start()
                SHARD_WORKERS.labels(shard=str(client.index)).set(
                    float(self.workers_per_shard)
                )
            except ShardFailure as exc:
                # served degraded from the fallback until a probe revives it
                breaker.record_failure()
                self._sync_quarantine(client.index)
                log_event(
                    _LOG, "shard.start_failed",
                    shard=client.index, error=str(exc),
                )
        super().start()
        if (
            self._stats_interval is not None
            and self._stats_thread is None
            and not self.closed
        ):
            self._stats_stop.clear()
            self._stats_thread = threading.Thread(
                target=self._stats_loop,
                name="repro-shard-stats",
                daemon=True,
            )
            self._stats_thread.start()

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        stats_thread = self._stats_thread
        if stats_thread is not None:
            self._stats_thread = None
            self._stats_stop.set()
            stats_thread.join(timeout=5.0)
        joined = super().close(drain=drain, timeout=timeout)
        if not self._clients_closed:
            # final pull AFTER the drain (every kernel has run) and BEFORE
            # the clients close — the shutdown dump sees complete workers
            if drain and self._stats_interval is not None:
                try:
                    self.pull_worker_stats(timeout=1.0)
                except Exception as exc:  # noqa: BLE001 — shutdown must finish
                    log_event(_LOG, "shard.stats_pull_failed", error=str(exc))
            self._clients_closed = True
            for client in self._clients:
                client.close()
                SHARD_WORKERS.labels(shard=str(client.index)).set(0.0)
        return joined

    def health(self) -> dict:
        if self._stats_interval is not None and not self._clients_closed:
            try:
                self.pull_worker_stats(timeout=1.0)
            except Exception as exc:  # noqa: BLE001 — health must answer
                log_event(_LOG, "shard.stats_pull_failed", error=str(exc))
        payload = super().health()
        payload["shards"] = [
            {
                "shard": client.index,
                "range": [client.lo, client.hi],
                "running": client.running,
                "quarantined": self._breakers[client.index].state
                is not CircuitState.CLOSED,
                "circuit": self._breakers[client.index].state.value,
            }
            for client in self._clients
        ]
        payload["workers_per_shard"] = self.workers_per_shard
        with self._stats_lock:
            payload["metrics_aggregation"] = {
                "interval_s": self._stats_interval,
                "shards_polled": len(self._worker_baseline),
            }
        head_epoch = self._head_epoch()
        payload["mutations"] = {
            "supported": False,
            "rejected": self._mutations_rejected,
            "head_epoch": head_epoch,
            "shard_epoch": 0,
            "epoch_mismatch": head_epoch != 0,
        }
        return payload

    # ------------------------------------------------------------------
    # Live mutations — unsupported on sharded stacks
    # ------------------------------------------------------------------
    def _head_epoch(self) -> int:
        state = self.service.manager._state
        if state is None or state.engine is None:
            return 0
        return int(getattr(state.engine.walk_index, "epoch", 0))

    def apply_mutations(self, mutations) -> dict:
        """Reject live mutations: shard workers pin immutable snapshots.

        Each shard process mmaps the index's walk tensor, written at
        epoch 0, and cannot repair it in place.  Mutating only the head
        engine would let the fallback stack answer from a newer epoch than the
        shards — the mismatch this method refuses is the one ``health()``
        surfaces under ``mutations.epoch_mismatch``.
        """
        self._mutations_rejected += 1
        head_epoch = self._head_epoch()
        raise MutationRejectedError(
            "sharded runtime cannot apply live mutations: shard workers "
            "serve immutable walk-tensor snapshots pinned at epoch 0 — "
            "rebuild the index instead",
            head_epoch=head_epoch,
            shard_epoch=0,
        )

    # ------------------------------------------------------------------
    # Cross-process metrics aggregation
    # ------------------------------------------------------------------
    def _stats_loop(self) -> None:
        while not self._stats_stop.wait(self._stats_interval):
            try:
                self.pull_worker_stats()
            except Exception as exc:  # noqa: BLE001 — the puller must survive
                log_event(_LOG, "shard.stats_pull_failed", error=str(exc))

    def pull_worker_stats(self, timeout: float = 5.0) -> int:
        """Pull one round of worker registry snapshots; fold the deltas.

        Each healthy worker answers a ``stats`` op with a full
        :func:`~repro.obs.aggregate.collect_snapshot`; the router keeps a
        per-shard baseline, folds only the since-last-pull *delta* into
        its accumulator under a ``shard`` label (so a restarted worker's
        counters re-add instead of double-counting — reset detection in
        :func:`~repro.obs.aggregate.snapshot_diff` handles the rest), and
        returns how many shards folded this round.  Pull failures are
        counted in ``shard_stats_pulls_total`` but never feed the shard
        breakers: a slow stats reply says nothing about query health.
        """
        in_flight: list[tuple[ShardClient, Future]] = []
        for client in self._clients:
            if not client.running:
                continue
            if self._breakers[client.index].state is not CircuitState.CLOSED:
                continue
            try:
                in_flight.append((client, client.submit(OP_STATS)))
            except ShardFailure:
                if is_enabled():
                    STATS_PULLS.labels(outcome="error").inc()
        folded = 0
        router_pid = os.getpid()
        for client, future in in_flight:
            try:
                reply = future.result(timeout)
            except FutureTimeout:
                if is_enabled():
                    STATS_PULLS.labels(outcome="timeout").inc()
                continue
            except ShardFailure:
                if is_enabled():
                    STATS_PULLS.labels(outcome="error").inc()
                continue
            snapshot = reply.get("snapshot")
            if reply.get("error") or not isinstance(snapshot, dict):
                if is_enabled():
                    STATS_PULLS.labels(outcome="error").inc()
                continue
            with self._stats_lock:
                baseline = self._worker_baseline.get(client.index)
                self._worker_baseline[client.index] = snapshot
                if reply.get("pid") == router_pid:
                    # thread-hosted worker (test seam) sharing this
                    # process's registry: its samples are already in the
                    # router's own snapshot — folding would double-count
                    outcome = "skipped"
                else:
                    delta = (
                        snapshot_diff(baseline, snapshot)
                        if baseline is not None else snapshot
                    )
                    # fold into a copy first: fold_snapshot mutates in
                    # place, and a malformed delta must not leave the
                    # accumulator half-updated
                    try:
                        acc = fold_snapshot(
                            deepcopy(self._worker_acc),
                            delta,
                            {"shard": str(client.index)},
                        )
                    except SnapshotError as exc:
                        log_event(
                            _LOG, "shard.stats_fold_failed",
                            shard=client.index, error=str(exc),
                        )
                        outcome = "error"
                    else:
                        self._worker_acc = acc
                        folded += 1
                        outcome = "ok"
            if is_enabled():
                STATS_PULLS.labels(outcome=outcome).inc()
        return folded

    def merged_snapshot(self, pull: bool = True) -> dict:
        """The whole process tree's metrics as one mergeable snapshot.

        The router's own registry plus every worker's accumulated,
        ``shard``-labelled series — what ``repro metrics dump``, the
        ``--metrics-out`` shutdown dump and the ``/metrics`` scrape
        endpoint render for a sharded runtime.  *pull* fetches fresh
        worker deltas first (skip it to read the accumulator as-is).
        """
        if pull and not self._clients_closed:
            try:
                self.pull_worker_stats()
            except Exception as exc:  # noqa: BLE001 — render what we have
                log_event(_LOG, "shard.stats_pull_failed", error=str(exc))
        merged = collect_snapshot()
        with self._stats_lock:
            workers = deepcopy(self._worker_acc)
        fold_snapshot(merged, workers)
        return merged

    # ------------------------------------------------------------------
    # Shard bookkeeping
    # ------------------------------------------------------------------
    def _count_shard(self, index: int, outcome: str) -> None:
        if not is_enabled():
            return
        cell = self._shard_cells.get((index, outcome))
        if cell is None:
            cell = SHARD_REQUESTS.labels(shard=str(index), outcome=outcome)
            self._shard_cells[(index, outcome)] = cell
        cell.inc()

    def _sync_quarantine(self, index: int) -> None:
        if is_enabled():
            state = self._breakers[index].state
            self._quarantine_gauges[index].set(
                0.0 if state is CircuitState.CLOSED else 1.0
            )

    def _shard_ready(self, index: int) -> bool:
        """Breaker + liveness gate; a half-open probe restarts the worker."""
        breaker = self._breakers[index]
        if not breaker.allow():
            self._count_shard(index, "quarantined")
            self._sync_quarantine(index)
            return False
        client = self._clients[index]
        if not client.running:
            try:
                client.start()
                SHARD_WORKERS.labels(shard=str(index)).set(
                    float(self.workers_per_shard)
                )
            except ShardFailure as exc:
                self._shard_failed(index, "error", exc)
                return False
        return True

    def _shard_failed(self, index: int, outcome: str, exc: Exception) -> None:
        self._breakers[index].record_failure()
        self._count_shard(index, outcome)
        self._sync_quarantine(index)
        log_event(
            _LOG, "shard.failed",
            shard=index, outcome=outcome, error=str(exc),
        )

    def _shard_succeeded(self, index: int) -> None:
        self._breakers[index].record_success()
        self._count_shard(index, "ok")
        self._sync_quarantine(index)

    def _gather(self, index: int, future: Future, deadline: float | None):
        """Wait for one shard's reply within the request's budget.

        Two different timeouts can expire here and only one says anything
        about the shard's health: missing the ``shard_timeout`` *liveness*
        bound feeds the shard's circuit breaker, while exhausting the
        request's own deadline budget does not — the shard never got its
        full liveness window, so a burst of tight-deadline requests must
        not quarantine healthy shards.
        """
        timeout = self._shard_timeout
        budget_bound = False
        if deadline is not None:
            budget = max(0.0, deadline - self._clock())
            if timeout is None or budget < timeout:
                timeout = budget
                budget_bound = True
        try:
            reply = future.result(timeout)
        except FutureTimeout as exc:
            if budget_bound:
                self._count_shard(index, "deadline")
                raise ShardFailure(
                    f"shard {index} reply outlived the request's deadline "
                    "budget"
                ) from exc
            self._shard_failed(index, "timeout", exc)
            raise ShardFailure(f"shard {index} missed its deadline") from exc
        except ShardFailure as exc:
            self._shard_failed(index, "error", exc)
            raise
        if reply.get("error"):
            exc = ShardFailure(
                f"shard {index} answered {reply.get('kind')}: {reply['error']}"
            )
            self._shard_failed(index, "error", exc)
            raise exc
        self._shard_succeeded(index)
        return reply

    # ------------------------------------------------------------------
    # Dispatch overrides — scatter, gather, merge
    # ------------------------------------------------------------------
    def _execute_group(self, group: DispatchGroup) -> None:
        if group.kind == KIND_SCORE:
            self._execute_score_group_sharded(group)
            return
        request = group.requests[0]
        pos_u = self._node_position.get(request.u)
        if pos_u is None:
            self._finish_error(request, NodeNotFoundError(request.u))
        elif group.kind == KIND_BATCH:
            self._execute_batch_sharded(request, pos_u)
        elif group.kind == KIND_TOPK:
            self._execute_topk_sharded(request, pos_u)
        else:  # pragma: no cover — submission API cannot build other kinds
            raise ValueError(f"unknown request kind {group.kind!r}")

    def _message_extras(self) -> dict:
        """Per-scatter message fields: trace context + timings request.

        Computed once per scatter (all its shard messages belong to one
        trace tree rooted at the dispatch span this thread is inside).
        """
        extras: dict = {}
        trace_id = current_trace_id()
        if trace_id is not None:
            extras["trace"] = {
                "trace_id": trace_id,
                "parent_span_id": current_span_id(),
            }
        if self.timings:
            extras["timings"] = True
        return extras

    def _scatter_scores(
        self,
        pos_u: int | np.ndarray,
        positions: np.ndarray,
        deadline: float | None,
    ):
        """Scores of the pairs ``(pos_u[i], positions[i])``, routed by owner.

        *pos_u* is one source position shared by every pair (a ``BATCH``)
        or one per pair (a micro-batch's single-pair group).  Each pair
        goes to the shard owning its candidate; pairs of failed shards
        are answered by the fallback stack.  Returns ``(values,
        degraded_mask, fallback_acquisition, timing)`` where the mask
        marks pairs answered by the fallback and *timing* is the
        ``--timings`` latency breakdown (``None`` when timings are off).
        """
        owners = np.searchsorted(self._range_starts, positions, side="right") - 1
        values = np.empty(positions.size, dtype=np.float64)
        degraded = np.zeros(positions.size, dtype=bool)
        merge_started = self._clock()
        extras = self._message_extras()
        in_flight: list[tuple[int, np.ndarray, Future]] = []
        failed: list[tuple[int, np.ndarray]] = []
        shard_ids = np.unique(owners)
        if is_enabled():
            SCATTER_FANOUT.observe(float(shard_ids.size))
        for shard_id in shard_ids:
            shard_id = int(shard_id)
            member_idx = np.flatnonzero(owners == shard_id)
            if not self._shard_ready(shard_id):
                failed.append((shard_id, member_idx))
                continue
            try:
                future = self._clients[shard_id].submit(
                    OP_BATCH, pos_u=_members(pos_u, member_idx),
                    positions=positions[member_idx], **extras,
                )
            except ShardFailure as exc:
                self._shard_failed(shard_id, "error", exc)
                failed.append((shard_id, member_idx))
                continue
            in_flight.append((shard_id, member_idx, future))
        kernel_us = 0.0
        for shard_id, member_idx, future in in_flight:
            try:
                reply = self._gather(shard_id, future, deadline)
            except ShardFailure:
                failed.append((shard_id, member_idx))
                continue
            values[member_idx] = reply["values"]
            kernel_us = max(kernel_us, float(reply.get("worker_us", 0.0)))
        gather_ended = self._clock()
        acquisition = None
        if failed:
            acquisition = self.service.manager.acquire(deadline=deadline)
            engine = acquisition.engine
            for shard_id, member_idx in failed:
                values[member_idx] = score_positions(
                    engine, self._nodes,
                    _members(pos_u, member_idx), positions[member_idx],
                )
                degraded[member_idx] = True
        if is_enabled():
            MERGE_LATENCY.observe(max(0.0, self._clock() - merge_started))
        timing = None
        if self.timings:
            timing = {
                "scatter_us": max(0.0, (gather_ended - merge_started) * 1e6),
                "kernel_us": kernel_us,
                "merge_us": max(0.0, (self._clock() - gather_ended) * 1e6),
            }
        return values, degraded, acquisition, timing

    def _execute_score_group_sharded(self, group: DispatchGroup) -> None:
        live = []
        sources = []
        positions = []
        position = self._node_position
        for request in group.requests:
            # an unknown node fails only its own request
            pos_u = position.get(request.u)
            pos_v = position.get(request.v)
            if pos_u is None:
                self._finish_error(request, NodeNotFoundError(request.u))
            elif pos_v is None:
                self._finish_error(request, NodeNotFoundError(request.v))
            else:
                live.append(request)
                sources.append(pos_u)
                positions.append(pos_v)
        if not live:
            return
        if len(live) > 1 and is_enabled():
            COALESCED.inc(len(live))
        deadline = min(
            (r.deadline for r in live if r.deadline is not None), default=None
        )
        values, degraded, acquisition, timing = self._scatter_scores(
            np.asarray(sources, dtype=np.int64),
            np.asarray(positions, dtype=np.int64),
            deadline,
        )
        end = self._clock()
        trace_id = group.requests[0].trace_id
        for i, request in enumerate(live):
            elapsed_ms = self._finalize(request, end, bool(degraded[i]))
            if elapsed_ms is None:
                continue
            _deliver(request.future, self._annotate(QueryResponse(
                request.u, request.v, float(values[i]), bool(degraded[i]),
                acquisition.retries if degraded[i] and acquisition else 0,
                acquisition.engine.method if degraded[i] and acquisition
                else "mc",
                elapsed_ms,
            ), request, trace_id, **(timing or {})))

    def _execute_batch_sharded(self, request, pos_u: int) -> None:
        positions = []
        for candidate in request.candidates:
            pos_v = self._node_position.get(candidate)
            if pos_v is None:
                self._finish_error(request, NodeNotFoundError(candidate))
                return
            positions.append(pos_v)
        values, degraded, acquisition, timing = self._scatter_scores(
            pos_u, np.asarray(positions, dtype=np.int64), request.deadline
        )
        any_degraded = bool(degraded.any())
        end = self._clock()
        elapsed_ms = self._finalize(request, end, any_degraded)
        if elapsed_ms is None:
            return
        _deliver(request.future, self._annotate(BatchResponse(
            u=request.u, candidates=request.candidates, values=values,
            degraded=any_degraded,
            retries=acquisition.retries if acquisition else 0,
            method=acquisition.engine.method
            if acquisition and any_degraded else "mc",
            elapsed_ms=elapsed_ms,
        ), request, **(timing or {})))

    def _execute_topk_sharded(self, request, pos_u: int) -> None:
        if request.candidates is not None:
            positions = []
            for candidate in request.candidates:
                pos_v = self._node_position.get(candidate)
                if pos_v is None:
                    self._finish_error(request, NodeNotFoundError(candidate))
                    return
                positions.append(pos_v)
            positions = np.asarray(positions, dtype=np.int64)
            owners = np.searchsorted(
                self._range_starts, positions, side="right"
            ) - 1
            targets = [
                (int(shard_id), positions[np.flatnonzero(owners == shard_id)])
                for shard_id in np.unique(owners)
            ]
        else:
            targets = [(index, None) for index in range(len(self._clients))]

        merge_started = self._clock()
        if is_enabled():
            SCATTER_FANOUT.observe(float(len(targets)))
        fields: dict = {"k": request.k, **self._message_extras()}
        if request.batch_size is not None:
            fields["batch_size"] = request.batch_size
        in_flight = []
        failed = []
        for shard_id, shard_positions in targets:
            if not self._shard_ready(shard_id):
                failed.append((shard_id, shard_positions))
                continue
            shard_fields = dict(fields)
            if shard_positions is not None:
                shard_fields["positions"] = shard_positions
            try:
                future = self._clients[shard_id].submit(
                    OP_TOPK, pos_u=pos_u, **shard_fields
                )
            except ShardFailure as exc:
                self._shard_failed(shard_id, "error", exc)
                failed.append((shard_id, shard_positions))
                continue
            in_flight.append((shard_id, shard_positions, future))

        # (value, str(node), node) — the exact total order the unsharded
        # heap selects under; re-selecting the global k from exact local
        # top-k lists is therefore bit-identical to the unsharded scan.
        entries: list[tuple[float, str, object]] = []
        kernel_us = 0.0
        for shard_id, shard_positions, future in in_flight:
            try:
                reply = self._gather(shard_id, future, request.deadline)
            except ShardFailure:
                failed.append((shard_id, shard_positions))
                continue
            for position, value in reply["results"]:
                node = self._nodes[int(position)]
                entries.append((float(value), str(node), node))
            kernel_us = max(kernel_us, float(reply.get("worker_us", 0.0)))
        gather_ended = self._clock()

        acquisition = None
        any_degraded = bool(failed)
        if failed:
            acquisition = self.service.manager.acquire(deadline=request.deadline)
            engine = acquisition.engine
            for shard_id, shard_positions in failed:
                if shard_positions is None:
                    lo, hi = self._plan.boundaries[shard_id]
                    candidates = self._nodes[lo:hi]
                else:
                    candidates = [self._nodes[int(p)] for p in shard_positions]
                kwargs = {}
                if request.batch_size is not None:
                    kwargs["batch_size"] = request.batch_size
                for node, value in engine.top_k(
                    self._nodes[pos_u], request.k, candidates=candidates,
                    **kwargs,
                ):
                    entries.append((float(value), str(node), node))

        top = heapq.nlargest(request.k, entries)
        top.sort(key=lambda entry: (-entry[0], entry[1]))
        results = tuple((node, value) for value, _, node in top)
        if is_enabled():
            MERGE_LATENCY.observe(max(0.0, self._clock() - merge_started))
        end = self._clock()
        timing = None
        if self.timings:
            timing = {
                "scatter_us": max(0.0, (gather_ended - merge_started) * 1e6),
                "kernel_us": kernel_us,
                "merge_us": max(0.0, (end - gather_ended) * 1e6),
            }
        elapsed_ms = self._finalize(request, end, any_degraded)
        if elapsed_ms is None:
            return
        _deliver(request.future, self._annotate(TopKResponse(
            u=request.u, k=request.k, results=results,
            degraded=any_degraded,
            retries=acquisition.retries if acquisition else 0,
            method=acquisition.engine.method
            if acquisition and any_degraded else "mc",
            elapsed_ms=elapsed_ms,
        ), request, **(timing or {})))

    def __repr__(self) -> str:
        status = "closed" if self.closed else (
            "running" if self._pool.started else "cold"
        )
        quarantined = sum(
            1 for breaker in self._breakers
            if breaker.state is not CircuitState.CLOSED
        )
        return (
            f"ShardedRuntime({status}, shards={len(self._clients)}, "
            f"workers_per_shard={self.workers_per_shard}, "
            f"quarantined={quarantined})"
        )
