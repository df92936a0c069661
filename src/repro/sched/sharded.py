"""Multi-process sharded serving: scatter-gather over node-range shards.

:class:`ShardedRuntime` extends :class:`~repro.sched.runtime.ServingRuntime`
— same admission queue, same coalescer, same worker threads, same
future-based API, and the same request path: names resolved, responses
built, outcomes counted and ``--timings`` annotated there, once.  It
overrides only where the numbers come from, routing through one worker
**process** per shard instead of one in-process engine:

* a single-pair request goes to the shard owning the *candidate*'s node
  range (a micro-batch's coalesced pairs, whatever their sources, scatter
  as ``(source, candidate)`` pairs, so the micro-batching win and the
  multi-process win compose);
* ``BATCH`` scatters candidates by owning range and gathers the pieces
  back into submission order — bit-identical to the unsharded call
  because per-candidate scores never depend on their batch-mates;
* ``TOPK`` asks every shard for the top-k of its own range's scan (same
  ``(value, str(node))`` comparator as :func:`~repro.core.topk.top_k_similar`)
  and re-selects the global k from the union under that same total
  order.  Where every score is at most its Prop. 2.5 bound ``sem(u,
  v)``, each scan stops only past candidates that cannot enter its
  top-k, so the merge equals the unsharded scan.  Prop. 2.5 bounds the
  exact measure, not an MC estimate, which can exceed ``sem(u, v)``; a
  scan may then stop before a candidate that beats its k-th score.  So
  for MC the equality is observed, not proven: on perfbench's graph it
  held for all 1,430 entity sources on contiguous 2- and 3-shard plans
  and failed for 7 under an interleaved split (docs/serving.md).
  ``tests/properties/test_shard_identity.py`` checks it on its graphs.

Fault isolation is per shard: every shard gets its own
:class:`~repro.serve.CircuitBreaker`; a worker that errors, misses the
``shard_timeout`` liveness bound, or dies trips only its breaker (a
request that merely exhausts its *own* deadline budget mid-gather does
not — that says nothing about the shard's health), and the
quarantined range is answered **degraded** from the fallback
:class:`~repro.serve.IndexManager` (the ``manager`` the runtime takes)
while every other range keeps serving at full fidelity.  When the
breaker half-opens, the next request restarts the worker process as the
probe.  Pairs a healthy shard answered report ``retries: 0`` and the
method of that shard's engine (from its ready handshake); pairs of a
failed shard report the fallback acquisition's.

Every worker opens the one index artifact by path and serves its range
through that index's own :class:`~repro.api.QueryEngine`, so a request
message carries node positions only.  The fallback manager serves the
same graph under the same positions, so the router resolves each
request's nodes once, through the fallback manager's engine.

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
    MERGE_LATENCY,
    SCATTER_FANOUT,
    SHARD_QUARANTINED,
    SHARD_REQUESTS,
    SHARD_WORKERS,
    STATS_PULLS,
)
from repro.sched.runtime import ServingRuntime, _deliver, _labels_of
from repro.sched.shard_worker import (
    OP_BATCH,
    OP_SHUTDOWN,
    OP_STATS,
    OP_TOPK,
    shard_worker_main,
)
from repro.serve.breaker import CircuitBreaker, CircuitState
from repro.serve.errors import MutationRejectedError
from repro.serve.manager import IndexManager
from repro.store.artifacts import StoreError, read_artifact
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
    falls back to the unsharded manager — callers of the runtime never
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
        The ``method="mc"`` index artifact every shard worker opens; it
        must hold as many nodes as *manager*'s engine.
    plan:
        A :class:`~repro.store.ShardPlan` over the index's nodes, or a
        shard count (even split).
    worker_factory:
        ``(index_path, config) -> worker`` seam; defaults to
        :class:`ProcessShardWorker`.
    breaker_factory:
        ``(shard_index) -> CircuitBreaker`` for per-shard quarantine.
    backend:
        The kernel instance every shard's engine runs (``None``: the
        library kernel).  Forked workers inherit it.
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

    *manager* is the **fallback stack**: quarantined ranges are
    answered from it (retry, its own breaker, iterative degradation) and
    flagged ``degraded``.
    """

    def __init__(
        self,
        manager: IndexManager,
        index_path,
        plan: "ShardPlan | int",
        *,
        deadline_ms: float | None = None,
        workers: int = 4,
        max_batch: int = 32,
        max_wait_us: float = 0.0,
        queue_depth: int = 1024,
        clock: Callable[[], float] | None = None,
        autostart: bool = True,
        thread_factory=None,
        worker_factory: WorkerFactory | None = None,
        breaker_factory: Callable[[int], CircuitBreaker] | None = None,
        backend=None,
        shard_timeout: float | None = DEFAULT_SHARD_TIMEOUT,
        stats_interval: float | None = 10.0,
        timings: bool = False,
    ) -> None:
        index = read_artifact(Path(index_path))
        # requests resolve their names through the fallback stack's engine
        num_nodes = len(manager.acquire().engine.nodes)
        if not isinstance(plan, ShardPlan):
            plan = ShardPlan.even(num_nodes, plan)
        validate_shard_set(index, plan)
        if plan.num_nodes != num_nodes:
            raise StoreError(
                f"shard plan covers {plan.num_nodes} nodes but the served "
                f"engine has {num_nodes}"
            )
        self._plan = plan
        super().__init__(
            manager,
            deadline_ms=deadline_ms,
            workers=workers,
            max_batch=max_batch,
            max_wait_us=max_wait_us,
            queue_depth=queue_depth,
            clock=clock,
            autostart=False,
            thread_factory=thread_factory,
            timings=timings,
        )
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

        config = {"backend": backend}
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
                SHARD_WORKERS.labels(shard=str(client.index)).set(1.0)
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
        state = self.manager._state
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
                SHARD_WORKERS.labels(shard=str(index)).set(1.0)
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
    # The numbers — scatter, gather, per-shard fallback, merge
    # ------------------------------------------------------------------
    def _owned(self, positions: np.ndarray) -> dict[int, np.ndarray]:
        """``shard -> indices into positions`` of the positions it owns."""
        owners = np.searchsorted(self._range_starts, positions, side="right") - 1
        return {
            int(shard): np.flatnonzero(owners == shard)
            for shard in np.unique(owners)
        }

    def _scatter(self, op: str, messages: dict, deadline: float | None):
        """Send ``messages[shard]`` to each shard; gather the replies.

        Returns ``(replies, failed, kernel_us)``: ``(shard, reply)`` for
        every shard that answered, the shards that did not (quarantined,
        unsendable, errored or out of time — each already recorded
        against its breaker by :meth:`_shard_ready` / :meth:`_gather`),
        and the slowest worker's own time.
        """
        if is_enabled():
            SCATTER_FANOUT.observe(float(len(messages)))
        extras: dict = {"timings": True} if self.timings else {}
        trace_id = current_trace_id()
        if trace_id is not None:
            # every message of the scatter joins the trace of the dispatch
            # span this thread is inside
            extras["trace"] = {
                "trace_id": trace_id,
                "parent_span_id": current_span_id(),
            }
        in_flight: list[tuple[int, Future]] = []
        failed: list[int] = []
        for shard, fields in messages.items():
            if not self._shard_ready(shard):
                failed.append(shard)
                continue
            try:
                future = self._clients[shard].submit(op, **fields, **extras)
            except ShardFailure as exc:
                self._shard_failed(shard, "error", exc)
                failed.append(shard)
                continue
            in_flight.append((shard, future))
        replies = []
        kernel_us = 0.0
        for shard, future in in_flight:
            try:
                reply = self._gather(shard, future, deadline)
            except ShardFailure:
                failed.append(shard)
                continue
            replies.append((shard, reply))
            kernel_us = max(kernel_us, float(reply.get("worker_us", 0.0)))
        return replies, failed, kernel_us

    def _timing(self, started: float, gathered: float, kernel_us: float) -> dict:
        """Observe the merge latency; the ``--timings`` breakdown."""
        ended = self._clock()
        if is_enabled():
            MERGE_LATENCY.observe(max(0.0, ended - started))
        return {
            "scatter_us": max(0.0, (gathered - started) * 1e6),
            "kernel_us": kernel_us,
            "merge_us": max(0.0, (ended - gathered) * 1e6),
        }

    def _scatter_labels(self, acquisition, replies, fallback) -> tuple:
        """``labels[flag]`` for one scatter: pairs a shard answered report
        ``retries: 0`` and the method of the shard's engine (every shard
        opens the one index), pairs of a failed shard report *fallback*'s
        retries and method.  An empty scatter keeps *acquisition*'s."""
        healthy, degraded = _labels_of(acquisition)
        if replies:
            healthy = (0, self._clients[replies[0][0]].ready["method"])
        if fallback is not None:
            degraded = (fallback.retries, fallback.engine.method)
        return healthy, degraded

    def _score_positions(self, acquisition, pos_u, positions, deadline):
        """Each pair goes to the shard owning its candidate; pairs of
        failed shards are answered degraded by the fallback stack."""
        started = self._clock()
        owned = self._owned(positions)
        replies, failed, kernel_us = self._scatter(OP_BATCH, {
            shard: {
                "pos_u": _members(pos_u, members),
                "positions": positions[members],
            }
            for shard, members in owned.items()
        }, deadline)
        values = np.empty(positions.size, dtype=np.float64)
        for shard, reply in replies:
            values[owned[shard]] = reply["values"]
        gathered = self._clock()
        degraded = np.zeros(positions.size, dtype=bool)
        fallback = None
        if failed:
            fallback = self.manager.acquire(deadline=deadline)
            for shard in failed:
                members = owned[shard]
                values[members] = fallback.engine.score_positions(
                    _members(pos_u, members), positions[members]
                )
                degraded[members] = True
        labels = self._scatter_labels(acquisition, replies, fallback)
        return values, degraded, labels, self._timing(
            started, gathered, kernel_us
        )

    def _top_k_positions(self, acquisition, pos_u, k, positions, deadline):
        """Every shard (or every owner of *positions*) returns its exact
        local top-k; failed shards' candidates are ranked by the fallback
        stack; the global k is re-selected from the union."""
        started = self._clock()
        if positions is None:
            chosen = dict.fromkeys(range(len(self._clients)))  # whole ranges
        else:
            chosen = {
                shard: positions[members]
                for shard, members in self._owned(positions).items()
            }
        replies, failed, kernel_us = self._scatter(OP_TOPK, {
            shard: {"pos_u": pos_u, "k": k, "positions": candidates}
            for shard, candidates in chosen.items()
        }, deadline)
        # (value, str(node), position) — the total order the unsharded
        # scan selects under.  The re-selected k equals the unsharded
        # scan's wherever the local scans' early stops were sound (see
        # the module docstring).
        nodes = acquisition.engine.nodes
        entries = [
            (float(value), str(nodes[int(p)]), int(p))
            for _, reply in replies
            for p, value in reply["results"]
        ]
        gathered = self._clock()
        fallback = None
        if failed:
            fallback = self.manager.acquire(deadline=deadline)
            for shard in failed:
                candidates = chosen[shard]
                if candidates is None:
                    candidates = np.arange(
                        *self._plan.boundaries[shard], dtype=np.int64
                    )
                entries.extend(
                    (value, str(nodes[p]), p)
                    for p, value in fallback.engine.top_k_positions(
                        pos_u, k, candidates
                    )
                )
        top = heapq.nlargest(k, entries)
        top.sort(key=lambda entry: (-entry[0], entry[1]))
        labels = self._scatter_labels(acquisition, replies, fallback)
        return [(p, value) for value, _, p in top], bool(failed), labels, (
            self._timing(started, gathered, kernel_us)
        )

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
            f"quarantined={quarantined})"
        )
