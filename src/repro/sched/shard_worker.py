"""One shard's half of the scatter-gather protocol.

A shard worker serves one contiguous node range ``[lo, hi)`` of the
index (see :mod:`repro.store.sharding`) and answers four operations over
a duplex pipe: ``batch`` (scores for candidate positions it owns, from
one source or one source per candidate),
``topk`` (its range's exact local top-k), ``health`` and ``stats`` (a
mergeable snapshot of the worker process's metrics registry — see
:mod:`repro.obs.aggregate` — which the router folds under a ``shard``
label so ``/metrics`` shows the whole process tree).  A forked worker
inherits the router's registry *values* at fork time, so
:func:`shard_worker_main` captures a baseline snapshot first and
``stats`` replies carry the pruned since-startup delta: only what this
worker actually did, never re-reports of parent samples (which would
double-count and collide with the router's own ``shard`` labels).
:func:`shard_worker_main` is the process entry point — it opens the
index **by path** inside the child, so nothing unpicklable crosses the
fork/spawn boundary — and :func:`serve_connection` is the loop itself,
also runnable on a plain thread, which is how the identity tests drive
the very same code in-process and deterministically.

Bit-identity
------------
Every worker scores through ``QueryEngine.open(index)`` — the engine
the unsharded server runs — and :class:`ShardEngine` only translates
global node positions to nodes and back.  The arrays are memory-mapped
read-only, so the router and all workers share the index's pages, and
every worker holds every walk row: a request carries node positions
only, whichever shard owns the source.  A pair's score never depends
on which other pairs share the call (each row's factor chain and
reduction read only that pair's walks), so scattering pairs across
shards and gathering the pieces reproduces the unsharded floats exactly
— the property suite in ``tests/properties/test_shard_identity.py``
holds this to ``==``.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from contextlib import nullcontext

import numpy as np

from repro.api import QueryEngine
from repro.obs.aggregate import collect_snapshot, snapshot_diff
from repro.obs.trace import span, trace_scope
from repro.store.artifacts import StoreError

OP_BATCH = "batch"
OP_TOPK = "topk"
OP_HEALTH = "health"
OP_STATS = "stats"
OP_SHUTDOWN = "shutdown"

#: The ops a ``shard.handle`` span may carry as its ``op`` label — anything
#: else is folded to ``other`` so a bad message cannot explode cardinality.
_SPAN_OPS = frozenset({OP_BATCH, OP_TOPK, OP_HEALTH, OP_STATS})


def score_positions(engine, nodes, pos_u, positions) -> np.ndarray:
    """Scores of the pairs ``(pos_u[i], positions[i])``, by node position.

    *pos_u* is one source position shared by every pair — one
    ``score_batch`` call — or one per pair — one ``score_pairs`` call.
    *nodes* maps positions to the nodes *engine* is queried with.
    """
    candidates = [nodes[int(position)] for position in positions]
    if np.ndim(pos_u) == 0:
        return engine.score_batch(nodes[int(pos_u)], candidates)
    return engine.score_pairs([nodes[int(p)] for p in pos_u], candidates)


class ShardEngine:
    """One node range ``[lo, hi)`` of the index, scored by its engine.

    *engine* is the index's own :class:`~repro.api.QueryEngine`; every
    public method takes **global** node positions and answers only for
    candidates inside the range.
    """

    def __init__(
        self, engine: QueryEngine, *, shard_index: int, lo: int, hi: int
    ) -> None:
        self.engine = engine
        self.shard_index = shard_index
        self.lo = lo
        self.hi = hi
        self.nodes = list(engine.graph.nodes())
        self.position = {node: index for index, node in enumerate(self.nodes)}
        #: Registry snapshot taken before this worker did any work of its
        #: own (set by :func:`shard_worker_main`); ``stats`` replies carry
        #: the pruned delta against it so fork-inherited samples are never
        #: re-reported.  ``None`` means "reply with the full snapshot".
        self.stats_baseline: dict | None = None

    def _first_meetings(self, pos_u: int, positions: np.ndarray) -> np.ndarray:
        # Only the perfbench launcher (perfbench/traced_serve.py) refers to
        # this name; nothing in the serving path calls it.
        return self.engine.walk_index.first_meetings_batch(
            self.nodes[pos_u], positions
        )

    def score_positions(self, pos_u, positions) -> np.ndarray:
        """Scores for global candidate *positions*, all within this range.

        *pos_u* is one source position, or one per candidate (see
        :func:`score_positions`).
        """
        return score_positions(self.engine, self.nodes, pos_u, positions)

    def top_k_positions(
        self,
        pos_u: int,
        k: int,
        positions=None,
        use_semantic_bound: bool = True,
        batch_size: int = 256,
    ) -> list[tuple[int, float]]:
        """Exact local top-k as ``(global_position, score)`` pairs.

        :meth:`QueryEngine.top_k <repro.api.QueryEngine.top_k>` over this
        range's nodes (or the given *positions*): the same bound and the
        same ``(value, str(node))`` comparator as the unsharded scan — the
        merge in :class:`~repro.sched.sharded.ShardedRuntime` relies on
        the local lists being exact under that total order.
        """
        if positions is None:
            candidates = self.nodes[self.lo:self.hi]
        else:
            candidates = [self.nodes[int(position)] for position in positions]
        ranked = self.engine.top_k(
            self.nodes[pos_u], k, candidates=candidates,
            use_semantic_bound=use_semantic_bound, batch_size=batch_size,
        )
        return [(self.position[node], float(value)) for node, value in ranked]

    def health(self) -> dict:
        return {
            "shard": self.shard_index,
            "lo": self.lo,
            "hi": self.hi,
            "nodes": self.hi - self.lo,
            "semantic": self.engine.measure is not None,
            "backend": self.engine.backend_name,
        }


# ---------------------------------------------------------------------------
# The worker loop (thread- or process-hosted)
# ---------------------------------------------------------------------------

def _trace_context(message: dict):
    """The router-assigned trace context for *message*, or a no-op.

    Each pipe message optionally carries ``trace = {trace_id,
    parent_span_id}``; joining it re-roots every span and log record this
    request produces worker-side under the router's dispatch span, so one
    ``trace_id`` stitches the whole scatter back together.
    """
    trace = message.get("trace")
    if isinstance(trace, dict) and trace.get("trace_id"):
        return trace_scope(trace["trace_id"], trace.get("parent_span_id"))
    return nullcontext()


def _handle(engine: ShardEngine, message: dict) -> dict:
    reply: dict = {"id": message.get("id")}
    op = message.get("op")
    started = time.perf_counter() if message.get("timings") else None
    try:
        with _trace_context(message), span(
            "shard.handle",
            labels={"op": op if op in _SPAN_OPS else "other"},
            shard=engine.shard_index,
        ):
            if op == OP_BATCH:
                reply["values"] = engine.score_positions(
                    message["pos_u"], message["positions"]
                )
            elif op == OP_TOPK:
                reply["results"] = engine.top_k_positions(
                    message["pos_u"],
                    message["k"],
                    positions=message.get("positions"),
                    use_semantic_bound=message.get("use_semantic_bound", True),
                    batch_size=message.get("batch_size") or 256,
                )
            elif op == OP_HEALTH:
                reply["health"] = engine.health()
            elif op == OP_STATS:
                # pid lets the router detect a thread-hosted worker that
                # shares its registry (folding that snapshot would count
                # the router's own samples twice)
                snapshot = collect_snapshot()
                baseline = engine.stats_baseline
                if baseline is not None:
                    # report only what this worker did: registry state
                    # inherited from the router at fork time must not be
                    # re-counted under a shard label
                    snapshot = snapshot_diff(baseline, snapshot, prune=True)
                reply["snapshot"] = snapshot
                reply["pid"] = os.getpid()
            else:
                raise StoreError(f"unknown shard operation {op!r}")
    except Exception as exc:  # answered, never crashes the worker loop
        reply["error"] = str(exc)
        reply["kind"] = type(exc).__name__
    if started is not None:
        reply["worker_us"] = (time.perf_counter() - started) * 1e6
    return reply


def serve_connection(engine: ShardEngine, conn, workers: int = 1) -> None:
    """Answer shard operations on *conn* until shutdown or pipe EOF.

    *workers* threads drain a local task queue (numpy releases the GIL,
    so intra-shard overlap is real work, not queueing theatre); replies
    are serialised by a send lock and matched by request id router-side,
    so completion order is free to differ from arrival order.
    """
    workers = max(1, int(workers))
    tasks: queue.Queue = queue.Queue()
    send_lock = threading.Lock()

    def _send(reply: dict) -> None:
        with send_lock:
            try:
                conn.send(reply)
            except (OSError, ValueError, BrokenPipeError):
                pass  # router went away; nothing left to answer to

    def _run() -> None:
        while True:
            message = tasks.get()
            if message is None:
                return
            _send(_handle(engine, message))

    threads = [
        threading.Thread(
            target=_run, name=f"shard-{engine.shard_index}-w{index}",
            daemon=True,
        )
        for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, dict) or message.get("op") == OP_SHUTDOWN:
                break
            tasks.put(message)
    finally:
        for _ in threads:
            tasks.put(None)
        for thread in threads:
            thread.join()
        try:
            conn.close()
        except OSError:
            pass


def shard_worker_main(index_path, conn, config: dict) -> None:
    """Process entry point: open the index by path, handshake, serve.

    *config* names the range (``shard``, ``lo``, ``hi``) and carries the
    worker thread count and the compute backend.

    SIGINT/SIGTERM are ignored — shutdown is coordinated by the router
    over the pipe (or by pipe EOF when the router dies), which is what
    lets a supervisor's SIGTERM to the process group drain cleanly
    instead of killing shards mid-request.
    """
    # Fork-inherited registry values belong to the router's story, not
    # this worker's; everything from here on (including the index-open
    # I/O below) is this worker's own work and diffs against this.
    baseline = collect_snapshot()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        engine = ShardEngine(
            QueryEngine.open(
                index_path,
                backend=config.get("backend"),
                backend_config=config.get("backend_config"),
            ),
            shard_index=config["shard"],
            lo=config["lo"],
            hi=config["hi"],
        )
    except Exception as exc:
        try:
            conn.send({"op": "ready", "error": str(exc), "kind": type(exc).__name__})
        finally:
            conn.close()
        return
    engine.stats_baseline = baseline
    conn.send({"op": "ready", **engine.health()})
    serve_connection(engine, conn, workers=config.get("workers", 1))
