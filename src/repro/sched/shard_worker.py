"""One shard's half of the scatter-gather protocol.

A shard worker serves one contiguous node range ``[lo, hi)`` of the
index (see :mod:`repro.store.sharding`) and answers three operations over
a duplex pipe: ``batch`` (scores for candidate positions it owns, from
one source or one source per candidate), ``topk`` (the top-k of its
range's scan) and ``stats`` (a mergeable snapshot of the worker process's
metrics registry — see :mod:`repro.obs.aggregate` — which the router
folds under a ``shard`` label so ``/metrics`` shows the whole process
tree).  A forked worker
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
the unsharded server runs — and :class:`ShardEngine` hands the router's
global node positions straight to its position entry points.  The
arrays are memory-mapped
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

import gc
import os
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
OP_STATS = "stats"
OP_SHUTDOWN = "shutdown"

#: The ops a ``shard.handle`` span may carry as its ``op`` label — anything
#: else is folded to ``other`` so a bad message cannot explode cardinality.
_SPAN_OPS = frozenset({OP_BATCH, OP_TOPK, OP_STATS})


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
        #: Registry snapshot taken before this worker did any work of its
        #: own (set by :func:`shard_worker_main`); ``stats`` replies carry
        #: the pruned delta against it so fork-inherited samples are never
        #: re-reported.  ``None`` means "reply with the full snapshot".
        self.stats_baseline: dict | None = None

    def _first_meetings(self, pos_u: int, positions: np.ndarray) -> np.ndarray:
        # Only the perfbench launcher (perfbench/traced_serve.py) refers to
        # this name; nothing in the serving path calls it.
        return self.engine.walk_index.first_meetings_pairs(pos_u, positions)

    def score_positions(self, pos_u, positions) -> np.ndarray:
        """Scores for global candidate *positions*, all within this range.

        *pos_u* is one source position, or one per candidate (see
        :meth:`QueryEngine.score_positions
        <repro.api.QueryEngine.score_positions>`).
        """
        return self.engine.score_positions(pos_u, positions)

    def top_k_positions(
        self, pos_u: int, k: int, positions=None
    ) -> list[tuple[int, float]]:
        """The top-k of this range's scan as ``(global_position, score)`` pairs.

        :meth:`QueryEngine.top_k_positions
        <repro.api.QueryEngine.top_k_positions>` over this range (or the
        given *positions*): the same bound and the same
        ``(value, str(node))`` comparator as the unsharded scan, which
        the merge in :class:`~repro.sched.sharded.ShardedRuntime`
        re-selects under (see its module docstring for when the merge
        equals the unsharded scan).
        """
        if positions is None:
            positions = np.arange(self.lo, self.hi, dtype=np.int64)
        return self.engine.top_k_positions(pos_u, k, positions)

    def health(self) -> dict:
        return {
            "shard": self.shard_index,
            "lo": self.lo,
            "hi": self.hi,
            "nodes": self.hi - self.lo,
            "semantic": self.engine.measure is not None,
            "method": self.engine.method,
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
                )
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


def serve_connection(engine: ShardEngine, conn) -> None:
    """Answer shard operations on *conn* until shutdown or pipe EOF.

    Each message is answered on this thread, in arrival order; the router
    matches replies to requests by id.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, dict) or message.get("op") == OP_SHUTDOWN:
                break
            try:
                conn.send(_handle(engine, message))
            except (OSError, ValueError, BrokenPipeError):
                pass  # router went away; nothing left to answer to
    finally:
        try:
            conn.close()
        except OSError:
            pass


def shard_worker_main(index_path, conn, config: dict) -> None:
    """Process entry point: open the index by path, handshake, serve.

    *config* names the range (``shard``, ``lo``, ``hi``) and carries the
    kernel instance (``None``: the library kernel); a forked worker
    inherits the instance.

    SIGINT/SIGTERM are ignored — shutdown is coordinated by the router
    over the pipe (or by pipe EOF when the router dies), which is what
    lets a supervisor's SIGTERM to the process group drain cleanly
    instead of killing shards mid-request.
    """
    if threading.current_thread() is threading.main_thread():
        # A forked worker shares the router's pages until it writes to
        # them, and a full collection writes to every tracked object it
        # inherited.  Frozen, they stay shared: on perfbench's index each
        # worker holds 12 MB less.  (A thread-hosted worker is not a
        # process of its own and leaves the collector alone.)
        gc.freeze()
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
            QueryEngine.open(index_path, backend=config.get("backend")),
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
    serve_connection(engine, conn)
