"""Launch ``repro.cli.main`` with a span around each layer's entry points.

    python3 perfbench/traced_serve.py SPANS_DIR serve [serve args ...]

Nothing under ``src/`` changes: before the CLI starts, this launcher
replaces the entry points the benchmark measures (class attributes, and
module globals for functions imported by name) with wrappers that keep
one span per call in memory -- name, start, end, parent, the program's own
``current_trace_id()`` and a few call facts.  Forked shard workers inherit
the wrappers.  Each process writes its spans to
``SPANS_DIR/spans-<pid>.json`` when it exits (the server after its drain,
a shard worker when its serving loop returns).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
import weakref
from pathlib import Path

SPANS: list = []
_ids = itertools.count(1)
_local = threading.local()
_current_trace_id = None


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class _Span:
    __slots__ = ("record", "stack")

    def __init__(self, name: str) -> None:
        stack = _stack()
        span_id = next(_ids)
        # [name, start, end, id, parent, trace id, thread, facts]
        self.record = [name, time.monotonic_ns(), 0, span_id,
                       stack[-1] if stack else 0, _current_trace_id(),
                       threading.get_ident(), None]
        stack.append(span_id)
        self.stack = stack

    def close(self, facts=None) -> None:
        self.record[2] = time.monotonic_ns()
        self.record[7] = facts
        self.stack.pop()
        SPANS.append(self.record)


def _wrap(name: str, fn, facts=None):
    """Span around *fn*; ``facts(args, kwargs, result)`` adds call facts."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = _Span(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.close()
            raise
        span.close(facts(args, kwargs, result) if facts else None)
        return result
    return wrapper


def _patch(owner, attr: str, name: str, facts=None) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(_wrap(name, raw.__func__, facts)))
    else:
        setattr(owner, attr, _wrap(name, raw, facts))


def _patch_function(fn, wrapped) -> None:
    """Replace *fn* by *wrapped* in every loaded ``repro`` module."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            module.__dict__.get(fn.__name__) is fn
        ):
            setattr(module, fn.__name__, wrapped)


def _submit(name: str, fn):
    """``submit_*``: the call, plus a request span ending when it is done."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        span = _Span(name)
        try:
            future = fn(self, *args, **kwargs)
        except BaseException:
            span.close()
            raise
        start, seq = span.record[1], self._seq
        span.close({"seq": seq})

        def done(_future) -> None:
            SPANS.append(["sched.request", start, time.monotonic_ns(),
                          next(_ids), 0, None, threading.get_ident(),
                          {"seq": seq}])
        future.add_done_callback(done)
        return future
    return wrapper


def _plan_facts(args, _kwargs, groups):
    """Queue wait and grouping of every request in one dispatched batch."""
    requests = [
        [r.seq, r.enqueued_at, r.dispatched_at, len(g.requests), g.kind,
         g.requests[0].seq]
        for g in groups for r in g.requests
    ]
    return {"n": len(args[0]), "requests": requests}


def _top_k_similar(fn):
    """Top-k scan; its ``batch_score`` calls become child spans."""
    @functools.wraps(fn)
    def wrapper(query, candidates, k, *args, **kwargs):
        candidates = list(candidates)
        scored = [0]
        inner = kwargs.get("batch_score")
        if inner is not None:
            def batch_score(u, block):
                scored[0] += len(block)
                span = _Span("core.topk.batch_score")
                try:
                    return inner(u, block)
                finally:
                    span.close()
            kwargs["batch_score"] = batch_score
        span = _Span("core.topk.top_k_similar")
        try:
            return fn(query, candidates, k, *args, **kwargs)
        finally:
            span.close({"offered": len(candidates) - (query in candidates),
                        "scored": scored[0]})
    return wrapper


def _first_batch(fn):
    """``similarity_batch``, marking the first call on each estimator."""
    seen = weakref.WeakSet()

    @functools.wraps(fn)
    def wrapper(self, u, candidates):
        first = self not in seen
        seen.add(self)
        span = _Span("core.montecarlo.similarity_batch")
        try:
            return fn(self, u, candidates)
        finally:
            span.close({"first": first, "m": len(candidates)})
    return wrapper


def dump(directory: Path) -> None:
    path = directory / f"spans-{os.getpid()}.json"
    path.write_text(json.dumps({"pid": os.getpid(), "spans": SPANS}))


def install(directory: Path) -> None:
    global _current_trace_id
    import repro.cli  # noqa: F401 -- loads every module patched below
    from repro import api, serve, store
    from repro.backends import resolve_backend
    from repro.core import dynamic, montecarlo, topk, walk_index
    from repro.obs.trace import current_trace_id
    from repro.sched import request, runtime, shard_worker, sharded
    from repro.semantics import cache
    from repro.serve import service

    _current_trace_id = current_trace_id
    rt = runtime.ServingRuntime
    for kind in ("score", "batch", "topk"):
        setattr(rt, f"submit_{kind}",
                _submit(f"sched.submit_{kind}", rt.__dict__[f"submit_{kind}"]))
    _patch_function(request.plan_groups, _wrap(
        "sched.plan_groups", request.plan_groups, _plan_facts))
    _patch(shard_worker.ShardEngine, "top_k_positions",
           "sched.sharded.top_k_positions")
    _patch(shard_worker.ShardEngine, "score_positions",
           "sched.sharded.score_positions")
    _patch(shard_worker.ShardEngine, "_first_meetings",
           "core.walk_index.first_meetings_batch")
    manager = serve.IndexManager
    _patch(manager, "acquire", "serve.acquire")
    _patch(manager, "apply_mutations", "serve.apply_mutations")
    engine = api.QueryEngine
    _patch(engine, "score", "api.score")
    _patch(engine, "score_batch", "api.score_batch",
           lambda a, _k, _r: {"m": len(a[2])})
    _patch(engine, "top_k", "api.top_k")
    _patch(engine, "with_mutations", "api.with_mutations")
    _patch(engine, "open", "api.open")
    _patch_function(topk.top_k_similar, _top_k_similar(topk.top_k_similar))
    estimator = montecarlo.MonteCarloSemSim
    _patch(estimator, "similarity", "core.montecarlo.similarity")
    estimator.similarity_batch = _first_batch(
        estimator.__dict__["similarity_batch"])
    _patch(walk_index.WalkIndex, "__init__", "core.walk_index.build")
    _patch(walk_index.WalkIndex, "first_meetings_batch",
           "core.walk_index.first_meetings_batch")
    backend_cls = type(resolve_backend(None))
    _patch(backend_cls, "batch_walk_scores", "backends.batch_walk_scores",
           lambda _a, _k, result: {"rows": int(result.walks_met)})
    dyn = dynamic.DynamicWalkIndex
    _patch(dyn, "from_walk_index", "core.dynamic.from_walk_index")
    for kind in ("add_edge", "remove_edge"):
        _patch(dyn, kind, "core.dynamic.mutate",
               lambda _a, _k, resampled: {"resampled": resampled})
    _patch(cache.MatrixMeasure, "from_measure", "semantics.from_measure")
    for fn in (store.artifacts.read_artifact,
               store.sharding.validate_shard_set):
        _patch_function(fn, _wrap(f"store.{fn.__name__}", fn))
    for response in (service.QueryResponse, service.BatchResponse,
                     service.TopKResponse):
        _patch(response, "as_dict", "cli.as_dict")
    repro.cli.json = _JsonShim()

    worker_main = sharded.shard_worker_main

    def traced_worker_main(*args, **kwargs):
        SPANS.clear()  # the fork copied the router's spans
        try:
            return worker_main(*args, **kwargs)
        finally:
            dump(directory)
    sharded.shard_worker_main = traced_worker_main


class _JsonShim:
    """``json`` as the CLI sees it, with ``dumps`` timed."""

    def __init__(self) -> None:
        self.dumps = _wrap("cli.dumps", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


def main() -> int:
    directory = Path(sys.argv[1])
    install(directory)
    import repro.cli

    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        dump(directory)


if __name__ == "__main__":
    sys.exit(main())
