"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Replay the paper's Figure 1 / Example 2.2 comparison.
``generate``
    Generate one of the synthetic dataset stand-ins and save it as a
    bundle JSON (graph + taxonomy + IC + ground truth).
``query``
    Score one node pair on a saved bundle with SemSim (iterative or
    Monte-Carlo) and SimRank.
``topk``
    Top-k similarity search from a node on a saved bundle.
``info``
    Print a saved bundle's shape and the decay-factor bounds.
``index build``
    Preprocess a bundle once into a self-contained engine artifact
    (and optionally the portable walk-tensor ``.npz``).
``index info``
    Describe a saved engine artifact without loading its arrays.
``serve``
    Concurrent line-protocol server on stdin/stdout: ``u v``,
    ``BATCH u v1 v2 ...`` or ``TOPK u k [v1 ...]`` per line, one JSON
    response per line in request order.  Requests flow through a bounded
    admission queue (``--queue-depth``; overload answers ``overloaded``
    instead of crashing), are coalesced into vectorised micro-batches
    (``--max-batch`` / ``--max-wait-us``) and served by ``--workers``
    threads — with per-request deadlines (``--deadline-ms``), bounded I/O
    retries (``--max-retries``) and graceful degradation to the iterative
    solver on index loss (responses carry a ``degraded`` flag).
    ``UPDATE u v [weight]`` and ``DELEDGE u v`` mutate the served graph
    live (incremental walk repair + atomic generation swap; rejected with
    ``kind: unsupported`` under ``--shards``).  ``HEALTH`` on a line
    prints the serving health snapshot; EOF, a blank line or Ctrl-C
    drains in-flight requests and exits 0.

``query`` and ``topk`` also accept ``--index`` (serve from a prebuilt
artifact — no preprocessing at all) and ``--cache`` (transparent
content-addressed store: hit-or-build-and-persist).

Observability (see ``docs/observability.md``): ``query``, ``topk`` and
``index build`` take ``--log-json`` (structured JSON logs on stderr),
``--trace-out PATH`` (JSON-lines span traces) and ``--metrics-out PATH``
(dump the metrics registry as JSON when the command finishes; ``-`` means
stdout — except under ``serve``, whose stdout is the protocol stream, so
``-`` routes the dump to stderr there).  ``serve`` additionally takes
``--metrics-port N`` (a live ``/metrics`` + ``/health`` scrape endpoint,
aggregated across shard worker processes) and ``--timings`` (annotate
every response with its ``trace_id`` and a per-request latency
breakdown).  ``metrics dump`` renders the registry on demand in JSON or
Prometheus text format, or scrapes a live server with ``--scrape``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import signal
import sys
import threading
from pathlib import Path
from queue import SimpleQueue

from repro.api import QueryEngine
from repro.core import SemSim, SimRank
from repro.core.decay import decay_contraction_bound, decay_paper_bound
from repro.datasets import (
    aminer_like,
    amazon_like,
    figure1_network,
    wikipedia_like,
    wordnet_like,
)
from repro.datasets.io import load_bundle_json, save_bundle_json
from repro.errors import ConfigurationError, GraphError, InvalidWeightError
from repro.obs.export import render_json, render_prometheus
from repro.obs.http import MetricsServer
from repro.obs.logging import configure_logging
from repro.obs.trace import set_trace_writer
from repro.sched import Overloaded, ServingRuntime, ShardedRuntime
from repro.serve import (
    DeadlineExceeded,
    IndexManager,
    MutationRejectedError,
    RetryPolicy,
    ServeError,
)
from repro.store import StoreError, read_artifact

GENERATORS = {
    "aminer": aminer_like,
    "amazon": amazon_like,
    "wikipedia": wikipedia_like,
    "wordnet": wordnet_like,
}


def _cmd_demo(_args: argparse.Namespace) -> int:
    data = figure1_network()
    simrank = SimRank(data.graph, decay=0.8, max_iterations=3, tolerance=0.0)
    semsim = SemSim(data.graph, data.measure, decay=0.8, max_iterations=3, tolerance=0.0)
    print("Figure 1 — who is more similar to Aditi?")
    print(f"  SimRank: John={simrank.similarity('John', 'Aditi'):.4f} "
          f"Bo={simrank.similarity('Bo', 'Aditi'):.4f}  -> picks Bo")
    print(f"  SemSim:  John={semsim.similarity('John', 'Aditi'):.6f} "
          f"Bo={semsim.similarity('Bo', 'Aditi'):.6f}  -> picks John")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = GENERATORS[args.dataset]
    bundle = generator(seed=args.seed)
    save_bundle_json(bundle, args.out)
    print(f"wrote {bundle} -> {args.out}")
    return 0


def _load_bundle_or_fail(path: str):
    try:
        return load_bundle_json(path)
    except FileNotFoundError:
        print(f"error: bundle file not found: {path}", file=sys.stderr)
        raise SystemExit(2) from None


def _make_engine(args: argparse.Namespace, bundle=None) -> QueryEngine:
    """Build (or warm-start) the engine a query/topk invocation asked for.

    ``--index`` wins outright: the artifact is self-contained, so the
    bundle is not even read.  Otherwise the engine is built from the
    bundle, routed through ``--cache`` when given so a second invocation
    with the same inputs memory-maps instead of recomputing.
    """
    if args.index is not None:
        return QueryEngine.open(args.index)
    return QueryEngine(
        bundle.graph,
        bundle.measure,
        method=args.method,
        decay=args.decay,
        num_walks=args.walks,
        length=args.length,
        theta=args.theta,
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache,
        walks_path=args.walks_file,
    )


def _require_bundle_arg(args: argparse.Namespace) -> bool:
    if args.index is None and args.bundle is None:
        print("error: a bundle path is required unless --index is given",
              file=sys.stderr)
        return False
    return True


def _cmd_query(args: argparse.Namespace) -> int:
    if not _require_bundle_arg(args):
        return 2
    u, v = args.u, args.v
    if args.index is not None:
        engine = _make_engine(args)
        for node in (u, v):
            if node not in engine.graph:
                print(f"error: node {node!r} is not in the index", file=sys.stderr)
                return 2
        label = "semsim" if engine.measure is not None else "simrank"
        print(f"{label}({u}, {v})  = {engine.score(u, v):.6f}   "
              f"[{engine.method}, from index]")
        return 0
    bundle = _load_bundle_or_fail(args.bundle)
    for node in (u, v):
        if node not in bundle.graph:
            print(f"error: node {node!r} is not in the bundle", file=sys.stderr)
            return 2
    engine = _make_engine(args, bundle)
    value = engine.score(u, v)
    simrank = SimRank(bundle.graph, decay=args.decay)
    print(f"sem({u}, {v})     = {bundle.measure.similarity(u, v):.6f}")
    print(f"semsim({u}, {v})  = {value:.6f}   [{engine.method}]")
    print(f"simrank({u}, {v}) = {simrank.similarity(u, v):.6f}")
    return 0


def _cmd_topk(args: argparse.Namespace) -> int:
    if not _require_bundle_arg(args):
        return 2
    if args.index is not None:
        engine = _make_engine(args)
        candidates = None
    else:
        bundle = _load_bundle_or_fail(args.bundle)
        engine = _make_engine(args, bundle)
        candidates = bundle.entity_nodes
    if args.node not in engine.graph:
        where = "index" if args.index is not None else "bundle"
        print(f"error: node {args.node!r} is not in the {where}", file=sys.stderr)
        return 2
    results = engine.top_k(args.node, args.k, candidates=candidates)
    print(f"top-{args.k} most similar to {args.node}:")
    for node, score in results:
        print(f"  {node:<24} {score:.6f}")
    return 0


def _cmd_index_build(args: argparse.Namespace) -> int:
    bundle = _load_bundle_or_fail(args.bundle)
    engine = QueryEngine(
        bundle.graph,
        bundle.measure,
        method=args.method,
        decay=args.decay,
        num_walks=args.walks,
        length=args.length,
        theta=args.theta,
        seed=args.seed,
        workers=args.workers,
        materialize_semantics=True,
    )
    path = engine.save(args.out)
    manifest = json.loads((path / "manifest.json").read_text())
    total = sum(entry["nbytes"] for entry in manifest["arrays"].values())
    print(f"wrote engine artifact -> {path}")
    print(f"  method={engine.method} arrays={len(manifest['arrays'])} "
          f"bytes={total}")
    if args.walks_out is not None:
        engine.save_walks(args.walks_out)
        print(f"wrote walk tensor -> {args.walks_out}")
    return 0


def _cmd_index_info(args: argparse.Namespace) -> int:
    artifact = read_artifact(args.index, mmap=True)
    meta = artifact.meta
    params = meta.get("params", {})
    print(f"engine artifact at {artifact.path}")
    print(f"  key:    {artifact.manifest.get('key', '(unkeyed)')}")
    print(f"  method: {params.get('method', '?')}")
    print(f"  graph:  {meta.get('graph_nodes', '?')} nodes, "
          f"{meta.get('graph_edges', '?')} edges")
    print(f"  params: {json.dumps(params, sort_keys=True)}")
    print(f"  arrays ({artifact.nbytes} bytes):")
    for name, entry in sorted(artifact.manifest["arrays"].items()):
        print(f"    {name:<22} {entry['dtype']:<8} "
              f"{'x'.join(map(str, entry['shape'])):<16} {entry['nbytes']}")
    return 0


def _make_manager(args: argparse.Namespace) -> IndexManager:
    """Assemble the resilient engine owner a ``serve`` invocation asked for."""
    retry = RetryPolicy(max_retries=args.max_retries, seed=args.seed)
    if args.index is not None:
        return IndexManager(index_path=args.index, retry=retry)
    bundle = _load_bundle_or_fail(args.bundle)
    return IndexManager(
        bundle.graph,
        bundle.measure,
        walks_path=args.walks_file,
        cache_dir=args.cache,
        engine_kwargs=dict(
            method=args.method,
            decay=args.decay,
            num_walks=args.walks,
            length=args.length,
            theta=args.theta,
            seed=args.seed,
            workers=args.workers,
        ),
        retry=retry,
    )


#: Sentinel ending the serve printer thread's queue.
_SERVE_DONE = object()

#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: A server retires whole generations of multi-MiB arrays (the walk and
#: offset tensors, ``sem``/``SO`` and every swap's copies of them).  glibc's
#: dynamic mmap threshold rises each time such a mapped block is freed, so
#: later generations land in the heap and stay there after retirement.
#: Mapping every block of 4 MiB and up returns each one to the OS when it is
#: freed.  Fixing the mmap threshold also pins the trim threshold at its
#: 128 KiB default, which trims the heap after every burst of small
#: temporaries and costs reads; 64 MiB keeps them reusing heap pages.
_SERVE_MMAP_THRESHOLD = 4 << 20
_SERVE_TRIM_THRESHOLD = 64 << 20


def _release_retired_arrays_to_os() -> bool:
    """Set ``repro serve``'s allocator policy for this process.

    Returns whether libc accepted both settings; where libc has no
    ``mallopt`` (not glibc) nothing is changed and the answer is False.
    Forked shard workers inherit the policy.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return False
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    accepted = [
        mallopt(_M_MMAP_THRESHOLD, _SERVE_MMAP_THRESHOLD),
        mallopt(_M_TRIM_THRESHOLD, _SERVE_TRIM_THRESHOLD),
    ]
    return all(accepted)


def _serve_submit(runtime: ServingRuntime, line: str):
    """Turn one protocol line into a queue entry: a future or an error.

    Returns ``("future", Future)`` for admitted requests and
    ``("error", payload)`` for parse failures and admission rejections —
    either way the line gets exactly one response, in order.
    """
    parts = line.split()
    head = parts[0].upper()
    if head in ("UPDATE", "DELEDGE"):
        return _serve_mutate(runtime, head, parts, line)
    try:
        if head == "BATCH":
            if len(parts) < 3:
                return ("error", {
                    "error": f"expected 'BATCH u v1 [v2 ...]', got {line!r}"
                })
            return ("future", runtime.submit_batch(parts[1], parts[2:]))
        if head == "TOPK":
            if len(parts) < 3:
                return ("error", {
                    "error": f"expected 'TOPK u k [v1 ...]', got {line!r}"
                })
            try:
                k = int(parts[2])
            except ValueError:
                return ("error", {
                    "error": f"expected an integer k, got {parts[2]!r}"
                })
            candidates = parts[3:] or None
            return ("future", runtime.submit_topk(parts[1], k, candidates))
        if len(parts) != 2:
            return ("error", {"error": f"expected 'u v', got {line!r}"})
        return ("future", runtime.submit_score(parts[0], parts[1]))
    except Overloaded as exc:
        return ("error", {"error": str(exc), "kind": "overloaded"})
    except ServeError as exc:
        return ("error", {"error": str(exc), "kind": "unavailable"})


def _serve_mutate(runtime: ServingRuntime, head: str, parts: list, line: str):
    """Apply one ``UPDATE``/``DELEDGE`` line through the live-update path.

    Runs synchronously on the reader thread so the swap is published
    before any later line is even parsed — every request after a
    mutation line is guaranteed to be answered from the new generation.
    The rendered acknowledgement still flows through the printer queue,
    keeping the one-response-per-line ordering.
    """
    if head == "UPDATE":
        if len(parts) not in (3, 4):
            return ("error", {
                "error": f"expected 'UPDATE u v [weight]', got {line!r}"
            })
        mutation = ("add_edge", parts[1], parts[2])
        if len(parts) == 4:
            try:
                mutation = ("add_edge", parts[1], parts[2], float(parts[3]))
            except ValueError:
                return ("error", {
                    "error": f"expected a numeric weight, got {parts[3]!r}"
                })
    else:  # DELEDGE
        if len(parts) != 3:
            return ("error", {
                "error": f"expected 'DELEDGE u v', got {line!r}"
            })
        mutation = ("remove_edge", parts[1], parts[2])
    try:
        result = runtime.apply_mutations([mutation])
    except MutationRejectedError as exc:
        return ("error", {"error": str(exc), "kind": "unsupported"})
    except InvalidWeightError as exc:
        return ("error", {"error": str(exc), "kind": "bad_mutation"})
    except GraphError as exc:
        return ("error", {"error": str(exc), "kind": "not_found"})
    except ConfigurationError as exc:
        return ("error", {"error": str(exc), "kind": "bad_mutation"})
    except ServeError as exc:
        return ("error", {"error": str(exc), "kind": "unavailable"})
    except Exception as exc:  # noqa: BLE001 — persist faults must not kill the loop
        return ("error", {"error": str(exc), "kind": "persist_failed"})
    return ("mutation", {
        "mutated": True,
        "kind": mutation[0],
        "applied": result["applied"],
        "resampled": result["resampled"],
        "generation": result["generation"],
        "epoch": result["epoch"],
    })


def _serve_render(entry) -> dict:
    """Resolve one queue entry into its JSON payload (never raises)."""
    kind, payload = entry
    if kind in ("error", "mutation", "health"):
        return payload
    try:
        return payload.result().as_dict()
    except DeadlineExceeded as exc:
        return {"error": str(exc), "kind": "deadline"}
    except GraphError as exc:
        return {"error": str(exc), "kind": "not_found"}
    except Overloaded as exc:
        return {"error": str(exc), "kind": "overloaded"}
    except ServeError as exc:
        return {"error": str(exc), "kind": "unavailable"}
    except Exception as exc:  # noqa: BLE001 — the loop must survive anything
        return {"error": str(exc), "kind": "internal"}


def _cmd_serve(args: argparse.Namespace) -> int:
    """Concurrent line-protocol server on stdin/stdout.

    Protocol (one request per line, one JSON response per line, responses
    in request order): ``u v`` scores a pair, ``BATCH u v1 v2 ...`` scores
    a candidate set, ``TOPK u k [v1 v2 ...]`` runs a top-k search,
    ``UPDATE u v [weight]`` inserts or re-weights an edge and
    ``DELEDGE u v`` removes one (both answered with a mutation
    acknowledgement carrying the new generation and epoch), and
    ``HEALTH`` prints the serving health snapshot.  Mutations apply
    synchronously on the reader thread — walk rows touched by the change
    are incrementally re-stepped, the new generation is persisted to the
    cache store (when configured) and atomically swapped in — so every
    later line is answered from the mutated index, bit-identical to a
    cold rebuild of the mutated graph.  Under ``--shards`` mutations are
    rejected (``kind: unsupported``): shard workers serve immutable
    snapshots.  Requests are admitted
    into the scheduler's bounded queue (``--queue-depth``), coalesced into
    micro-batches (``--max-batch`` / ``--max-wait-us``) and answered by
    ``--workers`` threads; lines past the watermark get an ``overloaded``
    error response, never a crash.  Requests pipeline: keep writing lines
    without reading and responses stream back in order.

    With ``--shards N`` (requires ``--index``) the index's node axis is
    cut into N ranges, each served by a worker *process* that opens the
    same index — nothing is written beside it.  Scores and top-k stay
    bit-identical to the unsharded engine, and a failing shard degrades
    only its own key range (see docs/serving.md, "Multi-process
    sharding").

    A blank line, EOF, Ctrl-C, or SIGTERM ends the session gracefully:
    in-flight requests finish, every pending response is printed,
    observability outputs flush, and the exit code is 0.
    """
    if not _require_bundle_arg(args):
        return 2
    if args.shards and args.index is None:
        print("error: --shards requires --index (shard a prebuilt artifact "
              "with 'repro index build' first)", file=sys.stderr)
        return 2
    _release_retired_arrays_to_os()  # before any engine array exists
    manager = _make_manager(args)
    manager.acquire()  # activate eagerly so startup errors surface
    if args.shards:
        runtime: ServingRuntime = ShardedRuntime(
            manager,
            args.index,
            args.shards,
            deadline_ms=args.deadline_ms,
            workers=args.workers or 1,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            queue_depth=args.queue_depth,
            timings=args.timings,
        )
    else:
        runtime = ServingRuntime(
            manager,
            deadline_ms=args.deadline_ms,
            workers=args.workers or 1,
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            queue_depth=args.queue_depth,
            timings=args.timings,
        )
    metrics_server = None
    banner_extra = {}
    if args.metrics_port is not None:
        metrics_server = MetricsServer(
            render=_serve_metrics_renderer(runtime),
            health=runtime.health,
            port=args.metrics_port,
        ).start()
        # the resolved port leads the banner so scrape drivers can bind
        # port 0 and read the real one back
        banner_extra["metrics_port"] = metrics_server.port
    print(json.dumps({"ready": True, **banner_extra, **runtime.health()}),
          flush=True)

    # In-order pipelining: the printer thread blocks on the head entry's
    # future, so responses stream back in request order while later
    # requests are already queued, coalesced and executing.
    entries: SimpleQueue = SimpleQueue()

    def _printer() -> None:
        while True:
            entry = entries.get()
            if entry is _SERVE_DONE:
                return
            print(json.dumps(_serve_render(entry)), flush=True)

    printer = threading.Thread(
        target=_printer, name="repro-serve-printer", daemon=True
    )
    printer.start()

    # SIGTERM takes the same graceful path as Ctrl-C: process supervisors
    # (and the sharded runtime's own worker processes) see a clean drain
    # and exit 0 instead of a mid-request kill.
    def _on_sigterm(_signum, _frame):
        raise KeyboardInterrupt

    sigterm_installed = False
    previous_sigterm = None
    try:
        previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
        sigterm_installed = True
    except ValueError:  # not the main thread (embedded/test use) — skip
        pass
    try:
        for line in sys.stdin:
            line = line.strip()
            if not line:
                break
            if line.upper() == "HEALTH":
                # snapshot now, at the line's place in the stream: the
                # printer may reach this entry only after EOF has started
                # the drain and closed the runtime
                entries.put(("health", runtime.health()))
                continue
            entries.put(_serve_submit(runtime, line))
    except KeyboardInterrupt:
        pass  # graceful drain below; in-flight work still gets answered
    finally:
        if sigterm_installed:
            signal.signal(signal.SIGTERM, previous_sigterm)
        entries.put(_SERVE_DONE)
        runtime.drain()     # completes every admitted future
        printer.join()      # flushes every pending response, in order
        if metrics_server is not None:
            metrics_server.close()
        _flush_serve_metrics(args, runtime)
    return 0


def _serve_metrics_renderer(runtime: ServingRuntime):
    """The ``/metrics`` body producer for one serve runtime.

    Sharded runtimes render the merged view — the router's registry plus
    every worker's folded, ``shard``-labelled series, with fresh deltas
    pulled per scrape; unsharded runtimes render the live registry.
    """
    def _render(fmt: str) -> str:
        snapshot = (
            runtime.merged_snapshot()
            if isinstance(runtime, ShardedRuntime) else None
        )
        if fmt == "json":
            return render_json(snapshot=snapshot) + "\n"
        return render_prometheus(snapshot=snapshot)

    return _render


def _flush_serve_metrics(args: argparse.Namespace, runtime: ServingRuntime) -> None:
    """Serve owns its ``--metrics-out`` dump; the generic finalizer must not.

    Two reasons: the dump must be the *merged* view for a sharded runtime
    (the drain already pulled each worker's final delta), and ``-`` must
    route to **stderr** — serve's stdout is the protocol stream, and a
    JSON registry dump appended to it corrupts the last response a client
    reads.
    """
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is None:
        return
    args.metrics_out = None  # disarm _finalize_observability's dump
    snapshot = (
        runtime.merged_snapshot(pull=False)
        if isinstance(runtime, ShardedRuntime) else None
    )
    text = render_json(snapshot=snapshot) + "\n"
    if metrics_out == "-":
        sys.stderr.write(text)
    else:
        Path(metrics_out).write_text(text, encoding="utf-8")


def _cmd_metrics_dump(args: argparse.Namespace) -> int:
    if args.scrape is not None:
        import urllib.request

        url = f"http://{args.scrape}/metrics"
        if args.format == "json":
            url += "?format=json"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as response:
                text = response.read().decode("utf-8")
        except OSError as exc:
            print(f"error: scrape of {url} failed: {exc}", file=sys.stderr)
            return 2
    else:
        text = render_json() if args.format == "json" else render_prometheus()
    if not text.endswith("\n"):
        text += "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote metrics -> {args.out}")
    return 0


def _configure_observability(args: argparse.Namespace) -> None:
    """Arm the obs flags before the command runs (no-ops when absent)."""
    if getattr(args, "log_json", False):
        configure_logging(json_format=True)
    trace_out = getattr(args, "trace_out", None)
    if trace_out is not None:
        set_trace_writer(sys.stdout if trace_out == "-" else trace_out)


def _finalize_observability(args: argparse.Namespace) -> None:
    """Flush obs outputs after the command, even on error exits."""
    if getattr(args, "trace_out", None) is not None:
        set_trace_writer(None)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        text = render_json() + "\n"
        if metrics_out == "-":
            sys.stdout.write(text)
        else:
            Path(metrics_out).write_text(text, encoding="utf-8")


#: The two engine families, in docs order.  Kept as data so the CLI
#: listing and any future capability gating read from one place.
_ESTIMATOR_FAMILIES = (
    {
        "name": "iterative",
        "exactness": "exact (fixed point to tolerance)",
        "memory": "O(N^2) dense score table",
        "mutations": "no (rebuild)",
        "shards": "no",
        "note": "paper-exact oracle; all-pairs precompute, fastest lookups",
    },
    {
        "name": "mc",
        "exactness": "unbiased Monte Carlo estimate",
        "memory": "O(N * walks * length) walk tensor",
        "mutations": "yes (incremental walk maintenance)",
        "shards": "yes (node-range shard workers over the one index)",
        "note": "default serving family; supports walk reuse and sharding",
    },
)


def _cmd_estimators_list(_args: argparse.Namespace) -> int:
    """Enumerate engine families and their capability envelopes."""
    print("engine families (select with --method):")
    for family in _ESTIMATOR_FAMILIES:
        print(f"  {family['name']:<10} {family['note']}")
        print(f"      exactness: {family['exactness']}")
        print(f"      memory:    {family['memory']}")
        print(f"      mutations: {family['mutations']}   "
              f"shardable: {family['shards']}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    bundle = _load_bundle_or_fail(args.bundle)
    print(bundle)
    print(f"entity nodes: {len(bundle.entity_nodes)}")
    print(f"taxonomy max depth: {bundle.taxonomy.max_depth()}")
    print(f"decay bound (Thm 2.3(5), literal): "
          f"{decay_paper_bound(bundle.graph, bundle.measure):.4f}")
    print(f"decay bound (contraction):          "
          f"{decay_contraction_bound(bundle.graph, bundle.measure):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SemSim (EDBT 2019) reproduction toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="replay Figure 1 / Example 2.2").set_defaults(
        func=_cmd_demo
    )

    generate = commands.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("dataset", choices=sorted(GENERATORS))
    generate.add_argument("--out", required=True, help="output bundle JSON path")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=_cmd_generate)

    def add_engine_options(
        command: argparse.ArgumentParser,
        serving: bool = False,
        workers_help: str = (
            "threads for parallel walk-index construction (mc only)"
        ),
    ) -> None:
        command.add_argument(
            "--method", "--estimator", choices=["iterative", "mc"],
            default="iterative",
            help="engine family (see 'repro estimators list')",
        )
        command.add_argument("--decay", type=float, default=0.6)
        command.add_argument("--walks", type=int, default=150)
        command.add_argument("--length", type=int, default=15)
        command.add_argument("--theta", type=float, default=0.05)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--workers", type=int, default=None, help=workers_help,
        )
        if serving:
            command.add_argument(
                "--cache", default=None, metavar="DIR",
                help="content-addressed artifact store: warm-start on hit, "
                     "build-and-persist on miss",
            )
            command.add_argument(
                "--index", default=None, metavar="PATH",
                help="serve from a prebuilt 'repro index build' artifact "
                     "(bundle and engine options are ignored)",
            )
            command.add_argument(
                "--walks-file", default=None, metavar="PATH",
                help="load the walk tensor from a saved .npz instead of "
                     "sampling (mc only)",
            )

    def add_obs_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--log-json", action="store_true",
            help="emit structured JSON logs on stderr",
        )
        command.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="append JSON-lines span traces to PATH ('-' = stdout)",
        )
        command.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="after the command, dump the metrics registry as JSON "
                 "to PATH ('-' = stdout)",
        )

    query = commands.add_parser("query", help="score a single node pair")
    query.add_argument("bundle", nargs="?", default=None,
                       help="bundle JSON path (omit with --index)")
    query.add_argument("u")
    query.add_argument("v")
    add_engine_options(query, serving=True)
    add_obs_options(query)
    query.set_defaults(func=_cmd_query)

    topk = commands.add_parser("topk", help="top-k similarity search")
    topk.add_argument("bundle", nargs="?", default=None,
                      help="bundle JSON path (omit with --index)")
    topk.add_argument("node")
    topk.add_argument("-k", type=int, default=10)
    add_engine_options(topk, serving=True)
    add_obs_options(topk)
    topk.set_defaults(func=_cmd_topk)

    index = commands.add_parser(
        "index", help="build or inspect persistent engine artifacts"
    )
    index_commands = index.add_subparsers(dest="index_command", required=True)

    index_build = index_commands.add_parser(
        "build", help="preprocess a bundle into an engine artifact"
    )
    index_build.add_argument("bundle", help="bundle JSON path")
    index_build.add_argument("--out", required=True,
                             help="artifact directory to write")
    index_build.add_argument(
        "--walks-out", default=None, metavar="PATH",
        help="also save the walk tensor as a portable .npz (mc only)",
    )
    add_engine_options(index_build)
    add_obs_options(index_build)
    index_build.set_defaults(func=_cmd_index_build)

    index_info = index_commands.add_parser(
        "info", help="describe an engine artifact"
    )
    index_info.add_argument("index", help="artifact directory path")
    index_info.set_defaults(func=_cmd_index_info)

    serve = commands.add_parser(
        "serve", help="resilient stdin/stdout line-protocol query server"
    )
    serve.add_argument("bundle", nargs="?", default=None,
                       help="bundle JSON path (omit with --index)")
    serve.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline in milliseconds (default: none)",
    )
    serve.add_argument(
        "--max-retries", type=int, default=3, metavar="N",
        help="bounded retries for artifact/walk-tensor I/O (default: 3)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32, metavar="N",
        help="most requests one worker dispatches per micro-batch "
             "(default: 32)",
    )
    serve.add_argument(
        "--max-wait-us", type=float, default=200.0, metavar="US",
        help="how long a worker lingers for a micro-batch to fill, in "
             "microseconds (default: 200; 0 dispatches immediately)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=1024, metavar="N",
        help="admission watermark: requests submitted while this many "
             "are queued get an 'overloaded' response (default: 1024)",
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve from N node-range shard worker processes, each "
             "opening the --index artifact (required); default: 0 = "
             "in-process serving",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="N",
        help="serve /metrics (Prometheus, aggregated across shard worker "
             "processes) and /health on 127.0.0.1:N (0 = ephemeral port, "
             "printed in the ready banner; default: no endpoint)",
    )
    serve.add_argument(
        "--timings", action="store_true",
        help="annotate every response with its trace_id and a "
             "{queue_us, scatter_us, kernel_us, merge_us} latency "
             "breakdown (off by default: protocol output stays "
             "byte-stable)",
    )
    add_engine_options(
        serve, serving=True,
        workers_help="serving worker threads pulling micro-batches "
                     "(also used for parallel walk-index build; default: 1)",
    )
    add_obs_options(serve)
    serve.set_defaults(func=_cmd_serve)

    info = commands.add_parser("info", help="describe a saved bundle")
    info.add_argument("bundle", help="bundle JSON path")
    info.set_defaults(func=_cmd_info)

    estimators = commands.add_parser(
        "estimators", help="inspect the engine-family registry"
    )
    estimators_commands = estimators.add_subparsers(
        dest="estimators_command", required=True
    )
    estimators_list = estimators_commands.add_parser(
        "list", help="enumerate engine families and their capabilities"
    )
    estimators_list.set_defaults(func=_cmd_estimators_list)

    metrics = commands.add_parser(
        "metrics", help="inspect the in-process metrics registry"
    )
    metrics_commands = metrics.add_subparsers(dest="metrics_command", required=True)
    metrics_dump = metrics_commands.add_parser(
        "dump", help="render every registered metric family"
    )
    metrics_dump.add_argument(
        "--format", choices=["json", "prom"], default="json",
        help="JSON registry dump or Prometheus text exposition",
    )
    metrics_dump.add_argument(
        "--out", default="-", metavar="PATH",
        help="output path ('-' = stdout)",
    )
    metrics_dump.add_argument(
        "--scrape", default=None, metavar="HOST:PORT",
        help="fetch the rendering from a live 'repro serve "
             "--metrics-port' endpoint instead of this process's "
             "(empty) registry",
    )
    metrics_dump.set_defaults(func=_cmd_metrics_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _configure_observability(args)
    try:
        return args.func(args)
    except (ConfigurationError, GraphError, StoreError, ServeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    finally:
        _finalize_observability(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
