"""Instrumentation overhead — the serving path with metrics on vs paused.

The observability layer claims to be cheap enough to leave on in serving:
every hot-path record is one ``is_enabled()`` check plus a lock-guarded
add, and the per-query work (histogram observe, a handful of counter adds)
is constant per call.  This bench measures exactly that margin on the
``bench_batch_queries.py`` workload — repeated 500-candidate single-source
``score_batch`` calls — by timing the same engine with recording enabled
and with :func:`repro.obs.registry.set_enabled` paused.

Both modes run the identical code path (the instrumentation stays in
place; only the recording is gated), so the difference *is* the
observability cost.  Medians over several alternating rounds keep the
comparison robust to scheduler noise.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.api import QueryEngine
from repro.core import MonteCarloSemSim  # noqa: F401 — registers families
from repro.datasets import aminer_like
from repro.obs.registry import disabled, get_registry, snapshot_delta

DECAY = 0.6
THETA = 0.05
NUM_WALKS = 150
LENGTH = 15
NUM_CANDIDATES = 500
BATCHES_PER_ROUND = 40
ROUNDS = 7
OVERHEAD_CEILING = 0.03  # the ISSUE's acceptance bound: <= 3%


@pytest.fixture(scope="module")
def bundle():
    return aminer_like(num_authors=300, num_terms=150, seed=11)


def _run_batches(engine, query, candidates) -> float:
    start = time.perf_counter()
    for _ in range(BATCHES_PER_ROUND):
        engine.score_batch(query, candidates)
    return time.perf_counter() - start


def test_instrumentation_overhead_under_ceiling(bundle, show):
    engine = QueryEngine(
        bundle.graph, bundle.measure, method="mc", decay=DECAY,
        num_walks=NUM_WALKS, length=LENGTH, theta=THETA, seed=7,
    )
    nodes = list(bundle.graph.nodes())
    query = bundle.entity_nodes[0]
    candidates = [n for n in nodes if n != query][:NUM_CANDIDATES]

    # warm-up both paths (derived tables, histogram children, caches)
    engine.score_batch(query, candidates)
    with disabled():
        engine.score_batch(query, candidates)

    on_seconds: list[float] = []
    off_seconds: list[float] = []
    before = get_registry().snapshot()
    for _ in range(ROUNDS):  # alternate so drift hits both modes equally
        on_seconds.append(_run_batches(engine, query, candidates))
        with disabled():
            off_seconds.append(_run_batches(engine, query, candidates))
    delta = snapshot_delta(before, get_registry().snapshot())

    on_median = statistics.median(on_seconds)
    off_median = statistics.median(off_seconds)
    overhead = on_median / off_median - 1.0

    batches = ROUNDS * BATCHES_PER_ROUND
    recorded = delta["histograms"]["query_latency_seconds"
                                   '{method="mc",mode="batch"}_count']
    lines = [
        "Observability overhead — batch serving path, metrics on vs paused",
        f"graph: aminer-like, {bundle.graph.num_nodes} nodes "
        f"(n_w={NUM_WALKS}, t={LENGTH}, c={DECAY}, theta={THETA})",
        f"workload: {ROUNDS} x {BATCHES_PER_ROUND} score_batch calls, "
        f"{NUM_CANDIDATES} candidates each, modes alternated per round",
        "",
        f"{'mode':<26} {'median s/round':>15} {'per batch (us)':>15}",
        f"{'recording enabled':<26} {on_median:>15.4f} "
        f"{1e6 * on_median / BATCHES_PER_ROUND:>15.1f}",
        f"{'recording paused':<26} {off_median:>15.4f} "
        f"{1e6 * off_median / BATCHES_PER_ROUND:>15.1f}",
        "",
        f"overhead: {100 * overhead:+.2f}%   "
        f"(ceiling: {100 * OVERHEAD_CEILING:.0f}%)",
        f"queries recorded while enabled: {recorded:.0f} of {batches} "
        "enabled calls (paused rounds are invisible, as intended)",
    ]
    show("obs_overhead", lines)

    # exactly the enabled rounds recorded; the paused ones left no trace
    assert recorded == batches
    assert overhead <= OVERHEAD_CEILING


SHARDED_BATCHES_PER_ROUND = 20
SHARDED_ROUNDS = 5


def test_sharded_instrumentation_overhead_under_ceiling(
    bundle, tmp_path_factory, show
):
    """The distributed plane on the scatter-gather path stays under 3%.

    Same on-vs-paused comparison as above, but through a 2-shard
    :class:`ShardedRuntime` with ``--timings`` semantics active: every
    request mints a trace id, carries it through the scatter, and (when
    recording is on) feeds the router's queue/scatter/kernel histograms.
    Workers run on in-process threads so the margin is the observability
    work itself, not process-spawn or pipe noise.
    """
    from repro.sched import ShardedRuntime, ThreadShardWorker
    from repro.serve import IndexManager, QueryService

    engine = QueryEngine(
        bundle.graph, bundle.measure, method="mc", decay=DECAY,
        num_walks=NUM_WALKS, length=LENGTH, theta=THETA, seed=7,
    )
    root = tmp_path_factory.mktemp("obs-sharded")
    parent = root / "parent"
    engine.save(parent)
    service = QueryService(IndexManager(
        bundle.graph, bundle.measure,
        engine_kwargs=dict(
            method="mc", decay=DECAY, num_walks=NUM_WALKS,
            length=LENGTH, theta=THETA, seed=7,
        ),
    ))
    nodes = list(bundle.graph.nodes())
    query = bundle.entity_nodes[0]
    candidates = [n for n in nodes if n != query][:NUM_CANDIDATES]

    runtime = ShardedRuntime(
        service, parent, 2,
        worker_factory=ThreadShardWorker,
        stats_interval=None,  # scrape-driven pulls aren't part of the path
        max_wait_us=0.0,
        timings=True,
    )

    def run_round() -> float:
        start = time.perf_counter()
        for _ in range(SHARDED_BATCHES_PER_ROUND):
            runtime.submit_batch(query, candidates).result(timeout=60)
        return time.perf_counter() - start

    try:
        # warm-up both paths (shard engines, histogram children)
        runtime.submit_batch(query, candidates).result(timeout=60)
        with disabled():
            runtime.submit_batch(query, candidates).result(timeout=60)

        on_seconds: list[float] = []
        off_seconds: list[float] = []
        for _ in range(SHARDED_ROUNDS):
            on_seconds.append(run_round())
            with disabled():
                off_seconds.append(run_round())
    finally:
        runtime.close(drain=True, timeout=30)

    on_median = statistics.median(on_seconds)
    off_median = statistics.median(off_seconds)
    overhead = on_median / off_median - 1.0

    lines = [
        "Observability overhead — 2-shard scatter-gather, metrics on vs paused",
        f"graph: aminer-like, {bundle.graph.num_nodes} nodes "
        f"(n_w={NUM_WALKS}, t={LENGTH}, c={DECAY}, theta={THETA})",
        f"workload: {SHARDED_ROUNDS} x {SHARDED_BATCHES_PER_ROUND} "
        f"submit_batch round-trips, {NUM_CANDIDATES} candidates, "
        "trace ids + timings annotations active in both modes",
        "",
        f"{'mode':<26} {'median s/round':>15} {'per batch (us)':>15}",
        f"{'recording enabled':<26} {on_median:>15.4f} "
        f"{1e6 * on_median / SHARDED_BATCHES_PER_ROUND:>15.1f}",
        f"{'recording paused':<26} {off_median:>15.4f} "
        f"{1e6 * off_median / SHARDED_BATCHES_PER_ROUND:>15.1f}",
        "",
        f"overhead: {100 * overhead:+.2f}%   "
        f"(ceiling: {100 * OVERHEAD_CEILING:.0f}%)",
    ]
    show("obs_overhead_sharded", lines)

    assert overhead <= OVERHEAD_CEILING
