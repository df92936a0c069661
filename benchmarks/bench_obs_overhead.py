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
observability cost.  Medians over alternating rounds of calls flipped on
scheduler noise (a few percent either way between same-code runs), so
both legs time every call in both modes back to back, alternate which
mode goes first, and take the median of the paired differences.  GC
stays off during the timed calls (a collection lands on whichever mode
happens to allocate past the threshold).
"""

from __future__ import annotations

import gc
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


def _paired_samples(call, count: int) -> tuple[list[float], list[float]]:
    """*count* timings of *call* with recording on and paused, paired.

    Each call runs in both modes back to back, so drift and cache churn
    hit the two halves of a paired difference equally; alternating which
    mode goes first cancels the advantage of running second.
    """
    perf = time.perf_counter

    def timed() -> float:
        start = perf()
        call()
        return perf() - start

    on_samples: list[float] = []
    off_samples: list[float] = []
    gc.collect()
    gc.disable()
    try:
        for i in range(count):
            if i % 2:
                with disabled():
                    off_samples.append(timed())
                on_samples.append(timed())
            else:
                on_samples.append(timed())
                with disabled():
                    off_samples.append(timed())
    finally:
        gc.enable()
    return on_samples, off_samples


def _overhead(on_samples, off_samples) -> tuple[float, float, float]:
    """``(median on, median paused, median paired difference / median paused)``."""
    off_median = statistics.median(off_samples)
    cost = statistics.median(on - off for on, off in zip(on_samples, off_samples))
    return statistics.median(on_samples), off_median, cost / off_median


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

    batches = ROUNDS * BATCHES_PER_ROUND
    before = get_registry().snapshot()
    on_samples, off_samples = _paired_samples(
        lambda: engine.score_batch(query, candidates), batches
    )
    delta = snapshot_delta(before, get_registry().snapshot())
    on_median, off_median, overhead = _overhead(on_samples, off_samples)

    recorded = delta["histograms"]["query_latency_seconds"
                                   '{method="mc",mode="batch"}_count']
    lines = [
        "Observability overhead — batch serving path, metrics on vs paused",
        f"graph: aminer-like, {bundle.graph.num_nodes} nodes "
        f"(n_w={NUM_WALKS}, t={LENGTH}, c={DECAY}, theta={THETA})",
        f"workload: {batches} score_batch calls per mode, "
        f"{NUM_CANDIDATES} candidates each, each timed in both modes back "
        "to back (order alternated)",
        "",
        f"{'mode':<26} {'median per batch (us)':>22}",
        f"{'recording enabled':<26} {1e6 * on_median:>22.1f}",
        f"{'recording paused':<26} {1e6 * off_median:>22.1f}",
        "",
        f"overhead (median paired diff / paused): {100 * overhead:+.2f}%   "
        f"(ceiling: {100 * OVERHEAD_CEILING:.0f}%)",
        f"queries recorded while enabled: {recorded:.0f} of {batches} "
        "enabled calls (paused calls are invisible, as intended)",
    ]
    show("obs_overhead", lines)

    # exactly the enabled calls recorded; the paused ones left no trace
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
    from repro.serve import IndexManager

    engine = QueryEngine(
        bundle.graph, bundle.measure, method="mc", decay=DECAY,
        num_walks=NUM_WALKS, length=LENGTH, theta=THETA, seed=7,
    )
    root = tmp_path_factory.mktemp("obs-sharded")
    parent = root / "parent"
    engine.save(parent)
    manager = IndexManager(
        bundle.graph, bundle.measure,
        engine_kwargs=dict(
            method="mc", decay=DECAY, num_walks=NUM_WALKS,
            length=LENGTH, theta=THETA, seed=7,
        ),
    )
    nodes = list(bundle.graph.nodes())
    query = bundle.entity_nodes[0]
    candidates = [n for n in nodes if n != query][:NUM_CANDIDATES]

    runtime = ShardedRuntime(
        manager, parent, 2,
        worker_factory=ThreadShardWorker,
        stats_interval=None,  # scrape-driven pulls aren't part of the path
        max_wait_us=0.0,
        timings=True,
    )

    def request() -> None:
        runtime.submit_batch(query, candidates).result(timeout=60)

    requests = SHARDED_ROUNDS * SHARDED_BATCHES_PER_ROUND
    try:
        # warm-up both paths (shard engines, histogram children)
        request()
        with disabled():
            request()
        on_samples, off_samples = _paired_samples(request, requests)
    finally:
        runtime.close(drain=True, timeout=30)
    on_median, off_median, overhead = _overhead(on_samples, off_samples)

    lines = [
        "Observability overhead — 2-shard scatter-gather, metrics on vs paused",
        f"graph: aminer-like, {bundle.graph.num_nodes} nodes "
        f"(n_w={NUM_WALKS}, t={LENGTH}, c={DECAY}, theta={THETA})",
        f"workload: {requests} submit_batch round-trips per mode, "
        f"{NUM_CANDIDATES} candidates, each timed in both modes back to "
        "back (order alternated), trace ids + timings annotations active "
        "in both modes",
        "",
        f"{'mode':<26} {'median per request (us)':>24}",
        f"{'recording enabled':<26} {1e6 * on_median:>24.1f}",
        f"{'recording paused':<26} {1e6 * off_median:>24.1f}",
        "",
        f"overhead (median paired diff / paused): {100 * overhead:+.2f}%   "
        f"(ceiling: {100 * OVERHEAD_CEILING:.0f}%)",
    ]
    show("obs_overhead_sharded", lines)

    assert overhead <= OVERHEAD_CEILING
