"""Batch query engine — vectorised single-source scoring vs per-pair loops.

Two baselines for the same 500-candidate single-source query:

* the **pre-facade loop** — ``MonteCarloSemSim(index, bundle.measure)``
  queried pair by pair, as every seed-era caller ran it: a lazy measure,
  so each call computes the ``sem`` cells and O(d²) ``SO`` sums its walks
  reach.  The ≥ 5× claim is against this path; the engine's
  auto-materialised semantic matrix, precomputed ``SO = W sem Wᵀ`` table
  and batched scoring all contribute.
* the **same-engine per-pair loop** — ``estimator.similarity`` in a loop
  on the engine's own estimator: one kernel call per pair against one
  call for all 500, over the same precomputed tables, so it isolates
  batching.  It must be *bit-identical* to ``score_batch``.

Also reports parallel walk-index construction: sharded building across a
thread pool, bit-identical to the serial build for the same seed (per-node
seed spawning makes the walk tensor partition-invariant).

The backend-kernel bench compares the library kernel ``blocked``
against the stacked-array oracle on the same shared walk index and
asserts the scores are bit-identical, on two request shapes: one source
against 500 candidates, and pair-hot's batches of 32 pairs with one
source per pair.  The oracle lives with the tests
(``tests/backends/numpy_ref.py``) and is passed to its engine as an
instance.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import QueryEngine
from repro.core import MonteCarloSemSim, WalkIndex
from repro.datasets import aminer_like

from tests.backends.numpy_ref import NumpyBackend

DECAY = 0.6
THETA = 0.05
NUM_WALKS = 150
LENGTH = 15
NUM_CANDIDATES = 500
SPEEDUP_FLOOR = 5.0
PAIR_BATCH = 32
PAIR_BATCHES = 50


@pytest.fixture(scope="module")
def bundle():
    # sized so the graph comfortably holds a 500-candidate query
    return aminer_like(num_authors=300, num_terms=150, seed=11)


def test_batch_single_source_speedup(bundle, show):
    engine = QueryEngine(
        bundle.graph, bundle.measure, method="mc", decay=DECAY,
        num_walks=NUM_WALKS, length=LENGTH, theta=THETA, seed=7,
    )
    estimator = engine.estimator
    nodes = list(bundle.graph.nodes())
    assert len(nodes) > NUM_CANDIDATES
    query = bundle.entity_nodes[0]
    candidates = [n for n in nodes if n != query][:NUM_CANDIDATES]

    # seed-era baseline: same walk index, lazy measure, per-pair loop
    legacy = MonteCarloSemSim(
        engine.walk_index, bundle.measure, decay=DECAY, theta=THETA
    )

    # warm-up: the engine's one-time derived tables (SO matrix, per-step
    # W/Q) belong to index construction, not query latency — build them
    # outside the timed window, then reset the counters.
    engine.score_batch(query, candidates[:2])
    estimator.similarity(query, candidates[0])
    legacy.similarity(query, candidates[0])
    engine.reset_stats()

    start = time.perf_counter()
    batch = engine.score_batch(query, candidates)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = np.array([estimator.similarity(query, v) for v in candidates])
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    lazy = np.array([legacy.similarity(query, v) for v in candidates])
    legacy_seconds = time.perf_counter() - start

    # identical scores: bitwise against the engine's own per-pair calls, and
    # to float precision against the lazy baseline (whose SO sums
    # accumulate in a different order).
    np.testing.assert_array_equal(batch, scalar)
    np.testing.assert_allclose(batch, lazy, rtol=0, atol=1e-12)

    speedup_legacy = legacy_seconds / batch_seconds
    speedup_scalar = scalar_seconds / batch_seconds

    lines = [
        "Batch query engine — 500-candidate single-source query",
        f"graph: aminer-like, {bundle.graph.num_nodes} nodes "
        f"(n_w={NUM_WALKS}, t={LENGTH}, c={DECAY}, theta={THETA})",
        "",
        f"{'path':<34} {'seconds':>10} {'per pair (us)':>14}",
        f"{'pre-facade per-pair loop':<34} {legacy_seconds:>10.4f} "
        f"{1e6 * legacy_seconds / NUM_CANDIDATES:>14.1f}",
        f"{'same-engine similarity() loop':<34} {scalar_seconds:>10.4f} "
        f"{1e6 * scalar_seconds / NUM_CANDIDATES:>14.1f}",
        f"{'vectorised score_batch':<34} {batch_seconds:>10.4f} "
        f"{1e6 * batch_seconds / NUM_CANDIDATES:>14.1f}",
        "",
        f"speedup vs pre-facade loop:   {speedup_legacy:.1f}x   "
        f"(floor: {SPEEDUP_FLOOR:.0f}x)",
        f"speedup vs same-engine loop:  {speedup_scalar:.1f}x   "
        "(bit-identical scores)",
        f"agreement vs pre-facade loop: max |diff| = "
        f"{np.max(np.abs(batch - lazy)):.2e}",
        f"stats: {estimator.stats}",
    ]
    show("batch_queries", lines)
    assert speedup_legacy >= SPEEDUP_FLOOR


def _pair_batches(bundle, engine):
    """pair-hot's request shape: batches of 32 pairs, one source per pair.

    Each source is a uniform entity and its candidate a uniform pick among
    that source's 40 highest-``sem`` entities (ties broken at random).
    """
    rng = np.random.default_rng(2701)
    entities = engine.node_positions(bundle.entity_nodes)
    sem = engine.measure.matrix
    batches = []
    for _ in range(PAIR_BATCHES):
        sources = rng.choice(entities, size=PAIR_BATCH)
        targets = []
        for u in sources:
            order = np.lexsort((rng.random(entities.size), -sem[u, entities]))
            partners = entities[order[:41]]
            targets.append(rng.choice(partners[partners != u][:40]))
        batches.append((sources, np.array(targets, dtype=np.int64)))
    return batches


@pytest.mark.parametrize("shape", ["shared-source", "pair-batches"])
def test_backend_kernel_speedup(bundle, show, bench_backend, shape):
    """The library kernel vs the stacked-array oracle on one walk index.

    Two request shapes: one source against 500 candidates (a top-k scan's
    block), and pair-hot's micro-batches of 32 pairs with one source per
    pair, timed over a fixed list of batches.
    """
    compare = bench_backend
    reference = QueryEngine(
        bundle.graph, bundle.measure, method="mc", decay=DECAY,
        num_walks=NUM_WALKS, length=LENGTH, theta=THETA, seed=7,
        backend=NumpyBackend(),
    )
    candidate = QueryEngine(
        bundle.graph, bundle.measure, method="mc", decay=DECAY,
        num_walks=NUM_WALKS, length=LENGTH, theta=THETA, seed=7,
    )
    if shape == "shared-source":
        nodes = list(bundle.graph.nodes())
        query = reference.node_positions([bundle.entity_nodes[0]])[0]
        candidates = reference.node_positions(
            [n for n in nodes if n != bundle.entity_nodes[0]][:NUM_CANDIDATES]
        )
        requests = [(query, candidates)]
        described = f"{NUM_CANDIDATES} candidates of one source"
    else:
        requests = _pair_batches(bundle, candidate)
        described = (
            f"{PAIR_BATCHES} batches of {PAIR_BATCH} pairs, "
            "one source per pair"
        )
    pairs = sum(positions.size for _, positions in requests)

    def run(engine):
        return [engine.score_positions(u, v) for u, v in requests]

    # warm-up builds the derived tables
    run(reference)
    run(candidate)

    # interleaved best-of-N: alternating the two paths inside one loop
    # cancels drift (frequency scaling, allocator state) that a
    # back-to-back pair of timing loops would fold into the ratio
    best_ref = best_cand = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        expected = run(reference)
        best_ref = min(best_ref, time.perf_counter() - start)
        start = time.perf_counter()
        got = run(candidate)
        best_cand = min(best_cand, time.perf_counter() - start)

    np.testing.assert_array_equal(np.concatenate(expected), np.concatenate(got))
    agreement = "bit-identical"

    speedup = best_ref / best_cand
    lines = [
        f"Compute-backend kernels — '{compare}' vs the 'numpy' oracle",
        f"graph: aminer-like, {bundle.graph.num_nodes} nodes "
        f"(n_w={NUM_WALKS}, t={LENGTH}, c={DECAY}, theta={THETA}, "
        f"{described}, best of 7)",
        "",
        f"{'backend':<12} {'seconds':>10} {'per pair (us)':>14}",
        f"{'numpy':<12} {best_ref:>10.4f} "
        f"{1e6 * best_ref / pairs:>14.1f}",
        f"{compare:<12} {best_cand:>10.4f} "
        f"{1e6 * best_cand / pairs:>14.1f}",
        "",
        f"speedup: {speedup:.2f}x   scores: {agreement}",
    ]
    name = "batch_queries_backend"
    show(name if shape == "shared-source" else f"{name}_pairs", lines)
    # the library kernel must beat the stacked form it replaced
    assert speedup > 1.0


def test_parallel_index_construction(bundle, show):
    start = time.perf_counter()
    serial = WalkIndex(
        bundle.graph, num_walks=NUM_WALKS, length=LENGTH, seed=7
    )
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = WalkIndex(
        bundle.graph, num_walks=NUM_WALKS, length=LENGTH, seed=7, workers=4
    )
    parallel_seconds = time.perf_counter() - start

    np.testing.assert_array_equal(serial.walks, parallel.walks)

    lines = [
        "Parallel walk-index construction (4 workers vs serial)",
        f"graph: aminer-like, {bundle.graph.num_nodes} nodes "
        f"(n_w={NUM_WALKS}, t={LENGTH})",
        "",
        f"{'build':<12} {'seconds':>10}",
        f"{'serial':<12} {serial_seconds:>10.4f}",
        f"{'4 workers':<12} {parallel_seconds:>10.4f}",
        "",
        f"ratio: {serial_seconds / parallel_seconds:.2f}x",
        "walk tensors: bit-identical (per-node seed spawning)",
    ]
    show("batch_queries_parallel_index", lines)
