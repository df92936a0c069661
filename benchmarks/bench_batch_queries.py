"""Batch query engine — vectorised single-source scoring vs per-pair loops.

Two baselines for the same 500-candidate single-source query:

* the **pre-facade loop** — ``MonteCarloSemSim(index, bundle.measure)``
  queried pair by pair, exactly how every seed-era caller ran it (lazy
  measure, per-step O(d²) SO sums).  The ISSUE's ≥ 5× claim is against
  this path; the engine's auto-materialised semantic matrix, precomputed
  ``SO = W sem Wᵀ`` table and stacked-array scoring all contribute.
* the **same-engine scalar loop** — ``estimator.similarity`` in a loop on
  the engine's own estimator.  This isolates the vectorisation itself
  (both paths share the precomputed tables) and must be *bit-identical*
  to ``score_batch``.

Also reports parallel walk-index construction: sharded building across a
thread pool, bit-identical to the serial build for the same seed (per-node
seed spawning makes the walk tensor partition-invariant).

``--backend`` adds the compute-backend axis: the backend-kernel bench
compares the selected backend (default: the session's resolved backend,
the library kernel ``blocked``) against the stacked-array oracle on the
same shared walk index, asserting the backend's declared equivalence
contract on the scores.  The oracle lives with the tests
(``tests/backends/numpy_ref.py``) and registers itself as ``numpy`` when
this module imports it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import QueryEngine
from repro.core import MonteCarloSemSim, WalkIndex
from repro.datasets import aminer_like

import tests.backends.numpy_ref  # noqa: F401 — registers the "numpy" oracle

DECAY = 0.6
THETA = 0.05
NUM_WALKS = 150
LENGTH = 15
NUM_CANDIDATES = 500
SPEEDUP_FLOOR = 5.0


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

    # identical scores: bitwise against the engine's own scalar path, and
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


def test_backend_kernel_speedup(bundle, show, bench_backend):
    """Selected backend vs the stacked-array oracle on one shared walk index."""
    from repro.backends import DEFAULT_BACKEND, get_backend

    compare = bench_backend if bench_backend != "numpy" else DEFAULT_BACKEND
    reference = QueryEngine(
        bundle.graph, bundle.measure, method="mc", decay=DECAY,
        num_walks=NUM_WALKS, length=LENGTH, theta=THETA, seed=7,
        backend="numpy",
    )
    candidate = QueryEngine(
        bundle.graph, bundle.measure, method="mc", decay=DECAY,
        num_walks=NUM_WALKS, length=LENGTH, theta=THETA, seed=7,
        backend=compare,
    )
    nodes = list(bundle.graph.nodes())
    query = bundle.entity_nodes[0]
    candidates = [n for n in nodes if n != query][:NUM_CANDIDATES]

    # warm-up builds the derived tables and any per-thread scratch
    reference.score_batch(query, candidates[:2])
    candidate.score_batch(query, candidates[:2])

    # interleaved best-of-N: alternating the two paths inside one loop
    # cancels drift (frequency scaling, allocator state) that a
    # back-to-back pair of timing loops would fold into the ratio
    best_ref = best_cand = float("inf")
    for _ in range(7):
        start = time.perf_counter()
        expected = reference.score_batch(query, candidates)
        best_ref = min(best_ref, time.perf_counter() - start)
        start = time.perf_counter()
        got = candidate.score_batch(query, candidates)
        best_cand = min(best_cand, time.perf_counter() - start)

    info = get_backend(compare)
    if info.exact:
        np.testing.assert_array_equal(expected, got)
        agreement = "bit-identical"
    else:
        np.testing.assert_allclose(expected, got, rtol=0, atol=info.tolerance)
        agreement = f"|diff| <= {info.tolerance:g} (declared tolerance)"

    speedup = best_ref / best_cand
    lines = [
        f"Compute-backend kernels — '{compare}' vs the 'numpy' oracle",
        f"graph: aminer-like, {bundle.graph.num_nodes} nodes "
        f"(n_w={NUM_WALKS}, t={LENGTH}, c={DECAY}, theta={THETA}, "
        f"{NUM_CANDIDATES} candidates, best of 7)",
        "",
        f"{'backend':<12} {'seconds':>10} {'per pair (us)':>14}",
        f"{'numpy':<12} {best_ref:>10.4f} "
        f"{1e6 * best_ref / NUM_CANDIDATES:>14.1f}",
        f"{compare:<12} {best_cand:>10.4f} "
        f"{1e6 * best_cand / NUM_CANDIDATES:>14.1f}",
        "",
        f"speedup: {speedup:.2f}x   scores: {agreement}",
    ]
    show("batch_queries_backend", lines)
    if compare == "blocked":
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
