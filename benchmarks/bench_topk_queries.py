"""Top-k / single-source query performance (Section 7 direction).

Quantifies the two query-layer optimisations this library ships on top of
the paper's estimators:

* the Prop. 2.5 **semantic-bound scan** in :func:`top_k_similar` — visiting
  candidates in decreasing ``sem`` order lets the search stop early, saving
  estimator evaluations without changing the result;
* the vectorised **single-source** coupling of
  :meth:`~repro.core.montecarlo.MonteCarloSemSim.similarity_batch` versus
  per-pair queries.
"""

from __future__ import annotations

import time

import pytest

from repro.core import MonteCarloSemSim, WalkIndex, top_k_similar

from _shared import fmt_row

DECAY = 0.6
K = 10


class CountingOracle:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, u, v):
        self.calls += 1
        return self.inner.similarity(u, v)


def test_topk_semantic_bound_saves_evaluations(benchmark, show, amazon_small):
    bundle = amazon_small
    index = WalkIndex(bundle.graph, num_walks=100, length=12, seed=3)
    estimator = MonteCarloSemSim(index, bundle.measure, decay=DECAY, theta=0.05)
    queries = bundle.entity_nodes[:10]

    stats = {}

    def run():
        for use_bound in (False, True):
            calls = 0
            start = time.perf_counter()
            results = {}
            for query in queries:
                oracle = CountingOracle(estimator)
                results[query] = top_k_similar(
                    query, bundle.entity_nodes, K, oracle,
                    measure=bundle.measure if use_bound else None,
                )
                calls += oracle.calls
            stats[use_bound] = (calls, time.perf_counter() - start, results)
        return stats

    benchmark.pedantic(run, rounds=1, iterations=1)

    unbounded_calls, unbounded_time, unbounded_results = stats[False]
    bounded_calls, bounded_time, bounded_results = stats[True]
    lines = [
        "=== Top-k queries — Prop. 2.5 semantic-bound candidate pruning ===",
        f"{len(queries)} top-{K} queries over {len(bundle.entity_nodes)} candidates",
        "",
        fmt_row("", ["est. calls", "seconds"], width=14),
        fmt_row("full scan", [unbounded_calls, unbounded_time], width=14),
        fmt_row("semantic bound", [bounded_calls, bounded_time], width=14),
        "",
        f"saved {1 - bounded_calls / unbounded_calls:.0%} of estimator calls",
    ]
    show("topk_semantic_bound", lines)

    assert bounded_calls < unbounded_calls
    # The bound is admissible: identical result sets.
    for query in queries:
        assert [n for n, _ in bounded_results[query]] == [
            n for n, _ in unbounded_results[query]
        ]


def test_single_source_matches_per_pair(benchmark, show, amazon_small):
    bundle = amazon_small
    index = WalkIndex(bundle.graph, num_walks=100, length=12, seed=3)
    estimator = MonteCarloSemSim(index, bundle.measure, decay=DECAY, theta=0.05)
    query = bundle.entity_nodes[0]
    candidates = bundle.entity_nodes[:120]

    values = benchmark.pedantic(
        estimator.similarity_batch, args=(query, candidates), rounds=1,
        iterations=1,
    )
    scores = dict(zip(candidates, values.tolist()))

    start = time.perf_counter()
    reference = {c: estimator.similarity(query, c) for c in candidates}
    per_pair_time = time.perf_counter() - start

    lines = [
        "=== Single-source queries — vectorised coupling vs per-pair ===",
        f"{len(candidates)} candidates from one source "
        f"(per-pair loop: {per_pair_time:.3f}s)",
        "identical results asserted",
    ]
    show("single_source", lines)

    for candidate in candidates:
        assert scores[candidate] == pytest.approx(reference[candidate], abs=1e-12)
