"""Section 5.2 "Preprocessing" — offline costs of the MC framework.

Paper's numbers (at its scale): walk sampling ≈ 2.5 min, taxonomy
processing for constant-time Lin < 10 min, walk-index storage 5-9 MB plus
the Lin structures.  Here we report the same cost breakdown at our scale
and verify the claims that matter structurally: preprocessing is linear-ish
in the graph, Lin queries are O(1) after it, and index storage follows
``O(n * n_w * t)``.
"""

from __future__ import annotations

import time

import pytest

from repro.core import WalkIndex
from repro.semantics import LinMeasure
from repro.taxonomy import seco_information_content

from _shared import fmt_row


def test_preprocessing_walk_index(benchmark, show, amazon_small):
    bundle = amazon_small

    index = benchmark(
        WalkIndex, bundle.graph, num_walks=150, length=15, seed=0
    )

    lines = [
        f"=== Preprocessing — walk index on {bundle.name} "
        f"(|V|={bundle.graph.num_nodes}) ===",
        f"entries (n * n_w * (t+1)): {index.storage_entries}",
        f"storage (walks + step offsets): {index.storage_bytes / 1024:.1f} KiB",
    ]
    show("preprocessing_walk_index", lines)

    assert index.storage_entries == bundle.graph.num_nodes * 150 * 16


def test_preprocessing_lin_structures(benchmark, show, amazon_small):
    bundle = amazon_small

    def build():
        ic = seco_information_content(bundle.taxonomy)
        return LinMeasure(bundle.taxonomy, ic=ic)

    measure = benchmark(build)

    # Constant-time claim: per-query cost must not grow with repetitions
    # (the memo + LCA structures absorb everything after the first touch).
    entities = bundle.entity_nodes
    start = time.perf_counter()
    for i in range(200):
        measure.similarity(entities[i % 50], entities[(i * 7 + 1) % 50])
    cold = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(200):
        measure.similarity(entities[i % 50], entities[(i * 7 + 1) % 50])
    warm = time.perf_counter() - start

    lines = [
        "=== Preprocessing — Lin semantic structures ===",
        f"taxonomy concepts: {len(bundle.taxonomy)}",
        f"200 cold queries: {cold * 1e3:.2f} ms; 200 warm queries: {warm * 1e3:.2f} ms",
    ]
    show("preprocessing_lin", lines)
    assert warm <= cold


def test_preprocessing_storage_scales_linearly(benchmark, show, amazon_small):
    """O(n * n_w * t): doubling n_w doubles storage; t is linear too."""
    bundle = amazon_small
    base = WalkIndex(bundle.graph, num_walks=50, length=10, seed=0)
    double_walks = WalkIndex(bundle.graph, num_walks=100, length=10, seed=0)
    double_length = benchmark.pedantic(
        WalkIndex,
        args=(bundle.graph,),
        kwargs={"num_walks": 50, "length": 21, "seed": 0},
        rounds=1,
        iterations=1,
    )
    lines = [
        "=== Preprocessing — storage scaling ===",
        fmt_row("config", ["entries"]),
        fmt_row("n_w=50,  t=10", [base.storage_entries]),
        fmt_row("n_w=100, t=10", [double_walks.storage_entries]),
        fmt_row("n_w=50,  t=21", [double_length.storage_entries]),
    ]
    show("preprocessing_scaling", lines)
    assert double_walks.storage_entries == 2 * base.storage_entries
    assert double_length.storage_entries == 2 * base.storage_entries
