"""Unit tests for the vectorised batch query paths.

The property suite (``tests/properties/test_batch_vs_scalar.py``) covers
randomised agreement; this file pins down the deterministic contracts:
exact equality with the scalar Def. 4.5 loop (``tests/backends/
scalar_ref.py``) on a fixed graph, stats accounting, the kernel path for
non-materialised measures, and order preservation.
"""

import numpy as np
import pytest

from repro.core import MonteCarloSemSim, MonteCarloSimRank, WalkIndex
from repro.core.join import similarity_join
from repro.core.topk import str_ranks, top_k_scan, top_k_similar
from repro.errors import ConfigurationError
from repro.semantics import MatrixMeasure
from tests.backends.scalar_ref import scalar_run, scalar_similarity, scalar_simrank
from tests.conftest import build_taxonomy_graph


@pytest.fixture(scope="module")
def setup():
    graph, measure = build_taxonomy_graph()
    index = WalkIndex(graph, num_walks=60, length=8, seed=42)
    matrix_measure = MatrixMeasure.from_measure(measure, list(graph.nodes()))
    return graph, measure, matrix_measure, index


class TestSemSimBatch:
    def test_batch_equals_scalar_exactly(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=0.05)
        nodes = list(graph.nodes())
        u = nodes[0]
        batch = estimator.similarity_batch(u, nodes)
        for node, value in zip(nodes, batch):
            assert value == estimator.similarity(u, node)
            assert value == scalar_similarity(estimator, u, node)

    def test_batch_identity_pair_is_one(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        batch = estimator.similarity_batch("x1", ["x1", "x2"])
        assert batch[0] == 1.0

    def test_batch_without_theta(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=None)
        nodes = list(graph.nodes())
        batch = estimator.similarity_batch("x2", nodes)
        scalar = [scalar_similarity(estimator, "x2", node) for node in nodes]
        np.testing.assert_array_equal(batch, scalar)

    def test_empty_candidate_list(self, setup):
        _, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        assert estimator.similarity_batch("x1", []).shape == (0,)

    def test_vectorized_stats_counted(self, setup):
        _, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        estimator.similarity_batch("x1", ["x2", "x3", "x4"])
        stats = estimator.stats
        assert stats.batch_queries == 1
        assert stats.batch_pairs == 3
        assert stats.queries == 3

    def test_lazy_measure_runs_the_kernel(self, setup):
        """A lazy measure is scored through computed cells: the scalar
        loop's floats, and its counters for one call over the pairs."""
        _, lazy_measure, _, index = setup
        estimator = MonteCarloSemSim(index, lazy_measure, decay=0.6)
        batch = estimator.similarity_batch("x1", ["x2", "x3"])
        scores, _, counts = scalar_run(
            estimator, [index.node_position("x1")] * 2,
            index.node_positions(["x2", "x3"]),
        )
        np.testing.assert_array_equal(batch, scores)
        assert counts["walks_met"] > 0
        assert estimator.stats.as_dict() == dict(
            counts, batch_queries=1, batch_pairs=2
        )

    def test_lazy_agrees_with_dense(self, setup):
        graph, lazy_measure, matrix_measure, index = setup
        lazy = MonteCarloSemSim(index, lazy_measure, decay=0.6, theta=0.05)
        fast = MonteCarloSemSim(index, matrix_measure, decay=0.6, theta=0.05)
        nodes = list(graph.nodes())
        np.testing.assert_allclose(
            lazy.similarity_batch("x3", nodes),
            fast.similarity_batch("x3", nodes),
            atol=1e-12,
        )

    def test_stats_reset(self, setup):
        _, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        estimator.similarity_batch("x1", ["x2"])
        estimator.stats.reset()
        assert estimator.stats.batch_queries == 0
        assert estimator.stats.queries == 0
        assert estimator.stats.walks_examined == 0


class TestSimRankBatch:
    def test_batch_equals_scalar(self, setup):
        graph, _, _, index = setup
        estimator = MonteCarloSimRank(index, decay=0.6)
        nodes = list(graph.nodes())
        batch = estimator.similarity_batch("x1", nodes)
        scalar = [scalar_simrank(estimator, "x1", node) for node in nodes]
        np.testing.assert_array_equal(batch, scalar)
        assert estimator.stats.batch_queries == 1
        assert estimator.stats.batch_pairs == len(nodes)


class TestSingleSourceAndJoin:
    def test_single_source_mc_uses_batch(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        nodes = list(graph.nodes())
        scores = dict(zip(nodes, estimator.similarity_batch("x1", nodes)))
        assert set(scores) == set(graph.nodes())
        for node, value in scores.items():
            assert value == scalar_similarity(estimator, "x1", node)
        assert estimator.stats.batch_queries >= 1

    def test_batch_similarity_preserves_pair_order(self, setup):
        _, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        pairs = [("x1", "x2"), ("x3", "x4"), ("x1", "x3"), ("x2", "x1")]
        us, vs = zip(*pairs)
        values = estimator.score_positions(
            index.node_positions(us), index.node_positions(vs)
        )
        assert len(values) == len(pairs)
        for (u, v), value in zip(pairs, values):
            assert value == scalar_similarity(estimator, u, v)

    def test_join_matches_scalar_join(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        joined = similarity_join(estimator, 0.01)
        for u, v, value in joined:
            assert value == scalar_similarity(estimator, u, v)
            assert value > 0.01


def _array_top_k(estimator, query, candidates, k, bounded):
    """:func:`top_k_scan` over *estimator*'s position path, by name."""
    index = estimator.walk_index
    nodes = index.index.nodes
    pool = index.node_positions(candidates)
    bound = None
    if bounded:
        bound = np.array([estimator.measure.similarity(query, v) for v in candidates])
    ranked = top_k_scan(
        index.node_position(query), pool, k, estimator.score_positions,
        str_ranks(nodes), bound=bound,
    )
    return [(nodes[p], value) for p, value in ranked]


class TestTopKBatch:
    def test_batch_score_matches_scalar_path(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        nodes = [n for n in graph.nodes() if n != "x1"]
        scalar_results = top_k_similar(
            "x1", nodes, 3, lambda u, v: scalar_similarity(estimator, u, v),
            measure=measure,
        )
        batch_results = _array_top_k(estimator, "x1", nodes, 3, bounded=True)
        assert scalar_results == batch_results

    def test_batch_score_without_measure(self, setup):
        graph, _, measure, index = setup
        estimator = MonteCarloSemSim(index, measure, decay=0.6)
        nodes = [n for n in graph.nodes() if n != "x1"]
        scalar_results = top_k_similar(
            "x1", nodes, 4, lambda u, v: scalar_similarity(estimator, u, v)
        )
        batch_results = _array_top_k(estimator, "x1", nodes, 4, bounded=False)
        assert scalar_results == batch_results

    def test_requires_some_scorer(self):
        with pytest.raises(ConfigurationError, match="score"):
            top_k_similar("u", ["v"], 1)
