"""Unit tests for single-source queries and per-pair position scoring."""

import numpy as np
import pytest

from repro.core import MonteCarloSemSim, WalkIndex, single_source_exact
from repro.core.semsim import semsim_scores
from repro.errors import ConfigurationError

from tests.conftest import build_taxonomy_graph


@pytest.fixture(scope="module")
def model():
    return build_taxonomy_graph()


def single_source_mc(estimator, query, candidates=None):
    """``{v: sim(query, v)}`` through the estimator's batch path."""
    if candidates is None:
        candidates = list(estimator.walk_index.index.nodes)
    scores = estimator.similarity_batch(query, candidates)
    return {node: float(value) for node, value in zip(candidates, scores)}


@pytest.fixture(scope="module")
def estimator(model):
    graph, measure = model
    index = WalkIndex(graph, num_walks=2000, length=20, seed=3)
    return MonteCarloSemSim(index, measure, decay=0.6, theta=None)


class TestSingleSourceMC:
    def test_matches_pairwise_estimator(self, model, estimator):
        graph, _ = model
        scores = single_source_mc(estimator, "mid1")
        for node in graph.nodes():
            assert scores[node] == pytest.approx(
                estimator.similarity("mid1", node), abs=1e-12
            )

    def test_query_node_scores_one(self, estimator):
        assert single_source_mc(estimator, "mid1")["mid1"] == 1.0

    def test_candidate_subset(self, estimator):
        scores = single_source_mc(estimator, "mid1", candidates=["x1", "x2"])
        assert set(scores) == {"x1", "x2"}

    def test_semantic_gate_applies(self, model):
        graph, measure = model
        index = WalkIndex(graph, num_walks=100, length=10, seed=1)
        gated = MonteCarloSemSim(index, measure, decay=0.6, theta=0.9)
        scores = single_source_mc(gated, "x1")
        for node in graph.nodes():
            if node != "x1" and measure.similarity("x1", node) <= 0.9:
                assert scores[node] == 0.0

    def test_tracks_exact_scores(self, model, estimator):
        graph, measure = model
        exact = semsim_scores(graph, measure, decay=0.6, tolerance=1e-12, max_iterations=300)
        scores = single_source_mc(estimator, "mid1")
        for node in graph.nodes():
            assert scores[node] == pytest.approx(exact.score("mid1", node), abs=0.03)


class TestSingleSourceExact:
    def test_matches_all_pairs_solution(self, model):
        graph, measure = model
        exact_row = single_source_exact(graph, measure, "mid1", decay=0.6)
        table = semsim_scores(graph, measure, decay=0.6, tolerance=1e-12, max_iterations=300)
        for node, value in exact_row.items():
            assert value == pytest.approx(table.score("mid1", node), abs=1e-8)

    def test_unknown_query_rejected(self, model):
        graph, measure = model
        with pytest.raises(ConfigurationError):
            single_source_exact(graph, measure, "ghost")


class TestBatchSimilarity:
    def test_order_preserved(self, estimator):
        pairs = [("x1", "x2"), ("mid1", "mid2"), ("x1", "x1")]
        index = estimator.walk_index
        us, vs = zip(*pairs)
        values = estimator.score_positions(
            index.node_positions(us), index.node_positions(vs)
        )
        assert len(values) == 3
        assert values[2] == 1.0
        assert values[0] == estimator.similarity("x1", "x2")
