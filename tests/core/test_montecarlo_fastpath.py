"""Tests for the MatrixMeasure fast path inside the IS estimator."""

import numpy as np
import pytest

from repro.core import MonteCarloSemSim, WalkIndex
from repro.semantics import MatrixMeasure

from tests.conftest import build_taxonomy_graph


@pytest.fixture(scope="module")
def model():
    return build_taxonomy_graph()


@pytest.fixture(scope="module")
def index(model):
    graph, _ = model
    return WalkIndex(graph, num_walks=400, length=15, seed=8)


class TestMatrixFastPath:
    def test_fast_path_activates_for_matching_order(self, model, index):
        graph, measure = model
        matrix_measure = MatrixMeasure.from_measure(measure, list(graph.nodes()))
        estimator = MonteCarloSemSim(index, matrix_measure, decay=0.6, theta=None)
        assert estimator._sem_matrix is not None

    def test_fast_path_skipped_for_mismatched_order(self, model, index):
        graph, measure = model
        shuffled = list(graph.nodes())[::-1]
        matrix_measure = MatrixMeasure.from_measure(measure, shuffled)
        estimator = MonteCarloSemSim(index, matrix_measure, decay=0.6, theta=None)
        assert estimator._sem_matrix is None

    def test_identical_estimates(self, model, index):
        graph, measure = model
        matrix_measure = MatrixMeasure.from_measure(measure, list(graph.nodes()))
        slow = MonteCarloSemSim(index, measure, decay=0.6, theta=None)
        fast = MonteCarloSemSim(index, matrix_measure, decay=0.6, theta=None)
        for u in graph.nodes():
            for v in graph.nodes():
                assert fast.similarity(u, v) == pytest.approx(
                    slow.similarity(u, v), abs=1e-12
                )

    def test_identical_estimates_with_pruning(self, model, index):
        graph, measure = model
        matrix_measure = MatrixMeasure.from_measure(measure, list(graph.nodes()))
        slow = MonteCarloSemSim(index, measure, decay=0.6, theta=0.1)
        fast = MonteCarloSemSim(index, matrix_measure, decay=0.6, theta=0.1)
        for pair in [("mid1", "mid2"), ("x1", "x2"), ("root", "mid1")]:
            assert fast.similarity(*pair) == pytest.approx(
                slow.similarity(*pair), abs=1e-12
            )


class TestLazyTables:
    def test_so_matrix_is_c_contiguous_cold_mutated_and_opened(
        self, model, tmp_path
    ):
        """The blocked kernel's flat ``take`` reads SO without a per-call
        copy only in C order — whichever way the engine got its SO."""
        from repro.api import QueryEngine

        graph, measure = model
        engine = QueryEngine(graph, measure, num_walks=20, length=6, seed=4)
        nodes = list(graph.nodes())
        engine.score_batch(nodes[0], nodes)  # builds SO cold
        source, target, weight, _label = next(iter(graph.edges()))
        mutated = engine.with_mutations(
            [("set_weight", source, target, weight + 1.0)]
        )
        opened = QueryEngine.open(engine.save(tmp_path / "idx"))
        for built in (engine, mutated, opened):
            assert built.estimator._so_matrix.flags.c_contiguous

    def test_weight_lookup_waits_for_the_per_walk_loop(self, model):
        from repro.api import QueryEngine

        graph, measure = model
        engine = QueryEngine(graph, measure, num_walks=20, length=6, seed=4)
        nodes = list(graph.nodes())
        engine.score_batch(nodes[0], nodes)
        assert engine.estimator._weight_to is None  # the batch path never reads it
        for v in nodes:
            engine.score(nodes[0], v)
        assert engine.estimator._weight_to is not None
