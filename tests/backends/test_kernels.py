"""Kernel equivalence: every exact backend matches the numpy reference.

The ``blocked`` backend's whole reason to exist is "same bits, less
time", so the assertions here are ``==`` / ``assert_array_equal`` — not
approx — across the estimator surface: dense ``sem_matrix`` path, the
SLING ``pair_index`` path, theta pruning on and off, and the stat
counters the paper's tables are built from.
"""

import numpy as np
import pytest

from repro.backends import BackendConfig, get_backend
from repro.core import MonteCarloSemSim, MonteCarloSimRank, SlingIndex, WalkIndex
from repro.core.sarw import SemanticAwareWalker
from repro.semantics import MatrixMeasure

from tests.conftest import build_taxonomy_graph

EXACT_BACKENDS = ["numpy", "blocked"]


@pytest.fixture(scope="module")
def model():
    return build_taxonomy_graph()


@pytest.fixture(scope="module")
def index(model):
    graph, _ = model
    return WalkIndex(graph, num_walks=200, length=12, seed=5)


@pytest.fixture(scope="module")
def matrix_measure(model):
    graph, measure = model
    return MatrixMeasure.from_measure(measure, list(graph.nodes()))


def _batch(estimator, graph):
    nodes = sorted(graph.nodes(), key=str)
    u = nodes[0]
    return np.asarray(estimator.similarity_batch(u, nodes[1:]))


class TestExactEquivalence:
    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    @pytest.mark.parametrize("theta", [None, 0.05, 0.3])
    def test_semsim_batch_bit_identical(
        self, model, index, matrix_measure, backend, theta
    ):
        graph, _ = model
        reference = MonteCarloSemSim(
            index, matrix_measure, theta=theta, backend="numpy"
        )
        candidate = MonteCarloSemSim(
            index, matrix_measure, theta=theta, backend=backend
        )
        np.testing.assert_array_equal(
            _batch(reference, graph), _batch(candidate, graph)
        )
        assert reference.stats.as_dict() == candidate.stats.as_dict()

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_pair_index_path_bit_identical(
        self, model, index, matrix_measure, backend
    ):
        graph, measure = model
        sling = SlingIndex(graph, measure, theta=0.05)
        reference = MonteCarloSemSim(
            index, matrix_measure, theta=0.05, pair_index=sling, backend="numpy"
        )
        candidate = MonteCarloSemSim(
            index, matrix_measure, theta=0.05, pair_index=sling, backend=backend
        )
        np.testing.assert_array_equal(
            _batch(reference, graph), _batch(candidate, graph)
        )
        assert reference.stats.as_dict() == candidate.stats.as_dict()

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_scalar_vs_batch_consistency(
        self, model, index, matrix_measure, backend
    ):
        graph, _ = model
        estimator = MonteCarloSemSim(
            index, matrix_measure, theta=None, backend=backend
        )
        nodes = sorted(graph.nodes(), key=str)
        u = nodes[0]
        batch = estimator.similarity_batch(u, nodes[1:4])
        for v, value in zip(nodes[1:4], batch):
            assert estimator.similarity(u, v) == float(value)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    @pytest.mark.parametrize("theta", [None, 0.05])
    @pytest.mark.parametrize("sling", [False, True])
    def test_mixed_source_pairs_match_scalar(
        self, model, index, matrix_measure, backend, theta, sling
    ):
        """One kernel call over pairs from many sources — identity and
        θ-gated pairs included — equals the per-walk loop pair by pair,
        on the dense SO path and the pair_index path alike."""
        graph, measure = model
        pair_index = SlingIndex(graph, measure, theta=0.05) if sling else None
        estimator = MonteCarloSemSim(
            index, matrix_measure, theta=theta, pair_index=pair_index,
            backend=backend,
        )
        nodes = sorted(graph.nodes(), key=str)
        rng = np.random.default_rng(3)
        us = [nodes[int(i)] for i in rng.integers(len(nodes), size=40)]
        vs = [nodes[int(i)] for i in rng.integers(len(nodes), size=40)]
        us, vs = us + nodes[:3], vs + nodes[:3]
        batch = estimator.similarity_pairs(us, vs)
        assert [estimator.similarity(u, v) for u, v in zip(us, vs)] == (
            batch.tolist()
        )

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_simrank_scores_identical(self, model, index, backend):
        graph, _ = model
        reference = MonteCarloSimRank(index, backend="numpy")
        candidate = MonteCarloSimRank(index, backend=backend)
        nodes = sorted(graph.nodes(), key=str)
        for v in nodes[1:5]:
            assert reference.similarity(nodes[0], v) == candidate.similarity(
                nodes[0], v
            )

    def test_blocked_identical_across_block_sizes(
        self, model, index, matrix_measure
    ):
        graph, _ = model
        reference = MonteCarloSemSim(
            index, matrix_measure, theta=0.05, backend="numpy"
        )
        expected = _batch(reference, graph)
        for block_rows in (1, 3, 64, 100_000):
            candidate = MonteCarloSemSim(
                index,
                matrix_measure,
                theta=0.05,
                backend=get_backend("blocked", BackendConfig(block_rows=block_rows)),
            )
            np.testing.assert_array_equal(expected, _batch(candidate, graph))


class TestStepMemoCap:
    def test_memo_never_exceeds_cap(self, model):
        graph, measure = model
        config = BackendConfig(step_memo_cap=3)
        walker = SemanticAwareWalker(
            graph, measure, seed=0, backend="numpy", config=config
        )
        nodes = sorted(graph.nodes(), key=str)
        for u in nodes:
            for v in nodes:
                walker.step_distribution((u, v))
                assert len(walker._distributions) <= 3

    def test_eviction_is_least_recently_used(self, model):
        graph, measure = model
        config = BackendConfig(step_memo_cap=2)
        walker = SemanticAwareWalker(
            graph, measure, seed=0, backend="numpy", config=config
        )
        nodes = sorted(graph.nodes(), key=str)
        a, b, c = nodes[:3]
        walker.step_distribution((a, a))
        walker.step_distribution((b, b))
        walker.step_distribution((a, a))  # refresh (a, a)
        walker.step_distribution((c, c))  # evicts (b, b), the LRU entry
        assert (a, a) in walker._distributions
        assert (b, b) not in walker._distributions
        assert (c, c) in walker._distributions

    def test_capped_memo_returns_same_distributions(self, model):
        graph, measure = model
        unbounded = SemanticAwareWalker(graph, measure, seed=0)
        capped = SemanticAwareWalker(
            graph,
            measure,
            seed=0,
            backend="numpy",
            config=BackendConfig(step_memo_cap=1),
        )
        nodes = sorted(graph.nodes(), key=str)
        for u in nodes[:4]:
            for v in nodes[:4]:
                expected = unbounded.step_distribution((u, v))
                actual = capped.step_distribution((u, v))
                assert [pair for pair, _ in expected] == [
                    pair for pair, _ in actual
                ]
                np.testing.assert_allclose(
                    [p for _, p in expected], [p for _, p in actual], atol=1e-12
                )


class TestVectorisedStepDistribution:
    def test_matches_scalar_loop(self, model):
        graph, measure = model
        matrix = MatrixMeasure.from_measure(measure, list(graph.nodes()))
        scalar = SemanticAwareWalker(graph, measure, seed=0)
        vectorised = SemanticAwareWalker(graph, matrix, seed=0, backend="numpy")
        assert vectorised._vectorised
        nodes = sorted(graph.nodes(), key=str)
        for u in nodes:
            for v in nodes:
                expected = scalar.step_distribution((u, v))
                actual = vectorised.step_distribution((u, v))
                assert [pair for pair, _ in expected] == [
                    pair for pair, _ in actual
                ]
                np.testing.assert_allclose(
                    [p for _, p in expected], [p for _, p in actual], atol=1e-12
                )
