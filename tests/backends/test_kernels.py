"""Kernel equivalence: every exact backend matches the numpy reference.

The ``blocked`` backend's whole reason to exist is "same bits, less
time", so the assertions here are ``==`` / ``assert_array_equal`` — not
approx — across the estimator surface: dense ``sem``/``SO`` sources, the
SLING ``pair_index`` path (a computed ``SO`` source), theta pruning on
and off, and the stat counters the paper's tables are built from.  The
stacked oracle reads a computed source at every step before each
meeting, the kernel only where a live walk reaches, so there
``so_evaluations`` is held to the scalar Def. 4.5 loop
(``tests/backends/scalar_ref.py``), which stops where the kernel does.
"""

import numpy as np
import pytest

from repro.backends import BackendConfig, BlockedBackend
from repro.core import MonteCarloSemSim, MonteCarloSimRank, SlingIndex, WalkIndex
from repro.core import sarw
from repro.core.sarw import SemanticAwareWalker
from repro.semantics import MatrixMeasure

from tests.backends.numpy_ref import KERNELS, NumpyBackend
from tests.backends.scalar_ref import scalar_run, scalar_similarity, scalar_simrank
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


def _batch_counts(estimator, graph):
    """The scalar loop's counters for the :func:`_batch` call."""
    nodes = sorted(graph.nodes(), key=str)
    index = estimator.walk_index
    positions = index.node_positions(nodes[1:])
    sources = np.full(positions.size, index.node_position(nodes[0]))
    counts = scalar_run(estimator, sources, positions)[2]
    return dict(counts, batch_queries=1, batch_pairs=positions.size)


def _assert_same_work(reference, candidate, graph):
    """Every counter equals the stacked oracle's, except a computed SO
    source's evaluations, which are the scalar loop's reached cells."""
    expected, got = reference.stats.as_dict(), candidate.stats.as_dict()
    assert expected.pop("so_evaluations") >= got.pop("so_evaluations")
    assert expected == got
    if not isinstance(candidate.backend, NumpyBackend):
        assert candidate.stats.as_dict() == _batch_counts(candidate, graph)


class TestExactEquivalence:
    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    @pytest.mark.parametrize("theta", [None, 0.05, 0.3])
    def test_semsim_batch_bit_identical(
        self, model, index, matrix_measure, backend, theta
    ):
        graph, _ = model
        reference = MonteCarloSemSim(
            index, matrix_measure, theta=theta, backend=NumpyBackend()
        )
        candidate = MonteCarloSemSim(
            index, matrix_measure, theta=theta, backend=KERNELS[backend]()
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
            index, matrix_measure, theta=0.05, pair_index=sling,
            backend=NumpyBackend(),
        )
        candidate = MonteCarloSemSim(
            index, matrix_measure, theta=0.05, pair_index=sling,
            backend=KERNELS[backend](),
        )
        np.testing.assert_array_equal(
            _batch(reference, graph), _batch(candidate, graph)
        )
        _assert_same_work(reference, candidate, graph)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_scalar_vs_batch_consistency(
        self, model, index, matrix_measure, backend
    ):
        graph, _ = model
        estimator = MonteCarloSemSim(
            index, matrix_measure, theta=None, backend=KERNELS[backend]()
        )
        nodes = sorted(graph.nodes(), key=str)
        u = nodes[0]
        batch = estimator.similarity_batch(u, nodes[1:4])
        for v, value in zip(nodes[1:4], batch):
            assert estimator.similarity(u, v) == float(value)
            assert scalar_similarity(estimator, u, v) == float(value)

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    @pytest.mark.parametrize("theta", [None, 0.05])
    @pytest.mark.parametrize("sling", [False, True])
    def test_mixed_source_pairs_match_scalar(
        self, model, index, matrix_measure, backend, theta, sling
    ):
        """One kernel call over pairs from many sources — identity and
        θ-gated pairs included — equals the scalar per-walk loop pair by
        pair, floats and counters alike, on the dense SO path and the
        pair_index path."""
        graph, measure = model
        pair_index = SlingIndex(graph, measure, theta=0.05) if sling else None
        estimator = MonteCarloSemSim(
            index, matrix_measure, theta=theta, pair_index=pair_index,
            backend=KERNELS[backend](),
        )
        nodes = sorted(graph.nodes(), key=str)
        rng = np.random.default_rng(3)
        us = [nodes[int(i)] for i in rng.integers(len(nodes), size=40)]
        vs = [nodes[int(i)] for i in rng.integers(len(nodes), size=40)]
        us, vs = us + nodes[:3], vs + nodes[:3]
        index_of = estimator.walk_index
        pos_u, pos_v = index_of.node_positions(us), index_of.node_positions(vs)
        batch = estimator.score_positions(pos_u, pos_v)
        scores, _, counts = scalar_run(estimator, pos_u, pos_v)
        assert scores == batch.tolist()
        assert estimator.stats.as_dict() == dict(
            counts, batch_queries=1, batch_pairs=len(us)
        )
        assert [estimator.similarity(u, v) for u, v in zip(us, vs)] == scores

    @pytest.mark.parametrize("backend", EXACT_BACKENDS)
    def test_simrank_scores_identical(self, model, index, backend):
        graph, _ = model
        reference = MonteCarloSimRank(index, backend=NumpyBackend())
        candidate = MonteCarloSimRank(index, backend=KERNELS[backend]())
        nodes = sorted(graph.nodes(), key=str)
        for v in nodes[1:5]:
            assert reference.similarity(nodes[0], v) == candidate.similarity(
                nodes[0], v
            ) == scalar_simrank(candidate, nodes[0], v)

    def test_blocked_identical_across_block_sizes(
        self, model, index, matrix_measure
    ):
        graph, _ = model
        reference = MonteCarloSemSim(
            index, matrix_measure, theta=0.05, backend=NumpyBackend()
        )
        expected = _batch(reference, graph)
        for block_rows in (1, 3, 64, 100_000):
            candidate = MonteCarloSemSim(
                index,
                matrix_measure,
                theta=0.05,
                backend=BlockedBackend(BackendConfig(block_rows=block_rows)),
            )
            np.testing.assert_array_equal(expected, _batch(candidate, graph))


class TestBoundedScratch:
    @pytest.mark.parametrize("sling", [False, True])
    def test_block_rows_bound_the_kernel_scratch(
        self, model, index, matrix_measure, sling, monkeypatch
    ):
        """A request of many blocks equals the oracle, totals and counters
        alike, while the thread never works on more than one block: every
        temporary of the step loop and the dense round is sized by the
        rows of the block it scores."""
        graph, measure = model
        pair_index = SlingIndex(graph, measure, theta=0.05) if sling else None
        reference = MonteCarloSemSim(
            index, matrix_measure, theta=0.05, pair_index=pair_index,
            backend=NumpyBackend(),
        )
        backend = BlockedBackend(BackendConfig(block_rows=7))
        held = []
        score_block = backend._score_block

        def spy(request, flat, met_at, out):
            held.append(met_at.size)
            return score_block(request, flat, met_at, out)

        monkeypatch.setattr(backend, "_score_block", spy)
        candidate = MonteCarloSemSim(
            index, matrix_measure, theta=0.05, pair_index=pair_index,
            backend=backend,
        )
        np.testing.assert_array_equal(
            _batch(reference, graph), _batch(candidate, graph)
        )
        _assert_same_work(reference, candidate, graph)
        assert candidate.stats.walks_met > 10 * 7  # many blocks, not one
        assert sum(held) == candidate.stats.walks_met
        assert max(held) <= 7


class TestStepMemoCap:
    def test_memo_never_exceeds_cap(self, model, monkeypatch):
        graph, measure = model
        monkeypatch.setattr(sarw, "STEP_MEMO_CAP", 3)
        walker = SemanticAwareWalker(graph, measure, seed=0)
        nodes = sorted(graph.nodes(), key=str)
        for u in nodes:
            for v in nodes:
                walker.step_distribution((u, v))
                assert len(walker._distributions) <= 3

    def test_eviction_is_least_recently_used(self, model, monkeypatch):
        graph, measure = model
        monkeypatch.setattr(sarw, "STEP_MEMO_CAP", 2)
        walker = SemanticAwareWalker(graph, measure, seed=0)
        nodes = sorted(graph.nodes(), key=str)
        a, b, c = nodes[:3]
        walker.step_distribution((a, a))
        walker.step_distribution((b, b))
        walker.step_distribution((a, a))  # refresh (a, a)
        walker.step_distribution((c, c))  # evicts (b, b), the LRU entry
        assert (a, a) in walker._distributions
        assert (b, b) not in walker._distributions
        assert (c, c) in walker._distributions

    def test_capped_memo_returns_same_distributions(self, model, monkeypatch):
        graph, measure = model
        unbounded = SemanticAwareWalker(graph, measure, seed=0)
        monkeypatch.setattr(sarw, "STEP_MEMO_CAP", 1)
        capped = SemanticAwareWalker(graph, measure, seed=0)
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
