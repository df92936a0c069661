"""Property tests: the vectorised batch paths agree with the scalar
Def. 4.5 loop, and parallel index construction is bit-identical to serial.

These are the guarantees of the batch query engine:

* ``similarity_batch`` replays the scalar operation order, so on a
  materialised (matrix) measure it equals the scalar loop
  (``tests/backends/scalar_ref.py``) bit for bit on arbitrary random
  HINs, with and without θ pruning;
* the array top-k scan and ``similarity_join`` give the same answers
  through the batched path as a scalar scan;
* a :class:`WalkIndex` built with ``workers > 1`` (any shard size) stores
  exactly the same walk tensor as a serial build for the same seed.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MonteCarloSemSim, MonteCarloSimRank, WalkIndex
from repro.core.join import similarity_join
from repro.core.topk import str_ranks, top_k_scan, top_k_similar
from repro.core.walk_index import WalkPolicy
from repro.semantics import MatrixMeasure

from tests.backends.scalar_ref import scalar_similarity, scalar_simrank
from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _build(seed, num_entities, extra_edges, theta, policy=WalkPolicy.UNIFORM):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    index = WalkIndex(graph, num_walks=40, length=6, seed=seed, policy=policy)
    matrix = MatrixMeasure.from_measure(measure, list(graph.nodes()))
    estimator = MonteCarloSemSim(index, matrix, decay=0.6, theta=theta)
    return graph, estimator


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 12),
    extra_edges=st.integers(4, 20),
    theta=st.sampled_from([None, 0.05, 0.3]),
)
def test_score_batch_agrees_with_scalar(seed, num_entities, extra_edges, theta):
    graph, estimator = _build(seed, num_entities, extra_edges, theta)
    nodes = list(graph.nodes())
    for u in nodes[:3]:
        batch = estimator.similarity_batch(u, nodes)
        scalar = np.array([scalar_similarity(estimator, u, v) for v in nodes])
        np.testing.assert_array_equal(batch, scalar)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
)
def test_weighted_policy_batch_agrees(seed, num_entities, extra_edges):
    graph, estimator = _build(
        seed, num_entities, extra_edges, theta=0.05, policy=WalkPolicy.WEIGHTED
    )
    nodes = list(graph.nodes())
    u = nodes[0]
    batch = estimator.similarity_batch(u, nodes)
    scalar = np.array([scalar_similarity(estimator, u, v) for v in nodes])
    np.testing.assert_array_equal(batch, scalar)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
)
def test_simrank_batch_agrees_with_scalar(seed, num_entities, extra_edges):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    index = WalkIndex(graph, num_walks=40, length=6, seed=seed)
    estimator = MonteCarloSimRank(index, decay=0.6)
    nodes = list(graph.nodes())
    u = nodes[0]
    batch = estimator.similarity_batch(u, nodes)
    scalar = np.array([scalar_simrank(estimator, u, v) for v in nodes])
    np.testing.assert_allclose(batch, scalar, rtol=0, atol=1e-12)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(5, 10),
    extra_edges=st.integers(4, 16),
    k=st.integers(1, 5),
)
def test_top_k_batch_path_equals_scalar_path(seed, num_entities, extra_edges, k):
    graph, estimator = _build(seed, num_entities, extra_edges, theta=0.05)
    nodes = list(graph.nodes())
    u = nodes[0]
    candidates = nodes[1:]
    scalar = top_k_similar(u, candidates, k,
                           lambda a, b: scalar_similarity(estimator, a, b),
                           measure=estimator.measure)
    bound = np.array([estimator.measure.similarity(u, v) for v in candidates])
    ranked = top_k_scan(0, np.arange(1, len(nodes)), k,
                        estimator.score_positions, str_ranks(nodes),
                        bound=bound)
    batched = [(nodes[p], value) for p, value in ranked]
    assert scalar == batched


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 9),
    extra_edges=st.integers(4, 12),
    min_score=st.sampled_from([0.005, 0.02, 0.1]),
)
def test_join_batch_path_equals_scalar_scan(seed, num_entities, extra_edges,
                                            min_score):
    graph, estimator = _build(seed, num_entities, extra_edges, theta=0.05)
    joined = similarity_join(estimator, min_score)
    # reference: brute-force scalar scan over unordered pairs
    nodes = list(graph.nodes())
    expected = []
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            value = scalar_similarity(estimator, u, v)
            if value > min_score:
                expected.append((u, v, value))
    assert {frozenset((u, v)) for u, v, _ in joined} == \
        {frozenset((u, v)) for u, v, _ in expected}
    scores = {frozenset((u, v)): s for u, v, s in expected}
    for u, v, value in joined:
        assert value == pytest.approx(scores[frozenset((u, v))], abs=1e-12)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 12),
    extra_edges=st.integers(4, 20),
    workers=st.integers(2, 4),
    shard_size=st.sampled_from([1, 3, 13, None]),
    policy=st.sampled_from([WalkPolicy.UNIFORM, WalkPolicy.WEIGHTED]),
)
def test_parallel_walk_index_bit_identical_to_serial(
    seed, num_entities, extra_edges, workers, shard_size, policy
):
    graph, _ = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    serial = WalkIndex(graph, num_walks=12, length=5, seed=seed, policy=policy)
    parallel = WalkIndex(
        graph, num_walks=12, length=5, seed=seed, policy=policy,
        workers=workers, shard_size=shard_size,
    )
    np.testing.assert_array_equal(serial.walks, parallel.walks)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 9),
    extra_edges=st.integers(4, 12),
)
def test_batch_similarity_matches_per_pair(seed, num_entities, extra_edges):
    graph, estimator = _build(seed, num_entities, extra_edges, theta=0.05)
    nodes = list(graph.nodes())
    rng = np.random.default_rng(seed)
    pairs = [
        (nodes[int(rng.integers(len(nodes)))], nodes[int(rng.integers(len(nodes)))])
        for _ in range(12)
    ]
    index = estimator.walk_index
    values = estimator.score_positions(
        index.node_positions([u for u, _ in pairs]),
        index.node_positions([v for _, v in pairs]),
    )
    for (u, v), value in zip(pairs, values):
        assert value == scalar_similarity(estimator, u, v)
