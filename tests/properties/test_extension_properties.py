"""Property-based tests of the extension layers (dynamic index, estimator
invariants)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DynamicWalkIndex, MonteCarloSemSim, WalkIndex
from repro.hin import HIN

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _walks_valid(index) -> bool:
    """Every stored step follows a real in-edge of the *current* graph."""
    for v in range(index.index.num_nodes):
        for walk in index.walks[v]:
            for step in range(index.length):
                current = int(walk[step])
                nxt = int(walk[step + 1])
                if current < 0:
                    if nxt >= 0:
                        return False
                    continue
                allowed = set(map(int, index.index.in_lists[current]))
                if nxt >= 0 and nxt not in allowed:
                    return False
                if nxt < 0 and allowed:
                    return False
    return True


@COMMON
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    num_updates=st.integers(min_value=1, max_value=8),
)
def test_dynamic_index_stays_consistent_under_random_updates(seed, num_updates):
    graph, _ = random_hin_with_measure(seed, num_entities=6, extra_edges=8)
    dynamic = DynamicWalkIndex(graph, num_walks=10, length=5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    nodes = list(dynamic.graph.nodes())
    for _ in range(num_updates):
        if rng.random() < 0.6 or dynamic.graph.num_edges == 0:
            i, j = rng.choice(len(nodes), size=2, replace=False)
            source, target = nodes[int(i)], nodes[int(j)]
            if not dynamic.graph.has_edge(source, target):
                dynamic.add_edge(source, target, weight=float(rng.integers(1, 4)))
        else:
            edges = list(dynamic.graph.edges())
            source, target, _, _ = edges[int(rng.integers(len(edges)))]
            dynamic.remove_edge(source, target)
    assert _walks_valid(dynamic)


@COMMON
@given(seed=st.integers(min_value=0, max_value=5_000))
def test_estimator_symmetry_and_range(seed):
    graph, measure = random_hin_with_measure(seed, num_entities=6, extra_edges=8)
    index = WalkIndex(graph, num_walks=60, length=8, seed=seed)
    estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=None)
    nodes = list(graph.nodes())[:6]
    for i, u in enumerate(nodes):
        for v in nodes[i:]:
            forward = estimator.similarity(u, v)
            backward = estimator.similarity(v, u)
            # The coupled-walk construction is symmetric in the pair.
            assert forward == pytest.approx(backward, abs=1e-12)
            assert forward >= 0.0
