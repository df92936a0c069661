"""Property tests: stacked first-meeting detection equals the per-pair one.

:meth:`~repro.core.WalkIndex.first_meetings_pairs` finds the first
meetings of many pairs with one comparison over the walk tensor and feeds
every batched score; the scalar :meth:`~repro.core.WalkIndex.first_meetings`
feeds the per-walk oracle.  Row *i* of the stacked array must equal
``first_meetings`` of pair *i*, element for element: with one shared
source and with one source per pair, on graphs with dangling nodes (whose
walks are padded with -1), for identity pairs, and on a
:class:`~repro.core.DynamicWalkIndex` after mutations.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import DynamicWalkIndex, WalkIndex
from repro.core.walk_index import WalkPolicy

from tests.properties.test_dynamic_identity import apply_schedule, base_graph

COMMON = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

POLICIES = [WalkPolicy.UNIFORM, WalkPolicy.WEIGHTED]


def draw_pairs(seed: int, num_nodes: int, num_pairs: int, shared: bool):
    """Node positions ``(pos_u, pos_v)``; pair 0 is always an identity pair."""
    rng = np.random.default_rng(seed)
    pos_v = rng.integers(num_nodes, size=num_pairs)
    if shared:
        pos_u = int(rng.integers(num_nodes))
        pos_v[0] = pos_u
    else:
        pos_u = rng.integers(num_nodes, size=num_pairs)
        pos_u[0] = pos_v[0]
    return pos_u, pos_v


def assert_rows_match_scalar(index, pos_u, pos_v) -> None:
    stacked = index.first_meetings_pairs(pos_u, pos_v)
    assert stacked.dtype == np.int64
    assert stacked.shape == (pos_v.size, index.num_walks)
    nodes = index.index.nodes
    sources = np.broadcast_to(pos_u, pos_v.shape)
    for row, a, b in zip(stacked, sources.tolist(), pos_v.tolist()):
        np.testing.assert_array_equal(
            row, index.first_meetings(nodes[a], nodes[b])
        )


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    walk_seed=st.integers(0, 10_000),
    pair_seed=st.integers(0, 10_000),
    num_nodes=st.integers(2, 12),
    num_edges=st.integers(0, 20),
    num_pairs=st.integers(1, 16),
    shared=st.booleans(),
    policy=st.sampled_from(POLICIES),
)
def test_stacked_rows_equal_scalar_first_meetings(
    graph_seed, walk_seed, pair_seed, num_nodes, num_edges, num_pairs,
    shared, policy,
):
    index = WalkIndex(
        base_graph(graph_seed, num_nodes, num_edges),
        num_walks=12, length=6, policy=policy, seed=walk_seed,
    )
    pos_u, pos_v = draw_pairs(pair_seed, num_nodes, num_pairs, shared)
    assert_rows_match_scalar(index, pos_u, pos_v)


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    walk_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    pair_seed=st.integers(0, 10_000),
    num_nodes=st.integers(3, 10),
    num_edges=st.integers(0, 16),
    num_mutations=st.integers(1, 8),
    num_pairs=st.integers(1, 16),
    shared=st.booleans(),
)
def test_rows_equal_scalar_after_mutations(
    graph_seed, walk_seed, schedule_seed, pair_seed, num_nodes, num_edges,
    num_mutations, num_pairs, shared,
):
    dynamic = DynamicWalkIndex(
        base_graph(graph_seed, num_nodes, num_edges),
        num_walks=12, length=6, seed=walk_seed,
    )
    apply_schedule(dynamic, schedule_seed, num_mutations)
    pos_u, pos_v = draw_pairs(
        pair_seed, dynamic.index.num_nodes, num_pairs, shared
    )
    assert_rows_match_scalar(dynamic, pos_u, pos_v)
