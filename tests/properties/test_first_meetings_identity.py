"""Property tests: first-meeting detection equals a per-walk oracle.

:meth:`~repro.core.WalkIndex.first_meetings_pairs` finds the first
meetings of many pairs from the hits of one comparison over the walk
tensor; it feeds every batched score, and its row 0 is the scalar
:meth:`~repro.core.WalkIndex.first_meetings`.  Both are held here to
:func:`oracle_first_meetings`, a loop over each coupled walk that takes
the smallest step ``k >= 1`` where both walks are alive and stand on the
same node: with one shared source and with one source per pair, on graphs
with dangling nodes (whose walks are padded with -1), for identity pairs,
on the sampled int16 tensors and on int32 copies of them (the dtype of
artifacts written before the tensors were narrowed), and on a
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


def oracle_first_meetings(walks: np.ndarray, pos_u, pos_v) -> np.ndarray:
    """First meeting of each coupled walk of each pair, one walk at a time."""
    sources = np.broadcast_to(pos_u, pos_v.shape).tolist()
    num_walks, width = walks.shape[1], walks.shape[2]
    out = np.full((len(sources), num_walks), -1, dtype=np.int64)
    for row, (a, b) in enumerate(zip(sources, pos_v.tolist())):
        for walk in range(num_walks):
            for k in range(1, width):
                step = int(walks[a, walk, k])
                if step >= 0 and step == int(walks[b, walk, k]):
                    out[row, walk] = k
                    break
    return out


def int32_copy(index) -> WalkIndex:
    """*index* over int32 copies of its tensors."""
    return WalkIndex.from_arrays(
        index.graph,
        index.walks.astype(np.int32),
        offsets=index.offsets.astype(np.int32),
        num_walks=index.num_walks,
        length=index.length,
        policy=index.policy,
        tables=index.tables,
        graph_index=index.index,
    )


def assert_rows_match_oracle(index, pos_u, pos_v) -> None:
    assert index.walks.dtype == np.int16
    expected = oracle_first_meetings(index.walks, pos_u, pos_v)
    nodes = index.index.nodes
    first_u = int(np.broadcast_to(pos_u, pos_v.shape)[0])
    for tensors in (index, int32_copy(index)):
        stacked = tensors.first_meetings_pairs(pos_u, pos_v)
        assert stacked.dtype == np.int64
        np.testing.assert_array_equal(stacked, expected)
        np.testing.assert_array_equal(
            tensors.first_meetings(nodes[first_u], nodes[int(pos_v[0])]),
            expected[0],
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
    assert_rows_match_oracle(index, pos_u, pos_v)


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
    assert_rows_match_oracle(dynamic, pos_u, pos_v)
