"""Unit tests for the precomputed reverse-walk index."""

import numpy as np
import pytest

from repro.core import DynamicWalkIndex, WalkIndex, WalkPolicy
from repro.core.walk_index import walk_dtype
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.hin import HIN

#: The largest count int16 holds: node counts and in-degrees up to it
#: give int16 walk and offset tensors.
INT16_LIMIT = 32_767


@pytest.fixture
def star() -> HIN:
    g = HIN()
    g.add_edge("hub", "a")
    g.add_edge("hub", "b")
    g.add_edge("hub", "c", weight=5.0)
    g.add_edge("x", "c", weight=1.0)
    return g


class TestConstruction:
    def test_shapes(self, star):
        index = WalkIndex(star, num_walks=10, length=4, seed=0)
        assert index.walks.shape == (star.num_nodes, 10, 5)

    def test_walks_start_at_their_node(self, star):
        index = WalkIndex(star, num_walks=5, length=3, seed=0)
        for node in star.nodes():
            assert np.all(index.walks_from(node)[:, 0] == index.node_position(node))

    def test_walks_follow_in_edges(self, star):
        index = WalkIndex(star, num_walks=20, length=1, seed=0)
        hub = index.node_position("hub")
        x = index.node_position("x")
        steps = index.walks_from("c")[:, 1]
        assert set(map(int, steps)) <= {hub, x}

    def test_dead_ends_are_padded(self, star):
        index = WalkIndex(star, num_walks=5, length=3, seed=0)
        # "hub" has no in-neighbours: all steps after 0 are -1.
        assert np.all(index.walks_from("hub")[:, 1:] == -1)

    def test_reproducible(self, star):
        a = WalkIndex(star, num_walks=8, length=5, seed=42)
        b = WalkIndex(star, num_walks=8, length=5, seed=42)
        assert np.array_equal(a.walks, b.walks)

    def test_parameter_validation(self, star):
        with pytest.raises(ConfigurationError):
            WalkIndex(star, num_walks=0)
        with pytest.raises(ConfigurationError):
            WalkIndex(star, length=0)

    def test_unknown_node(self, star):
        index = WalkIndex(star, num_walks=2, length=2, seed=0)
        with pytest.raises(NodeNotFoundError):
            index.walks_from("ghost")


class TestPolicies:
    def test_weighted_policy_prefers_heavy_edges(self, star):
        index = WalkIndex(
            star, num_walks=400, length=1, policy=WalkPolicy.WEIGHTED, seed=0
        )
        hub = index.node_position("hub")
        first_steps = index.walks_from("c")[:, 1]
        hub_fraction = float(np.mean(first_steps == hub))
        # W(hub -> c) = 5 vs W(x -> c) = 1 -> expect ~5/6.
        assert hub_fraction == pytest.approx(5 / 6, abs=0.07)

    def test_uniform_policy_is_even(self, star):
        index = WalkIndex(star, num_walks=400, length=1, seed=0)
        hub = index.node_position("hub")
        first_steps = index.walks_from("c")[:, 1]
        assert float(np.mean(first_steps == hub)) == pytest.approx(0.5, abs=0.08)

    @staticmethod
    def _edge_q(index, current, chosen):
        """Per-edge ``Q`` of the in-edge ``chosen -> current``."""
        tables = index.tables
        row = slice(tables.indptr[current], tables.indptr[current + 1])
        (slot,) = np.flatnonzero(tables.targets[row] == chosen)
        return tables.q[row][slot]

    def test_q_step_probability_uniform(self, star):
        index = WalkIndex(star, num_walks=2, length=2, seed=0)
        c = index.node_position("c")
        hub = index.node_position("hub")
        assert self._edge_q(index, c, hub) == 0.5

    def test_q_step_probability_weighted(self, star):
        index = WalkIndex(star, num_walks=2, length=2, policy=WalkPolicy.WEIGHTED, seed=0)
        c = index.node_position("c")
        hub = index.node_position("hub")
        assert self._edge_q(index, c, hub) == pytest.approx(5 / 6)
        assert self._edge_q(index, c, index.node_position("x")) == pytest.approx(1 / 6)

    def test_q_step_probability_dead_end(self, star):
        """A node without in-edges has no ``Q`` row, and every walk step
        from it records the -1 offset."""
        index = WalkIndex(star, num_walks=2, length=2, seed=0)
        hub = index.node_position("hub")
        assert index.tables.indptr[hub] == index.tables.indptr[hub + 1]
        assert np.all(index.offsets[hub] == -1)


class TestStepOffsets:
    """Each stored step records the in-edge it took (``offsets``)."""

    @pytest.mark.parametrize("policy", list(WalkPolicy))
    def test_offsets_name_the_in_edge_of_each_step(self, policy):
        from tests.conftest import build_taxonomy_graph

        graph, _ = build_taxonomy_graph()
        graph.add_edge("source", "x1", weight=3.0)  # a dead end behind x1
        index = WalkIndex(graph, num_walks=30, length=6, policy=policy, seed=3)
        tables, walks, offsets = index.tables, index.walks, index.offsets
        assert walks.dtype == offsets.dtype == walk_dtype(tables.degrees)
        assert offsets.dtype == np.int16
        assert offsets.shape == walks.shape[:2] + (index.length,)
        current, nxt = walks[..., :-1], walks[..., 1:]
        alive = nxt >= 0
        slots = tables.indptr[current[alive]] + offsets[alive]
        assert np.array_equal(tables.targets[slots], nxt[alive])
        assert np.all(offsets[alive] < tables.degrees[current[alive]])
        assert np.all(offsets[~alive] == -1)
        assert alive.any() and (~alive).any()
        parallel = WalkIndex(
            graph, num_walks=30, length=6, policy=policy, seed=3, workers=4
        )
        assert np.array_equal(parallel.walks, walks)
        assert np.array_equal(parallel.offsets, offsets)


class TestWalkDtype:
    """The walk and offset tensors take the narrowest dtype holding them."""

    @pytest.mark.parametrize(
        "count, dtype", [(INT16_LIMIT, np.int16), (INT16_LIMIT + 1, np.int32)]
    )
    def test_node_count_bound(self, count, dtype):
        assert walk_dtype(np.zeros(count, dtype=np.int64)) == dtype

    @pytest.mark.parametrize(
        "degree, dtype", [(INT16_LIMIT, np.int16), (INT16_LIMIT + 1, np.int32)]
    )
    def test_in_degree_bound(self, degree, dtype):
        degrees = np.zeros(10, dtype=np.int64)
        degrees[3] = degree
        assert walk_dtype(degrees) == dtype

    def test_empty_graph(self):
        index = WalkIndex(HIN(), num_walks=3, length=2, seed=0)
        assert index.walks.shape == (0, 3, 3)
        assert index.walks.dtype == index.offsets.dtype == np.int16

    @pytest.fixture(scope="class")
    def graph_at_bound(self) -> HIN:
        """INT16_LIMIT nodes, a short chain of them linked."""
        g = HIN()
        for i in range(INT16_LIMIT):
            g.add_node(f"n{i}")
        for i in range(40):
            g.add_edge(f"n{i}", f"n{i + 1}")
        return g

    @pytest.mark.parametrize("mutation", ["add_node", "add_edge"])
    def test_mutation_past_the_bound_widens_like_a_cold_build(
        self, graph_at_bound, mutation
    ):
        dynamic = DynamicWalkIndex(
            graph_at_bound, num_walks=1, length=1, seed=5
        )
        assert dynamic.walks.dtype == dynamic.offsets.dtype == np.int16
        if mutation == "add_node":
            dynamic.add_node("fresh")
        else:
            dynamic.add_edge("fresh", "n1")  # a new source node
        cold = WalkIndex(dynamic.graph, num_walks=1, length=1, seed=5)
        assert cold.walks.dtype == cold.offsets.dtype == np.int32
        for grown, built in (
            (dynamic.walks, cold.walks), (dynamic.offsets, cold.offsets)
        ):
            assert grown.dtype == built.dtype
            assert np.array_equal(grown, built)


def _meetings(index, u, v):
    """The first meetings of the one pair (u, v)."""
    return index.first_meetings_pairs(
        index.node_position(u), index.node_positions([v])
    )[0]


class TestFirstMeetings:
    def test_shared_parent_meets_at_one(self):
        g = HIN()
        g.add_edge("p", "u")
        g.add_edge("p", "v")
        index = WalkIndex(g, num_walks=10, length=3, seed=0)
        meetings = _meetings(index, "u", "v")
        assert np.all(meetings == 1)

    def test_never_meeting_graph(self):
        g = HIN()
        g.add_edge("p", "u")
        g.add_edge("q", "v")
        g.add_edge("u", "p")
        g.add_edge("v", "q")
        index = WalkIndex(g, num_walks=10, length=5, seed=0)
        assert np.all(_meetings(index, "u", "v") == -1)

    def test_start_offset_never_counts(self):
        g = HIN()
        g.add_edge("p", "u")
        g.add_edge("p", "v")
        index = WalkIndex(g, num_walks=4, length=3, seed=0)
        assert np.all(_meetings(index, "u", "u") != 0)


class TestAccounting:
    def test_storage_entries(self, star):
        index = WalkIndex(star, num_walks=7, length=3, seed=0)
        assert index.storage_entries == star.num_nodes * 7 * 4

    def test_storage_bytes_positive(self, star):
        assert WalkIndex(star, num_walks=2, length=2, seed=0).storage_bytes > 0

    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    def test_storage_bytes_count_walks_and_offsets(self, star, dtype):
        """A cold and a mutated index count both tensors: n * n_w * (t + 1)
        walk steps and n * n_w * t offsets, at the tensors' width."""
        num_walks, length = 7, 3
        sampled = WalkIndex(star, num_walks=num_walks, length=length, seed=0)
        cold = WalkIndex.from_arrays(
            star, sampled.walks.astype(dtype),
            offsets=sampled.offsets.astype(dtype), num_walks=num_walks,
            length=length, tables=sampled.tables, graph_index=sampled.index,
        )
        mutated = DynamicWalkIndex.from_walk_index(cold, seed=0)
        mutated.add_edge("x", "a")
        mutated.add_node("fresh")
        for index, nodes in ((cold, star.num_nodes), (mutated, star.num_nodes + 1)):
            assert index.walks.dtype == index.offsets.dtype == dtype
            per_walk = (length + 1) + length
            expected = nodes * num_walks * per_walk * np.dtype(dtype).itemsize
            assert index.storage_bytes == expected
            assert index.storage_entries == nodes * num_walks * (length + 1)
