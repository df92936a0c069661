"""Shard plans: validation, ownership, and the start-up check."""

import pytest

from tests.conftest import random_hin_with_measure
from repro.api import QueryEngine
from repro.store import ShardPlan, StoreError, read_artifact, validate_shard_set

ENGINE_KWARGS = dict(method="mc", num_walks=20, length=6, seed=3)


@pytest.fixture(scope="module")
def model():
    return random_hin_with_measure(11, num_entities=8, extra_edges=10)


@pytest.fixture(scope="module")
def parent_path(model, tmp_path_factory):
    graph, measure = model
    engine = QueryEngine(graph, measure, **ENGINE_KWARGS)
    path = tmp_path_factory.mktemp("shard-parent") / "parent"
    engine.save(path)
    return path


class TestShardPlan:
    def test_even_split_spreads_the_remainder(self):
        plan = ShardPlan.even(10, 3)
        assert plan.boundaries == ((0, 4), (4, 7), (7, 10))
        assert plan.num_shards == 3

    def test_single_shard_covers_everything(self):
        plan = ShardPlan.even(5, 1)
        assert plan.boundaries == ((0, 5),)

    def test_more_shards_than_nodes_rejected(self):
        with pytest.raises(StoreError, match="non-empty"):
            ShardPlan.even(2, 3)

    @pytest.mark.parametrize("boundaries", [
        (),                       # empty
        ((0, 3), (4, 6)),         # gap
        ((1, 6),)                 # does not start at 0
        , ((0, 3), (3, 3)),       # empty range
        ((0, 3), (3, 5)),         # does not cover num_nodes=6
    ])
    def test_malformed_boundaries_rejected(self, boundaries):
        with pytest.raises(StoreError):
            ShardPlan(6, tuple(boundaries))

    def test_owner_maps_every_position_exactly_once(self):
        plan = ShardPlan.from_boundaries(10, [(0, 2), (2, 7), (7, 10)])
        owners = [plan.owner(position) for position in range(10)]
        assert owners == [0, 0, 1, 1, 1, 1, 1, 2, 2, 2]
        with pytest.raises(StoreError):
            plan.owner(10)
        with pytest.raises(StoreError):
            plan.owner(-1)


class TestValidateShardSet:
    """The one start-up check: an mc index and a plan over its nodes."""

    def test_matching_set_passes(self, parent_path):
        parent = read_artifact(parent_path)
        num_nodes = parent.arrays["walks"].shape[0]
        validate_shard_set(parent, ShardPlan.even(num_nodes, 2))  # must not raise

    def test_plan_node_count_mismatch_rejected(self, parent_path):
        with pytest.raises(StoreError, match="nodes"):
            validate_shard_set(read_artifact(parent_path), ShardPlan.even(3, 2))

    def test_iterative_artifact_rejected(self, model, tmp_path):
        graph, measure = model
        engine = QueryEngine(graph, measure, method="iterative")
        path = tmp_path / "iterative"
        engine.save(path)
        with pytest.raises(StoreError, match="mc"):
            validate_shard_set(
                read_artifact(path), ShardPlan.even(graph.num_nodes, 2)
            )
