"""Property tests: warm-started engines are bit-identical to cold ones.

The artifact store's contract is *exactness*, not approximation: an engine
restored from disk must answer every query with the very same float a
freshly built engine produces, across methods (mc / iterative), proposal
policies and θ settings — because the restored arrays are the cold build's
own bytes.  Also covered: stale-key and corrupt-artifact fixtures must
trigger a rebuild-with-warning, never a wrong answer.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import QueryEngine
from repro.core.walk_index import WalkPolicy

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _all_pair_scores(engine, nodes):
    return [engine.score(u, v) for u in nodes for v in nodes]


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    theta=st.sampled_from([None, 0.05, 0.3]),
    policy=st.sampled_from([WalkPolicy.UNIFORM, WalkPolicy.WEIGHTED]),
)
def test_mc_warm_scores_bit_identical(
    tmp_path_factory, seed, num_entities, extra_edges, theta, policy
):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    cache = tmp_path_factory.mktemp("store")
    kwargs = dict(
        method="mc", num_walks=25, length=5, theta=theta,
        policy=policy, seed=seed, cache_dir=cache,
    )
    cold = QueryEngine(graph, measure, **kwargs)
    warm = QueryEngine(graph, measure, **kwargs)
    for name in ("walks", "offsets"):
        assert np.array_equal(
            getattr(cold.walk_index, name), getattr(warm.walk_index, name)
        )
    nodes = list(graph.nodes())[:6]
    assert _all_pair_scores(cold, nodes) == _all_pair_scores(warm, nodes)
    batch = nodes
    assert np.array_equal(
        cold.score_batch(nodes[0], batch), warm.score_batch(nodes[0], batch)
    )


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    with_measure=st.booleans(),
)
def test_iterative_warm_scores_bit_identical(
    tmp_path_factory, seed, num_entities, extra_edges, with_measure
):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    cache = tmp_path_factory.mktemp("store")
    kwargs = dict(method="iterative", max_iterations=8, cache_dir=cache)
    cold = QueryEngine(graph, measure if with_measure else None, **kwargs)
    warm = QueryEngine(graph, measure if with_measure else None, **kwargs)
    nodes = list(graph.nodes())[:6]
    assert _all_pair_scores(cold, nodes) == _all_pair_scores(warm, nodes)


@COMMON
@given(seed=st.integers(0, 10_000))
def test_save_open_round_trip_bit_identical(tmp_path_factory, seed):
    graph, measure = random_hin_with_measure(seed, num_entities=6, extra_edges=8)
    engine = QueryEngine(
        graph, measure, method="mc", num_walks=25, length=5, seed=seed,
        materialize_semantics=True,
    )
    path = tmp_path_factory.mktemp("artifacts") / "engine"
    engine.save(path)
    reopened = QueryEngine.open(path)
    assert np.array_equal(reopened.walk_index.offsets, engine.walk_index.offsets)
    for per_edge in ("weights", "q"):
        assert np.array_equal(
            getattr(reopened.walk_index.tables, per_edge),
            getattr(engine.walk_index.tables, per_edge),
        )
    nodes = list(graph.nodes())[:6]
    assert _all_pair_scores(engine, nodes) == _all_pair_scores(reopened, nodes)
    assert reopened.num_walks == engine.num_walks
    assert reopened.length == engine.length
    assert reopened.policy is engine.policy


class TestStaleAndCorruptFixtures:
    """Fail-closed paths: rebuild with a warning, never a wrong answer."""

    @pytest.fixture()
    def cached_engine(self, tmp_path):
        graph, measure = random_hin_with_measure(3, num_entities=6, extra_edges=8)
        cache = tmp_path / "store"
        engine = QueryEngine(
            graph, measure, method="mc", num_walks=25, length=5, seed=3,
            cache_dir=cache,
        )
        return graph, measure, cache, engine

    def _rebuild(self, graph, measure, cache):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = QueryEngine(
                graph, measure, method="mc", num_walks=25, length=5, seed=3,
                cache_dir=cache,
            )
        return engine, [str(w.message) for w in caught]

    def test_truncated_array_triggers_rebuild_with_warning(self, cached_engine):
        graph, measure, cache, cold = cached_engine
        path = cold._store.path_for(cold.cache_key) / "walks.npy"
        path.write_bytes(path.read_bytes()[:64])
        rebuilt, messages = self._rebuild(graph, measure, cache)
        assert any("stale or corrupt" in message for message in messages)
        nodes = list(graph.nodes())[:5]
        assert _all_pair_scores(rebuilt, nodes) == _all_pair_scores(cold, nodes)

    def test_stale_key_from_graph_change_misses_cleanly(self, cached_engine):
        graph, measure, cache, cold = cached_engine
        graph.add_undirected_edge("e0", "e3", weight=2.5)
        fresh = QueryEngine(
            graph, measure, method="mc", num_walks=25, length=5, seed=3,
            cache_dir=cache,
        )
        # Different content -> different key -> the old artifact is not
        # served; both artifacts now coexist in the store.
        assert fresh.cache_key != cold.cache_key
        assert sorted(fresh._store.keys()) == sorted(
            [fresh.cache_key, cold.cache_key]
        )

    def test_tampered_manifest_version_triggers_rebuild(self, cached_engine):
        import json

        graph, measure, cache, cold = cached_engine
        manifest_path = cold._store.path_for(cold.cache_key) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        rebuilt, messages = self._rebuild(graph, measure, cache)
        assert any("stale or corrupt" in message for message in messages)
        nodes = list(graph.nodes())[:5]
        assert _all_pair_scores(rebuilt, nodes) == _all_pair_scores(cold, nodes)

    def test_uncacheable_generator_seed_warns_and_skips(self, cached_engine):
        graph, measure, cache, _ = cached_engine
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            engine = QueryEngine(
                graph, measure, method="mc", num_walks=25, length=5,
                seed=np.random.default_rng(0), cache_dir=cache,
            )
        assert any("cache_dir ignored" in str(w.message) for w in caught)
        assert engine.cache_key is None
