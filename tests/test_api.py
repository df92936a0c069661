"""Tests of the `repro.api` facade (QueryEngine).

Includes the tier-1 guard that every public name in ``repro.api.__all__``
actually imports, so the facade can't silently lose surface area.
"""

import numpy as np
import pytest

import repro
import repro.api
from repro.api import QueryEngine
from repro.errors import ConfigurationError
from repro.semantics import MatrixMeasure
from tests.conftest import build_taxonomy_graph


@pytest.fixture(scope="module")
def taxonomy_graph():
    return build_taxonomy_graph()


@pytest.fixture(scope="module")
def mc_engine(taxonomy_graph):
    graph, measure = taxonomy_graph
    return QueryEngine(graph, measure, method="mc", decay=0.6,
                       num_walks=60, length=8, seed=7)


@pytest.fixture(scope="module")
def iterative_engine(taxonomy_graph):
    graph, measure = taxonomy_graph
    return QueryEngine(graph, measure, method="iterative", decay=0.6)


def test_all_public_names_importable():
    for name in repro.api.__all__:
        assert hasattr(repro.api, name), name
    # and the facade is re-exported from the package root
    assert repro.QueryEngine is QueryEngine
    assert "QueryEngine" in repro.__all__


class TestConstruction:
    def test_invalid_method_rejected(self, taxonomy_graph):
        # besides a typo, the names of deleted engine families
        graph, measure = taxonomy_graph
        for method in ("exact", "linear", "lowrank"):
            with pytest.raises(ConfigurationError, match="method"):
                QueryEngine(graph, measure, method=method)

    def test_invalid_materialize_flag_rejected(self, taxonomy_graph):
        graph, measure = taxonomy_graph
        with pytest.raises(ConfigurationError, match="materialize"):
            QueryEngine(graph, measure, materialize_semantics="maybe")

    def test_legacy_kwargs_rejected(self, taxonomy_graph):
        # Old spellings and the knobs of removed engine families TypeError.
        graph, measure = taxonomy_graph
        with pytest.raises(TypeError):
            QueryEngine(graph, measure, c=0.4, walks=10,
                        walk_length=4, seed=0)
        for legacy in (dict(rank=4), dict(max_states=100),
                       dict(estimator="iterative")):
            with pytest.raises(TypeError):
                QueryEngine(graph, measure, method="iterative", **legacy)

    def test_open_rejects_removed_engine_family(
        self, iterative_engine, tmp_path
    ):
        import json

        path = iterative_engine.save(tmp_path / "old.idx")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["params"]["method"] = "lowrank"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(repro.StoreError, match="'lowrank'"):
            QueryEngine.open(path)

    def test_open_hands_out_plain_views_of_the_mapping(
        self, mc_engine, tmp_path
    ):
        """Opened arrays are plain read-only ndarrays over the mapped
        files: no copy, and no memmap subclass for every kernel result
        to inherit."""
        opened = QueryEngine.open(mc_engine.save(tmp_path / "mc.idx"))
        estimator = opened.estimator
        for array in (
            opened.walk_index.walks, opened.walk_index.offsets,
            opened.walk_index.tables.q, estimator._sem_matrix,
            estimator._so_matrix,
        ):
            assert type(array) is np.ndarray
            assert not array.flags.writeable
            assert isinstance(array.base, np.memmap)

    def test_open_serves_int32_walk_artifacts(self, taxonomy_graph, tmp_path):
        """Artifacts store their walk and offset arrays at whatever integer
        dtype they were written with: one holding int32 tensors opens as
        int32 and serves the floats of the int16 engine it copies."""
        graph, measure = taxonomy_graph
        engine = QueryEngine(graph, measure, method="mc", decay=0.6,
                             num_walks=60, length=8, seed=7)
        narrow = engine.walk_index
        assert narrow.walks.dtype == narrow.offsets.dtype == np.int16
        wide = QueryEngine(graph, measure, method="mc", decay=0.6,
                           num_walks=60, length=8, seed=7)
        wide.walk_index.walks = narrow.walks.astype(np.int32)
        wide.walk_index.offsets = narrow.offsets.astype(np.int32)
        opened = QueryEngine.open(wide.save(tmp_path / "int32.idx"))
        walk_index = opened.walk_index
        assert walk_index.walks.dtype == walk_index.offsets.dtype == np.int32
        np.testing.assert_array_equal(walk_index.walks, narrow.walks)
        source = int(engine.node_positions(["x1"])[0])
        candidates = np.arange(graph.num_nodes, dtype=np.int64)
        sources = candidates[::-1].copy()
        assert opened.score("x1", "x2") == engine.score("x1", "x2")
        assert np.array_equal(
            opened.score_positions(source, candidates),
            engine.score_positions(source, candidates),
        )
        assert np.array_equal(
            opened.score_positions(sources, candidates),
            engine.score_positions(sources, candidates),
        )
        assert opened.top_k("x1", k=5) == engine.top_k("x1", k=5)

    def test_auto_materializes_measure(self, mc_engine):
        assert isinstance(mc_engine.measure, MatrixMeasure)

    def test_cold_build_times_semantic_materialisation(self, taxonomy_graph):
        from repro.obs.registry import get_registry, snapshot_delta

        graph, measure = taxonomy_graph
        before = get_registry().snapshot()
        QueryEngine(graph, measure, method="mc", num_walks=20, length=5, seed=3)
        delta = snapshot_delta(before, get_registry().snapshot())
        assert delta["histograms"]["semantics_materialize_seconds_count"] == 1

    def test_cold_iterative_build_materialises_sem_once(self, taxonomy_graph):
        # the solver reads the engine's MatrixMeasure in place instead of
        # gathering a second copy of it
        from repro.obs.registry import get_registry, snapshot_delta

        graph, measure = taxonomy_graph
        before = get_registry().snapshot()
        QueryEngine(graph, measure, method="iterative")
        delta = snapshot_delta(before, get_registry().snapshot())
        assert delta["histograms"]["semantics_materialize_seconds_count"] == 1

    def test_materialize_false_keeps_measure(self, taxonomy_graph):
        graph, measure = taxonomy_graph
        engine = QueryEngine(graph, measure, materialize_semantics=False,
                             num_walks=10, length=4, seed=0)
        assert engine.measure is measure

    def test_measure_none_gives_simrank(self, taxonomy_graph):
        graph, _ = taxonomy_graph
        mc = QueryEngine(graph, method="mc", num_walks=20, length=5, seed=0)
        it = QueryEngine(graph, method="iterative")
        assert mc.score("x1", "x1") == 1.0
        assert it.score("x1", "x1") == 1.0

    def test_from_error_target_plans_index(self, taxonomy_graph):
        graph, measure = taxonomy_graph
        engine = QueryEngine.from_error_target(
            graph, measure, epsilon=0.3, delta=0.2, seed=0
        )
        from repro.core.bounds import plan_index
        num_walks, length = plan_index(0.6, 0.3, 0.2, graph.num_nodes)
        assert engine.num_walks == num_walks
        assert engine.length == length

    def test_repr_names_backend(self, mc_engine, iterative_engine):
        assert "WalkIndex" in repr(mc_engine)
        assert "SemSim" in repr(iterative_engine)


class TestQueries:
    def test_score_matches_underlying_estimator(self, mc_engine):
        assert mc_engine.score("x1", "x2") == \
            mc_engine.estimator.similarity("x1", "x2")

    def test_score_batch_matches_score(self, mc_engine, taxonomy_graph):
        graph, _ = taxonomy_graph
        nodes = list(graph.nodes())
        batch = mc_engine.score_batch("x1", nodes)
        for node, value in zip(nodes, batch):
            assert value == mc_engine.score("x1", node)

    def test_iterative_score_batch_matches_score(
        self, iterative_engine, taxonomy_graph
    ):
        graph, _ = taxonomy_graph
        nodes = list(graph.nodes())
        batch = iterative_engine.score_batch("x1", nodes)
        for node, value in zip(nodes, batch):
            assert value == iterative_engine.score("x1", node)

    def test_single_source_defaults_to_all_nodes(self, mc_engine, taxonomy_graph):
        graph, _ = taxonomy_graph
        scores = mc_engine.single_source("x1")
        assert set(scores) == set(graph.nodes())
        assert scores["x1"] == 1.0

    def test_top_k_is_sorted_and_consistent(self, mc_engine, taxonomy_graph):
        graph, _ = taxonomy_graph
        candidates = [n for n in graph.nodes() if n != "x1"]
        results = mc_engine.top_k("x1", 3, candidates=candidates)
        assert len(results) == 3
        values = [v for _, v in results]
        assert values == sorted(values, reverse=True)
        for node, value in results:
            assert value == pytest.approx(mc_engine.score("x1", node))

    def test_top_k_agrees_across_methods_on_ranking(self, iterative_engine,
                                                    taxonomy_graph):
        graph, _ = taxonomy_graph
        candidates = [n for n in graph.nodes() if n != "x1"]
        results = iterative_engine.top_k("x1", 2, candidates=candidates)
        full = iterative_engine.single_source("x1", candidates)
        best = sorted(full.items(), key=lambda item: -item[1])[:2]
        assert [v for _, v in results] == [v for _, v in best]

    def test_join_mc_scores_above_threshold(self, mc_engine):
        for u, v, value in mc_engine.join(0.01):
            assert u != v
            assert value > 0.01
            assert value == pytest.approx(mc_engine.score(u, v))

    def test_join_iterative_matches_matrix(self, iterative_engine,
                                           taxonomy_graph):
        graph, _ = taxonomy_graph
        joined = iterative_engine.join(0.05)
        seen = {frozenset((u, v)) for u, v, _ in joined}
        assert len(seen) == len(joined)  # unordered pairs, no duplicates
        for u, v, value in joined:
            assert value == iterative_engine.score(u, v)
            assert value > 0.05
        # completeness: every above-threshold pair is present
        nodes = list(graph.nodes())
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                if iterative_engine.score(u, v) > 0.05:
                    assert frozenset((u, v)) in seen

    def test_join_iterative_restrict_to(self, iterative_engine):
        subset = {"x1", "x2", "x3"}
        for u, v, _ in iterative_engine.join(0.01, restrict_to=subset):
            assert u in subset and v in subset

    def test_join_invalid_threshold(self, iterative_engine):
        with pytest.raises(ConfigurationError, match="min_score"):
            iterative_engine.join(0.0)

    def test_candidate_pairs_requires_mc(self, iterative_engine, mc_engine):
        with pytest.raises(ConfigurationError, match="mc"):
            iterative_engine.candidate_pairs()
        pairs = list(mc_engine.candidate_pairs())
        assert all(u != v for u, v in pairs)


class TestStats:
    def test_stats_are_per_engine(self, taxonomy_graph):
        graph, measure = taxonomy_graph
        a = QueryEngine(graph, measure, num_walks=10, length=4, seed=0)
        b = QueryEngine(graph, measure, num_walks=10, length=4, seed=0)
        a.score("x1", "x2")
        assert a.stats.queries == 1
        assert b.stats.queries == 0

    def test_reset_stats(self, taxonomy_graph):
        graph, measure = taxonomy_graph
        engine = QueryEngine(graph, measure, num_walks=10, length=4, seed=0)
        engine.score_batch("x1", ["x2", "x3"])
        assert engine.stats.batch_pairs == 2
        engine.reset_stats()
        assert engine.stats.batch_pairs == 0

    def test_iterative_engine_counts_queries(self, taxonomy_graph):
        graph, measure = taxonomy_graph
        engine = QueryEngine(graph, measure, method="iterative")
        engine.score("x1", "x2")
        engine.score_batch("x1", ["x2", "x3"])
        assert engine.stats.queries == 3
        assert engine.stats.batch_queries == 1
        assert engine.stats.vectorized_pairs == 2


def test_cli_query_and_topk_run_on_facade(tmp_path, capsys):
    from repro.cli import main
    from repro.datasets import aminer_like
    from repro.datasets.io import save_bundle_json

    bundle = aminer_like(num_authors=20, num_terms=12, seed=3)
    path = tmp_path / "bundle.json"
    save_bundle_json(bundle, str(path))
    capsys.readouterr()

    u, v = bundle.entity_nodes[0], bundle.entity_nodes[1]
    assert main(["query", str(path), u, v, "--method", "mc",
                 "--walks", "20", "--length", "5", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "semsim" in out and "[mc]" in out

    assert main(["topk", str(path), u, "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "top-3" in out

    # config errors surface as a clean CLI error, not a traceback
    assert main(["query", str(path), u, v, "--theta", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "theta must lie in [0, 1]" in err
