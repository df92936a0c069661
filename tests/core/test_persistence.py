"""Tests for walk-index persistence and the sparse iterative engine."""

import gc
import json
import warnings

import numpy as np
import pytest

from repro.core import (
    MonteCarloSemSim,
    WalkIndex,
    WalkPolicy,
    load_walk_index,
    save_walk_index,
)
from repro.core.iterative import iterate_fixed_point
from repro.errors import GraphError
from repro.hin import HIN

from tests.conftest import build_taxonomy_graph


class TestWalkIndexPersistence:
    def test_round_trip_preserves_walks(self, tmp_path):
        graph, _ = build_taxonomy_graph()
        original = WalkIndex(graph, num_walks=20, length=8, seed=4)
        path = tmp_path / "index.npz"
        save_walk_index(original, path)
        restored = load_walk_index(graph, path)
        assert np.array_equal(restored.walks, original.walks)
        assert np.array_equal(restored.offsets, original.offsets)
        assert restored.num_walks == original.num_walks
        assert restored.length == original.length
        assert restored.policy is original.policy

    def test_round_trip_preserves_estimates(self, tmp_path):
        graph, measure = build_taxonomy_graph()
        original = WalkIndex(graph, num_walks=200, length=10, seed=4)
        path = tmp_path / "index.npz"
        save_walk_index(original, path)
        restored = load_walk_index(graph, path)
        a = MonteCarloSemSim(original, measure, decay=0.6, theta=None)
        b = MonteCarloSemSim(restored, measure, decay=0.6, theta=None)
        assert a.similarity("mid1", "mid2") == b.similarity("mid1", "mid2")

    def test_weighted_policy_round_trips(self, tmp_path):
        graph, _ = build_taxonomy_graph()
        original = WalkIndex(
            graph, num_walks=10, length=5, policy=WalkPolicy.WEIGHTED, seed=0
        )
        path = tmp_path / "index.npz"
        save_walk_index(original, path)
        assert load_walk_index(graph, path).policy is WalkPolicy.WEIGHTED

    def test_mismatched_graph_rejected(self, tmp_path):
        graph, _ = build_taxonomy_graph()
        original = WalkIndex(graph, num_walks=5, length=4, seed=0)
        path = tmp_path / "index.npz"
        save_walk_index(original, path)
        other = HIN()
        other.add_edge("a", "b")
        with pytest.raises(GraphError):
            load_walk_index(other, path)


def _metadata_array(metadata: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(metadata).encode("utf-8"), dtype=np.uint8)


class TestHardenedWalkIndexLoad:
    """Every broken payload must raise GraphError — never a wrong index."""

    @pytest.fixture()
    def saved(self, tmp_path):
        graph, _ = build_taxonomy_graph()
        index = WalkIndex(graph, num_walks=5, length=4, seed=0)
        path = tmp_path / "index.npz"
        save_walk_index(index, path)
        return graph, index, path

    def test_walks_of_changed_edges_rejected(self, tmp_path):
        """Walks saved before an edge change fail closed: their step
        offsets would read W and Q of whatever edge now sits there."""
        graph, _ = build_taxonomy_graph()
        path = tmp_path / "index.npz"
        save_walk_index(WalkIndex(graph, num_walks=200, length=12, seed=5), path)
        graph.remove_edge("x2", "x1")
        graph.remove_edge("mid1", "x1")
        with pytest.raises(GraphError, match="does not follow this graph's edges"):
            load_walk_index(graph, path)

    @pytest.mark.parametrize("tamper", ["offset-range", "offset-target", "dead-offset"])
    def test_steps_off_the_graph_rejected(self, saved, tamper):
        graph, index, path = saved
        walks, offsets = index.walks.copy(), index.offsets.copy()
        degrees = index.tables.degrees
        if tamper == "offset-range":
            offsets[0, 0, 0] = degrees[walks[0, 0, 0]]
        elif tamper == "offset-target":
            # another in-edge of the same node: in range, wrong next node
            offsets[0, 0, 0] = (offsets[0, 0, 0] + 1) % degrees[walks[0, 0, 0]]
        else:
            walks[0, 0, -1] = -1
        tampered = WalkIndex.from_arrays(
            graph, walks, offsets=offsets, num_walks=index.num_walks,
            length=index.length,
        )
        save_walk_index(tampered, path)
        with pytest.raises(GraphError, match="stored walk index"):
            load_walk_index(graph, path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        graph, _ = build_taxonomy_graph()
        with pytest.raises(FileNotFoundError):
            load_walk_index(graph, tmp_path / "absent.npz")

    def test_truncated_file_rejected(self, saved):
        graph, _, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(GraphError, match="corrupt or truncated"):
            load_walk_index(graph, path)

    def test_truncated_file_leaves_no_open_handle(self, saved):
        graph, _, path = saved
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])

        def refused() -> bool:
            # no excinfo is kept: its traceback would pin a leaked handle
            try:
                load_walk_index(graph, path)
            except GraphError:
                return True
            return False

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert refused()
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_garbage_file_rejected(self, saved):
        graph, _, path = saved
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(GraphError, match="corrupt or truncated"):
            load_walk_index(graph, path)

    def test_missing_walks_entry_rejected(self, saved):
        graph, index, path = saved
        np.savez_compressed(
            path,
            metadata=_metadata_array({
                "format": "repro-walk-index", "version": 2,
                "num_walks": 5, "length": 4, "policy": "uniform",
                "nodes": [str(node) for node in graph.nodes()],
            }),
        )
        with pytest.raises(GraphError, match="missing its 'walks' entry"):
            load_walk_index(graph, path)

    def test_missing_metadata_entry_rejected(self, saved):
        graph, index, path = saved
        np.savez_compressed(path, walks=index.walks)
        with pytest.raises(GraphError, match="missing its 'metadata' entry"):
            load_walk_index(graph, path)

    def test_missing_offsets_entry_rejected(self, saved):
        """A version-2 file (walks without step offsets) fails closed."""
        graph, index, path = saved
        np.savez_compressed(
            path,
            walks=index.walks,
            metadata=_metadata_array({
                "format": "repro-walk-index", "version": 2,
                "num_walks": 5, "length": 4, "policy": "uniform",
                "nodes": [str(node) for node in graph.nodes()],
            }),
        )
        with pytest.raises(GraphError, match="missing its 'offsets' entry"):
            load_walk_index(graph, path)

    def test_unreadable_metadata_rejected(self, saved):
        graph, index, path = saved
        np.savez_compressed(
            path,
            walks=index.walks,
            offsets=index.offsets,
            metadata=np.frombuffer(b"{not json", dtype=np.uint8),
        )
        with pytest.raises(GraphError, match="unreadable metadata"):
            load_walk_index(graph, path)

    def test_wrong_format_marker_rejected(self, saved):
        graph, index, path = saved
        self._rewrite(path, index, graph, format="some-other-format")
        with pytest.raises(GraphError, match="declares format"):
            load_walk_index(graph, path)

    def test_future_version_rejected(self, saved):
        graph, index, path = saved
        self._rewrite(path, index, graph, version=99)
        with pytest.raises(GraphError, match="unsupported format version"):
            load_walk_index(graph, path)

    def test_legacy_unversioned_payload_rejected(self, saved):
        """Files older than the step offsets fail closed; a walk file is
        a seeded sample, drawn again rather than migrated."""
        graph, index, path = saved
        for version in (None, 1, 2):
            self._rewrite(path, index, graph, version=version)
            with pytest.raises(GraphError, match="unsupported format version"):
                load_walk_index(graph, path)
        self._rewrite(path, index, graph, format=None, version=None)
        with pytest.raises(GraphError, match="declares format None"):
            load_walk_index(graph, path)

    def test_missing_metadata_keys_rejected(self, saved):
        graph, index, path = saved
        self._rewrite(path, index, graph, drop=("policy", "nodes"))
        with pytest.raises(GraphError, match="missing metadata keys"):
            load_walk_index(graph, path)

    def test_shape_metadata_disagreement_rejected(self, saved):
        graph, index, path = saved
        self._rewrite(path, index, graph, num_walks=7)
        with pytest.raises(GraphError, match="internally inconsistent"):
            load_walk_index(graph, path)
        self._rewrite(path, index, graph, offsets=index.offsets[:, :, :-1])
        with pytest.raises(GraphError, match="inconsistent: offset tensor"):
            load_walk_index(graph, path)

    def test_float_walk_tensor_rejected(self, saved):
        graph, index, path = saved
        self._rewrite(path, index, graph, walks=index.walks.astype(np.float64))
        with pytest.raises(GraphError, match="invalid walk tensor"):
            load_walk_index(graph, path)


    def test_unknown_policy_rejected(self, saved):
        graph, index, path = saved
        self._rewrite(path, index, graph, policy="antigravity")
        with pytest.raises(GraphError, match="unknown proposal policy"):
            load_walk_index(graph, path)

    @staticmethod
    def _rewrite(path, index, graph, walks=None, offsets=None, drop=(), **overrides):
        metadata = {
            "format": "repro-walk-index",
            "version": 3,
            "num_walks": index.num_walks,
            "length": index.length,
            "policy": index.policy.value,
            "nodes": [str(node) for node in graph.nodes()],
        }
        metadata.update(overrides)
        metadata = {
            key: value for key, value in metadata.items()
            if value is not None and key not in drop
        }
        np.savez_compressed(
            path,
            walks=index.walks if walks is None else walks,
            offsets=index.offsets if offsets is None else offsets,
            metadata=_metadata_array(metadata),
        )


class TestSparseEngine:
    def test_sparse_matches_dense_semsim(self):
        graph, measure = build_taxonomy_graph()
        dense = iterate_fixed_point(
            graph, measure, decay=0.6, max_iterations=15, tolerance=0.0
        )
        sparse = iterate_fixed_point(
            graph, measure, decay=0.6, max_iterations=15, tolerance=0.0,
            sparse_adjacency=True,
        )
        assert np.allclose(dense.matrix, sparse.matrix, atol=1e-12)

    def test_sparse_matches_dense_simrank(self, triangle_graph):
        dense = iterate_fixed_point(
            triangle_graph, None, decay=0.8, max_iterations=20, tolerance=0.0,
            use_weights=False,
        )
        sparse = iterate_fixed_point(
            triangle_graph, None, decay=0.8, max_iterations=20, tolerance=0.0,
            use_weights=False, sparse_adjacency=True,
        )
        assert np.allclose(dense.matrix, sparse.matrix, atol=1e-12)

    def test_sparse_with_label_restriction(self):
        g = HIN()
        g.add_edge("x", "u", label="red")
        g.add_edge("x", "v", label="blue")
        g.add_edge("y", "u", label="red")
        g.add_edge("y", "v", label="red")
        dense = iterate_fixed_point(
            g, None, decay=0.6, max_iterations=6, tolerance=0.0,
            restrict_edge_labels=True,
        )
        sparse = iterate_fixed_point(
            g, None, decay=0.6, max_iterations=6, tolerance=0.0,
            restrict_edge_labels=True, sparse_adjacency=True,
        )
        assert np.allclose(dense.matrix, sparse.matrix, atol=1e-12)


class TestConfidenceIntervals:
    def test_interval_contains_estimate(self):
        graph, measure = build_taxonomy_graph()
        index = WalkIndex(graph, num_walks=500, length=15, seed=2)
        estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=None)
        estimate, half = estimator.similarity_with_interval("mid1", "mid2")
        assert estimate == pytest.approx(estimator.similarity("mid1", "mid2"))
        assert half > 0

    def test_interval_shrinks_with_walks(self):
        graph, measure = build_taxonomy_graph()
        small = WalkIndex(graph, num_walks=100, length=15, seed=2)
        large = WalkIndex(graph, num_walks=2000, length=15, seed=2)
        _, half_small = MonteCarloSemSim(small, measure, 0.6, None).similarity_with_interval("mid1", "mid2")
        _, half_large = MonteCarloSemSim(large, measure, 0.6, None).similarity_with_interval("mid1", "mid2")
        assert half_large < half_small

    def test_identity_and_gated_pairs(self):
        graph, measure = build_taxonomy_graph()
        index = WalkIndex(graph, num_walks=50, length=8, seed=2)
        estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=0.9)
        assert estimator.similarity_with_interval("x1", "x1") == (1.0, 0.0)
        assert estimator.similarity_with_interval("x1", "x3") == (0.0, 0.0)

    def test_interval_covers_truth_mostly(self):
        from repro.core.semsim import semsim_scores

        graph, measure = build_taxonomy_graph()
        truth = semsim_scores(graph, measure, decay=0.6, tolerance=1e-12, max_iterations=300)
        covered = 0
        runs = 20
        for seed in range(runs):
            index = WalkIndex(graph, num_walks=300, length=18, seed=seed)
            estimator = MonteCarloSemSim(index, measure, decay=0.6, theta=None)
            estimate, half = estimator.similarity_with_interval("mid1", "mid2")
            if abs(estimate - truth.score("mid1", "mid2")) <= half + 0.01:
                covered += 1
        assert covered >= runs * 0.8  # ~95% nominal coverage, slack for MC