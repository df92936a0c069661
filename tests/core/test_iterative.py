"""Unit tests for the shared fixed-point engine."""

import numpy as np
import pytest

from repro.core.iterative import (
    IterationTrace,
    iterate_fixed_point,
    reference_fixed_point,
)
from repro.errors import ConfigurationError
from repro.hin import HIN
from repro.semantics import ConstantMeasure, MatrixMeasure, semantic_matrix

from tests.conftest import build_taxonomy_graph


class TestValidation:
    def test_decay_bounds(self, triangle_graph):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigurationError):
                iterate_fixed_point(triangle_graph, None, decay=bad)

    def test_max_iterations_bound(self, triangle_graph):
        with pytest.raises(ConfigurationError):
            iterate_fixed_point(triangle_graph, None, decay=0.6, max_iterations=0)

    def test_sem_matrix_shape_check(self, triangle_graph):
        with pytest.raises(ConfigurationError):
            iterate_fixed_point(
                triangle_graph, None, decay=0.6, sem_matrix=np.ones((2, 2))
            )


class TestBasics:
    def test_empty_graph(self):
        result = iterate_fixed_point(HIN(), None, decay=0.6)
        assert result.matrix.shape == (0, 0)
        assert result.converged

    def test_diagonal_pinned_to_one(self, triangle_graph):
        result = iterate_fixed_point(triangle_graph, None, decay=0.6)
        assert np.allclose(np.diag(result.matrix), 1.0)

    def test_pairs_without_in_neighbours_score_zero(self):
        g = HIN()
        g.add_edge("src", "a")
        g.add_edge("src2", "b")
        result = iterate_fixed_point(g, None, decay=0.6)
        # src and src2 have no in-neighbours.
        assert result.score("src", "src2") == 0.0
        assert result.score("src", "a") == 0.0

    def test_converges_and_reports(self, triangle_graph):
        result = iterate_fixed_point(
            triangle_graph, None, decay=0.6, tolerance=1e-8, max_iterations=200
        )
        assert result.converged
        assert result.trace.max_absolute_diff[-1] < 1e-8

    def test_as_dict_covers_all_pairs(self, triangle_graph):
        result = iterate_fixed_point(triangle_graph, None, decay=0.6)
        assert len(result.as_dict()) == 9


class TestAgainstReference:
    """The vectorised engine must match the literal quadruple loop."""

    @pytest.mark.parametrize("use_weights", [True, False])
    def test_simrank_semantics(self, triangle_graph, use_weights):
        iterations = 7
        fast = iterate_fixed_point(
            triangle_graph,
            None,
            decay=0.7,
            max_iterations=iterations,
            tolerance=0.0,
            use_weights=use_weights,
        )
        slow = reference_fixed_point(
            triangle_graph, None, decay=0.7, iterations=iterations, use_weights=use_weights
        )
        for (u, v), value in slow.items():
            assert fast.score(u, v) == pytest.approx(value, abs=1e-12)

    def test_semsim_semantics(self):
        graph, measure = build_taxonomy_graph()
        iterations = 6
        fast = iterate_fixed_point(
            graph, measure, decay=0.6, max_iterations=iterations, tolerance=0.0
        )
        slow = reference_fixed_point(graph, measure, decay=0.6, iterations=iterations)
        for (u, v), value in slow.items():
            assert fast.score(u, v) == pytest.approx(value, abs=1e-12)


class TestMatrixMeasureInPlace:
    """A MatrixMeasure already in graph order is read without a copy."""

    def test_in_place_read_equals_materialised_sem(self):
        graph, measure = build_taxonomy_graph()
        nodes = list(graph.nodes())
        matrix = MatrixMeasure.from_measure(measure, nodes)
        in_place = iterate_fixed_point(graph, matrix, decay=0.6)
        materialised = iterate_fixed_point(
            graph, None, decay=0.6, sem_matrix=semantic_matrix(matrix, nodes)
        )
        assert np.array_equal(in_place.matrix, materialised.matrix)

    @pytest.mark.parametrize("defect", ["asymmetric", "diagonal"])
    def test_non_canonical_matrix_is_still_materialised(self, defect):
        # semantic_matrix mirrors the upper triangle and pins the diagonal,
        # so a matrix that is not already in that form must not be read raw
        graph, measure = build_taxonomy_graph()
        nodes = list(graph.nodes())
        raw = semantic_matrix(measure, nodes)
        if defect == "asymmetric":
            raw[np.tril_indices(len(nodes), -1)] *= 0.5
        else:
            np.fill_diagonal(raw, 0.9)
        matrix = MatrixMeasure(nodes, raw)
        got = iterate_fixed_point(graph, matrix, decay=0.6)
        expected = iterate_fixed_point(
            graph, None, decay=0.6, sem_matrix=semantic_matrix(matrix, nodes)
        )
        raw_read = iterate_fixed_point(graph, None, decay=0.6, sem_matrix=raw)
        assert np.array_equal(got.matrix, expected.matrix)
        assert not np.array_equal(got.matrix, raw_read.matrix)


class TestEdgeLabelRestriction:
    def test_restricted_variant_differs_on_mixed_labels(self):
        g = HIN()
        g.add_edge("x", "u", label="red")
        g.add_edge("x", "v", label="blue")
        full = iterate_fixed_point(g, None, decay=0.6, max_iterations=5, tolerance=0.0)
        restricted = iterate_fixed_point(
            g, None, decay=0.6, max_iterations=5, tolerance=0.0, restrict_edge_labels=True
        )
        # u and v share the in-neighbour x but through differently labelled
        # edges: the restricted variant overlooks the relation entirely —
        # the paper's argument for not adopting it.
        assert full.score("u", "v") > 0.0
        assert restricted.score("u", "v") == 0.0

    def test_restricted_equals_full_on_single_label(self, triangle_graph):
        full = iterate_fixed_point(triangle_graph, None, decay=0.6, max_iterations=5, tolerance=0.0)
        restricted = iterate_fixed_point(
            triangle_graph, None, decay=0.6, max_iterations=5, tolerance=0.0,
            restrict_edge_labels=True,
        )
        assert np.allclose(full.matrix, restricted.matrix)


class TestIterationTrace:
    def test_records_diffs(self):
        trace = IterationTrace()
        trace.record(np.eye(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert trace.iterations == 1
        assert trace.avg_absolute_diff[0] == pytest.approx(0.5)
        assert trace.max_absolute_diff[0] == pytest.approx(0.5)
        assert trace.avg_relative_diff[0] == pytest.approx(1.0)

    def test_zero_matrix_relative_diff(self):
        trace = IterationTrace()
        trace.record(np.zeros((2, 2)), np.zeros((2, 2)))
        assert trace.avg_relative_diff[0] == 0.0
