"""Unit tests for Lin's measure."""

import pytest

from repro.errors import ConfigurationError
from repro.semantics import LinMeasure, MatrixMeasure, validate_measure
from repro.taxonomy import Taxonomy


@pytest.fixture
def taxonomy() -> Taxonomy:
    return Taxonomy.from_edges(
        [
            ("dog", "animal"),
            ("cat", "animal"),
            ("oak", "plant"),
            ("animal", "root"),
            ("plant", "root"),
        ]
    )


class TestLin:
    def test_self_similarity(self, taxonomy):
        assert LinMeasure(taxonomy).similarity("dog", "dog") == 1.0

    def test_siblings_beat_cross_branch(self, taxonomy):
        lin = LinMeasure(taxonomy)
        assert lin.similarity("dog", "cat") > lin.similarity("dog", "oak")

    def test_formula_with_explicit_ic(self, taxonomy):
        ic = {"root": 0.1, "animal": 0.5, "plant": 0.5, "dog": 1.0, "cat": 1.0, "oak": 1.0}
        lin = LinMeasure(taxonomy, ic=ic)
        # 2 * IC(animal) / (IC(dog) + IC(cat))
        assert lin.similarity("dog", "cat") == pytest.approx(0.5)

    def test_symmetry(self, taxonomy):
        lin = LinMeasure(taxonomy)
        assert lin.similarity("dog", "oak") == lin.similarity("oak", "dog")

    def test_unknown_node_gets_floor(self, taxonomy):
        lin = LinMeasure(taxonomy, floor=0.001)
        assert lin.similarity("dog", "unknown-node") == 0.001

    def test_disjoint_fragments_get_floor(self):
        t = Taxonomy()
        t.add_concept("island-a")
        t.add_concept("island-b")
        lin = LinMeasure(t, ic={"island-a": 1.0, "island-b": 1.0}, floor=0.01)
        assert lin.similarity("island-a", "island-b") == 0.01

    def test_axioms_hold(self, taxonomy):
        validate_measure(LinMeasure(taxonomy), list(taxonomy.concepts()))

    def test_invalid_floor_rejected(self, taxonomy):
        with pytest.raises(ConfigurationError):
            LinMeasure(taxonomy, floor=0.0)

    def test_invalid_ic_rejected(self, taxonomy):
        ic = {c: 0.5 for c in taxonomy.concepts()}
        ic["dog"] = 1.5
        with pytest.raises(ConfigurationError):
            LinMeasure(taxonomy, ic=ic)

    def test_incomplete_ic_rejected(self, taxonomy):
        ic = {c: 0.5 for c in taxonomy.concepts()}
        del ic["dog"]
        with pytest.raises(ConfigurationError, match="'dog'"):
            LinMeasure(taxonomy, ic=ic)

    def test_materialising_leaves_memo_empty(self, taxonomy):
        lin = LinMeasure(taxonomy)
        nodes = list(taxonomy.concepts()) + ["unknown-node"]
        dense = MatrixMeasure.from_measure(lin, nodes)
        assert lin._memo.cache_size == 0
        assert dense.similarity("dog", "cat") == lin.similarity("dog", "cat")

    def test_lca_exposed(self, taxonomy):
        lin = LinMeasure(taxonomy)
        assert lin.lowest_common_ancestor("dog", "cat") == "animal"
        assert lin.lowest_common_ancestor("dog", "ghost") is None

    def test_uses_tree_lca_on_trees(self, taxonomy):
        assert LinMeasure(taxonomy)._tree_lca is not None

    def test_dag_falls_back_to_mica(self):
        t = Taxonomy()
        t.add_concept("r")
        t.add_concept("a", parents=["r"])
        t.add_concept("b", parents=["r"])
        t.add_concept("c", parents=["a", "b"])
        lin = LinMeasure(t)
        assert lin._tree_lca is None
        assert 0 < lin.similarity("c", "a") <= 1

    def test_caching_returns_same_value(self, taxonomy):
        lin = LinMeasure(taxonomy)
        first = lin.similarity("dog", "cat")
        assert lin.similarity("dog", "cat") == first
