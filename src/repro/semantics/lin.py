"""Lin's information-theoretic similarity (the paper's measure of choice).

    ``Lin(u, v) = 2 * IC(LCA(u, v)) / (IC(u) + IC(v))``

The measure reads as the ratio between the information shared by two
concepts (their most informative common ancestor) and the information needed
to describe them individually.  With IC values in ``(0, 1]`` (see
:mod:`repro.taxonomy.ic`) Lin satisfies all three SemSim axioms.

Concepts with no common ancestor — or nodes missing from the taxonomy
altogether — score the configurable *floor* (the paper normalises scores
into ``[0 + eps, 1]`` for exactly this reason; strictly-zero values would
break the range axiom).
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, TaxonomyError
from repro.semantics.cache import CachedMeasure
from repro.taxonomy.ic import seco_information_content
from repro.taxonomy.lca import (
    TreeLCA,
    informativeness_key,
    most_informative_common_ancestor,
)
from repro.taxonomy.taxonomy import Concept, Taxonomy

#: Default similarity assigned to pairs with no shared ancestor.
DEFAULT_FLOOR = 1e-4


class LinMeasure:
    """Lin similarity over a taxonomy with pluggable IC values.

    Parameters
    ----------
    taxonomy:
        The concept hierarchy (tree or DAG).
    ic:
        Optional explicit IC table with a value in ``(0, 1]`` for every
        taxonomy concept.  When omitted the adapted-Seco intrinsic IC is
        computed from the taxonomy itself.
    floor:
        Similarity assigned when two concepts share no ancestor or a node is
        unknown; must lie in ``(0, 1)`` to preserve the range axiom.

    Single-pair queries are O(1) on tree taxonomies (Euler-tour LCA, per the
    paper's use of Harel-Tarjan [11]) and O(ancestors) on DAGs, both after
    linear-time preprocessing, and a memo makes repeated pairs constant
    either way.  Dense scores — what :func:`~repro.semantics.base.semantic_matrix`
    builds for every vectorised engine — come from :meth:`block` in one
    numpy pass instead, so they leave no memo entries behind.
    """

    def __init__(
        self,
        taxonomy: Taxonomy,
        ic: Mapping[Concept, float] | None = None,
        floor: float = DEFAULT_FLOOR,
    ) -> None:
        if not 0 < floor < 1:
            raise ConfigurationError(f"floor must lie in (0, 1), got {floor!r}")
        self.taxonomy = taxonomy
        self.ic = dict(ic) if ic is not None else seco_information_content(taxonomy)
        for concept, value in self.ic.items():
            if not 0 < value <= 1:
                raise ConfigurationError(
                    f"IC of {concept!r} must lie in (0, 1] for Lin, got {value!r}"
                )
        for concept in taxonomy.concepts():
            if concept not in self.ic:
                raise ConfigurationError(
                    f"IC table has no value for taxonomy concept {concept!r}"
                )
        self.floor = float(floor)
        self._tree_lca: TreeLCA | None = None
        if taxonomy.is_tree() and len(taxonomy) > 1:
            try:
                self._tree_lca = TreeLCA(taxonomy)
            except TaxonomyError:  # pragma: no cover - is_tree() already vetted
                self._tree_lca = None
        self._memo = CachedMeasure(self._compute)

    def similarity(self, a: Hashable, b: Hashable) -> float:
        """Return ``Lin(a, b)`` clamped into ``[floor, 1]``."""
        return self._memo.similarity(a, b)

    def block(self, rows: Sequence[Hashable], cols: Sequence[Hashable]) -> np.ndarray:
        """Return ``Lin(rows[i], cols[j])`` for every cell as one array.

        Each cell equals :meth:`similarity` of its pair bit for bit, with
        no Python work per pair and no memo entries.  Every concept ``c``
        above a row and a column node writes ``IC(c)`` into the cells of
        (rows below ``c``) x (columns below ``c``), in ascending order of
        the rule :meth:`lowest_common_ancestor` picks by (depth on a tree,
        :func:`~repro.taxonomy.lca.informativeness_key` on a DAG), so each
        cell ends on ``IC(LCA)``: O(len(rows)·len(cols)·(depth+1)) element
        writes.  Lin's formula and the ``[floor, 1]`` clamp then run once
        over the whole block.
        """
        row_below = self._positions_below(rows)
        col_below = self._positions_below(cols)
        rank = (
            self.taxonomy.depth if self._tree_lca is not None
            else informativeness_key(self.taxonomy, self.ic)
        )
        scores = np.zeros((len(rows), len(cols)))
        for concept in sorted(row_below.keys() & col_below.keys(), key=rank):
            scores[np.ix_(row_below[concept], col_below[concept])] = self.ic[concept]
        # A cell still at 0 shares no ancestor or has a node outside the
        # taxonomy; its score stays 0 and the clamp lifts it to the floor.
        scores *= 2.0
        scores /= self._ic_vector(rows)[:, None] + self._ic_vector(cols)[None, :]
        np.maximum(scores, self.floor, out=scores)
        np.minimum(scores, 1.0, out=scores)
        ids: dict[Hashable, int] = {}
        row_ids = np.fromiter(
            (ids.setdefault(v, len(ids)) for v in rows), dtype=np.intp, count=len(rows)
        )
        col_ids = np.fromiter(
            (ids.setdefault(v, len(ids)) for v in cols), dtype=np.intp, count=len(cols)
        )
        scores[row_ids[:, None] == col_ids[None, :]] = 1.0
        return scores

    def _positions_below(self, nodes: Sequence[Hashable]) -> dict[Concept, list[int]]:
        """Map every ancestor of a taxonomy node in *nodes* to its positions."""
        below: dict[Concept, list[int]] = {}
        for position, node in enumerate(nodes):
            if node in self.taxonomy:
                for concept in self.taxonomy.ancestors(node):
                    below.setdefault(concept, []).append(position)
        return below

    def _ic_vector(self, nodes: Sequence[Hashable]) -> np.ndarray:
        """IC of each node; 1.0 keeps the denominator of outsiders positive."""
        return np.fromiter(
            (self.ic[v] if v in self.taxonomy else 1.0 for v in nodes),
            dtype=np.float64, count=len(nodes),
        )

    def lowest_common_ancestor(self, a: Concept, b: Concept) -> Concept | None:
        """Return the LCA used for the pair (``None`` if disjoint)."""
        if a not in self.taxonomy or b not in self.taxonomy:
            return None
        if self._tree_lca is not None:
            return self._tree_lca.query(a, b)
        return most_informative_common_ancestor(self.taxonomy, self.ic, a, b)

    def _compute(self, a: Concept, b: Concept) -> float:
        if a not in self.taxonomy or b not in self.taxonomy:
            return self.floor
        ancestor = self.lowest_common_ancestor(a, b)
        if ancestor is None:
            return self.floor
        denominator = self.ic[a] + self.ic[b]
        score = 2.0 * self.ic[ancestor] / denominator
        return min(1.0, max(self.floor, score))

    def __repr__(self) -> str:
        return f"LinMeasure(concepts={len(self.taxonomy)}, floor={self.floor})"
