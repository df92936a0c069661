"""Lowest common ancestors.

Lin's measure needs ``LCA(u, v)`` in the taxonomy.  For general DAG
taxonomies the appropriate notion is the *most informative common ancestor*
(the shared ancestor with the highest IC) — for a tree this coincides with
the ordinary LCA under any monotone IC.

For strict trees we additionally provide :class:`TreeLCA`, a classic
Euler-tour + sparse-table RMQ structure (Harel & Tarjan [11], as cited by the
paper for its constant-time Lin computations): O(n log n) preprocessing,
O(1) per query.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import NodeNotFoundError, TaxonomyError
from repro.taxonomy.taxonomy import Concept, Taxonomy


def informativeness_key(
    taxonomy: Taxonomy, ic: Mapping[Concept, float]
) -> Callable[[Concept], tuple]:
    """Return the ranking :func:`most_informative_common_ancestor` maximises.

    IC first; ties break by depth (deeper = more specific) and then by a
    stable string key, so results do not depend on set iteration order.
    """
    return lambda c: (ic[c], taxonomy.depth(c), str(c))


def most_informative_common_ancestor(
    taxonomy: Taxonomy,
    ic: Mapping[Concept, float],
    a: Concept,
    b: Concept,
) -> Concept | None:
    """Return the common ancestor of *a* and *b* with maximum IC.

    Returns ``None`` when the concepts share no ancestor (disconnected
    taxonomy fragments).  Candidates rank by :func:`informativeness_key`.
    """
    shared = taxonomy.common_ancestors(a, b)
    if not shared:
        return None
    return max(shared, key=informativeness_key(taxonomy, ic))


class TreeLCA:
    """Constant-time LCA queries on a *tree* taxonomy.

    Builds the Euler tour of the tree and a sparse table over tour depths, so
    each query is two table lookups.  The paper relies on this construction
    ([11]) to make single-pair Lin computations O(1) after preprocessing.

    Raises :class:`TaxonomyError` if the taxonomy is not a single-rooted tree.
    """

    def __init__(self, taxonomy: Taxonomy) -> None:
        if not taxonomy.is_tree():
            raise TaxonomyError("TreeLCA requires a single-rooted tree taxonomy")
        self._taxonomy = taxonomy
        root = taxonomy.roots()[0]

        # Iterative Euler tour over child edges.  We re-append a node to the
        # tour every time control returns to it from a child.
        tour: list[Concept] = []
        depths: list[int] = []
        first_visit: dict[Concept, int] = {}
        frames: list[tuple[Concept, int, list[Concept]]] = [(root, 0, list(taxonomy.children(root)))]
        tour.append(root)
        depths.append(0)
        first_visit[root] = 0
        while frames:
            node, depth, remaining = frames[-1]
            if remaining:
                child = remaining.pop(0)
                tour.append(child)
                depths.append(depth + 1)
                first_visit.setdefault(child, len(tour) - 1)
                frames.append((child, depth + 1, list(taxonomy.children(child))))
            else:
                frames.pop()
                if frames:
                    parent_node, parent_depth, _ = frames[-1]
                    tour.append(parent_node)
                    depths.append(parent_depth)

        self._tour = tour
        self._first = first_visit
        self._table = self._build_sparse_table(depths)
        self._depths = depths

    @staticmethod
    def _build_sparse_table(depths: list[int]) -> list[list[int]]:
        """Sparse table of argmin-depth indices over the Euler tour."""
        m = len(depths)
        levels = max(1, m.bit_length())
        table: list[list[int]] = [list(range(m))]
        length = 1
        for _ in range(1, levels):
            previous = table[-1]
            next_length = length * 2
            if next_length > m:
                break
            row = []
            for i in range(m - next_length + 1):
                left = previous[i]
                right = previous[i + length]
                row.append(left if depths[left] <= depths[right] else right)
            table.append(row)
            length = next_length
        return table

    def query(self, a: Concept, b: Concept) -> Concept:
        """Return ``LCA(a, b)`` in O(1)."""
        try:
            i, j = self._first[a], self._first[b]
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None
        if i > j:
            i, j = j, i
        span = j - i + 1
        level = span.bit_length() - 1
        left = self._table[level][i]
        right = self._table[level][j - (1 << level) + 1]
        winner = left if self._depths[left] <= self._depths[right] else right
        return self._tour[winner]
