"""Caching wrappers around semantic measures.

The paper assumes single-pair semantic scores cost O(1) "possibly after
pre-processing, without materialising the n x n matrix of scores"
(Section 2.3).  :class:`CachedMeasure` provides the lazy variant (memoise on
first touch, one pair at a time); :class:`MatrixMeasure` provides the eager
variant for node sets where a dense numpy matrix is the fastest
representation — it is what the vectorised engines consume, built by
:func:`~repro.semantics.base.semantic_matrix` in one ``block`` call for
measures that have one (Lin) and pair by pair for the rest.
"""

from __future__ import annotations

import threading
from typing import Hashable, Sequence

import numpy as np

from repro.errors import NodeNotFoundError
from repro.semantics.base import SemanticMeasure, semantic_matrix

Node = Hashable


class CachedMeasure:
    """Memoising decorator around any :class:`SemanticMeasure`.

    Unordered pairs are cached under a canonical key, so the wrapper also
    enforces symmetry of responses even for an inner measure with asymmetric
    floating-point noise.  *inner* may be a measure object or a bare
    ``f(a, b) -> float`` callable — the latter lets taxonomy measures reuse
    this memo for their own pair computation instead of hand-rolling one.

    The memo is safe to share across serving workers: misses compute
    outside the lock (two racing threads may both evaluate the same pair),
    but insertion goes through a locked ``setdefault``, so exactly one
    value becomes canonical and every caller returns it — the memo dict is
    never mutated concurrently with another mutation.
    """

    def __init__(self, inner: SemanticMeasure) -> None:
        self.inner = inner
        self._similarity = (
            inner.similarity if hasattr(inner, "similarity") else inner
        )
        self._cache: dict[tuple[Node, Node], float] = {}
        self._lock = threading.Lock()

    def similarity(self, a: Node, b: Node) -> float:
        """Return the cached ``sem(a, b)``."""
        if a == b:
            return 1.0
        key = (a, b) if repr(a) <= repr(b) else (b, a)
        cached = self._cache.get(key)
        if cached is None:
            value = self._similarity(*key)
            with self._lock:
                cached = self._cache.setdefault(key, value)
        return cached

    @property
    def cache_size(self) -> int:
        """Number of distinct pairs evaluated so far."""
        return len(self._cache)

    def __repr__(self) -> str:
        return f"CachedMeasure({self.inner!r}, cached={self.cache_size})"


class MatrixMeasure:
    """A measure backed by a fully materialised similarity matrix.

    Build one with :meth:`from_measure` or directly from a precomputed
    symmetric matrix.  Lookups are two dict hits and one array read.
    """

    def __init__(self, nodes: Sequence[Node], matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (len(nodes), len(nodes)):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(nodes)} nodes"
            )
        self.nodes = list(nodes)
        self.matrix = matrix
        self._position = {node: i for i, node in enumerate(self.nodes)}

    @classmethod
    def from_measure(cls, measure: SemanticMeasure, nodes: Sequence[Node]) -> "MatrixMeasure":
        """Materialise *measure* over *nodes* with :func:`semantic_matrix`.

        One ``measure.block(nodes, nodes)`` call when the measure has a
        ``block`` method (Lin, or another :class:`MatrixMeasure`); otherwise
        ``n*(n-1)/2`` single-pair evaluations.
        """
        return cls(nodes, semantic_matrix(measure, nodes))

    def similarity(self, a: Node, b: Node) -> float:
        """Return the precomputed ``sem(a, b)``."""
        try:
            return float(self.matrix[self._position[a], self._position[b]])
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None

    def similarities(self, a: Node, others: Sequence[Node]) -> np.ndarray:
        """Return ``sem(a, v)`` for every ``v`` in *others* as one gather.

        The values are the same matrix elements :meth:`similarity` reads
        one by one, so downstream float comparisons are unchanged.
        """
        try:
            row = self.matrix[self._position[a]]
            cols = np.fromiter(
                (self._position[v] for v in others),
                dtype=np.intp,
                count=len(others),
            )
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None
        return row[cols]

    def block(self, rows: Sequence[Node], cols: Sequence[Node]) -> np.ndarray:
        """Return the ``sem`` submatrix for *rows* x *cols*."""
        try:
            r = np.fromiter(
                (self._position[v] for v in rows), dtype=np.intp, count=len(rows)
            )
            c = np.fromiter(
                (self._position[v] for v in cols), dtype=np.intp, count=len(cols)
            )
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None
        return self.matrix[np.ix_(r, c)]

    def __repr__(self) -> str:
        return f"MatrixMeasure(nodes={len(self.nodes)})"
