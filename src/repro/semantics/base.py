"""The semantic-measure protocol and its axiom validator.

Section 2.2 allows *any* function ``sem(u, v)`` inside SemSim provided:

1. **Symmetry**: ``sem(u, v) == sem(v, u)``;
2. **Maximum self similarity**: ``sem(u, u) == 1``;
3. **Fixed value range**: ``sem(u, v) in (0, 1]``.

Measures are plain objects with a ``similarity(u, v) -> float`` method;
:func:`validate_measure` spot-checks the axioms on a node sample and raises
:class:`~repro.errors.MeasureAxiomError` on violation — useful both in tests
and as a guard before long computations.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import MeasureAxiomError
from repro.obs.trace import span

Node = Hashable


@runtime_checkable
class SemanticMeasure(Protocol):
    """Anything with a ``similarity(u, v) -> float`` method."""

    def similarity(self, a: Node, b: Node) -> float:
        """Return ``sem(a, b)``, a value in ``(0, 1]``."""
        ...


def validate_measure(
    measure: SemanticMeasure,
    nodes: Iterable[Node],
    atol: float = 1e-12,
) -> None:
    """Check the three axioms of Section 2.2 on every pair from *nodes*.

    Quadratic in the sample size — pass a representative sample, not a whole
    million-node graph.  Raises :class:`MeasureAxiomError` with a pinpointed
    message on the first violation.
    """
    sample = list(nodes)
    for node in sample:
        self_sim = measure.similarity(node, node)
        if abs(self_sim - 1.0) > atol:
            raise MeasureAxiomError(
                f"maximum self similarity violated: sem({node!r}, {node!r}) = {self_sim!r}"
            )
    for i, a in enumerate(sample):
        for b in sample[i + 1:]:
            forward = measure.similarity(a, b)
            backward = measure.similarity(b, a)
            if abs(forward - backward) > atol:
                raise MeasureAxiomError(
                    f"symmetry violated: sem({a!r}, {b!r}) = {forward!r} but "
                    f"sem({b!r}, {a!r}) = {backward!r}"
                )
            if not 0 < forward <= 1 + atol:
                raise MeasureAxiomError(
                    f"range violated: sem({a!r}, {b!r}) = {forward!r} not in (0, 1]"
                )


def semantic_matrix(measure: SemanticMeasure, nodes: Sequence[Node]) -> np.ndarray:
    """Materialise the symmetric matrix ``S[i, j] = sem(nodes[i], nodes[j])``.

    Used by every vectorised engine.  A measure with a ``block(rows, cols)``
    method — :class:`~repro.semantics.lin.LinMeasure` and
    :class:`~repro.semantics.cache.MatrixMeasure` — answers in one call;
    any other measure is evaluated pair by pair over the upper triangle.
    Either way the upper triangle is mirrored and the diagonal pinned to
    1, so both paths return the same array.  Runs under the
    ``semantics.materialize`` span (``semantics_materialize_seconds``).
    """
    n = len(nodes)
    with span("semantics.materialize", nodes=n):
        block = getattr(measure, "block", None)
        if block is not None:
            upper = np.triu(block(nodes, nodes), 1)
            matrix = upper + upper.T
            np.fill_diagonal(matrix, 1.0)
            return matrix
        matrix = np.ones((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                value = measure.similarity(nodes[i], nodes[j])
                matrix[i, j] = value
                matrix[j, i] = value
        return matrix
