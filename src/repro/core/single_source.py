"""Exact single-source similarity (Section 7 future work, after [17, 46]).

``sim(u, v)`` for a fixed ``u`` and *every* ``v`` is the primitive behind
top-k search, link prediction and entity resolution.  The Monte-Carlo
form is the engines' batch path
(:meth:`repro.api.QueryEngine.score_batch`, or
:meth:`~repro.core.montecarlo.MonteCarloSemSim.similarity_batch` on an
estimator).  :func:`single_source_exact` is one row of the exact fixed
point of Eq. 2, read from the all-pairs :class:`~repro.core.semsim.SemSim`
table (O(N²) memory, the iterative engine's table).
"""

from __future__ import annotations

from repro.core.semsim import SemSim
from repro.errors import ConfigurationError
from repro.hin.graph import HIN, Node
from repro.semantics.base import SemanticMeasure


def single_source_exact(
    graph: HIN,
    measure: SemanticMeasure,
    query: Node,
    decay: float = 0.6,
    *,
    tolerance: float = 1e-10,
) -> dict[Node, float]:
    """Exact single-source SemSim: row *query* of the Eq. 2 fixed point.

    Iterates the all-pairs :class:`~repro.core.semsim.SemSim` table until
    no score moves by *tolerance* and returns its *query* row — the same
    numbers ``QueryEngine(method="iterative")`` serves.
    """
    if query not in graph:
        raise ConfigurationError(f"query node {query!r} is not in the graph")
    table = SemSim(graph, measure, decay=decay, tolerance=tolerance)
    row = table.result.matrix[table._position[query]]
    return {v: float(s) for v, s in zip(table.result.nodes, row)}
