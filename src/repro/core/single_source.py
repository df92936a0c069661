"""Single-source similarity queries (Section 7 future work, after [17, 46]).

``sim(u, v)`` for a fixed ``u`` and *every* ``v`` is the primitive behind
top-k search, link prediction and entity resolution.  Three strategies:

* :func:`single_source_mc` — couples the query node's pre-sampled walks
  against every candidate's walks through the estimator's batched query
  path: one stacked-array pass detects every meeting, the IS correction
  runs vectorised over the met walks only, and the Prop. 2.5 semantic gate
  skips candidates outright.
* :func:`single_source_exact` — one row of the exact fixed point of
  Eq. 2, read from the all-pairs :class:`~repro.core.semsim.SemSim` table
  (O(N²) memory, the iterative engine's table).
* batching helper :func:`batch_similarity` for evaluating many explicit
  pairs against one estimator.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.montecarlo import MonteCarloSemSim
from repro.core.semsim import SemSim
from repro.errors import ConfigurationError
from repro.hin.graph import HIN, Node
from repro.semantics.base import SemanticMeasure


def single_source_mc(
    estimator: MonteCarloSemSim,
    query: Node,
    candidates: Sequence[Node] | None = None,
) -> dict[Node, float]:
    """Estimate ``sim(query, v)`` for every candidate via the walk index.

    A thin wrapper over the estimator's batched query path: first-meeting
    detection, likelihood-ratio products and the θ walk-cut all run on
    stacked arrays (see :meth:`MonteCarloSemSim.similarity_batch`).  With
    pruning enabled on *estimator*, candidates below the semantic threshold
    are gated to 0 without touching their walks (Prop. 2.5).
    """
    index = estimator.walk_index
    if candidates is None:
        candidates = list(index.index.nodes)
    else:
        candidates = list(candidates)
    scores = estimator.similarity_batch(query, candidates)
    return {node: float(value) for node, value in zip(candidates, scores)}


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


def batch_similarity(
    estimator,
    pairs: Iterable[tuple[Node, Node]],
) -> list[float]:
    """Evaluate many explicit pairs against one estimator.

    When *estimator* exposes ``similarity_batch`` (the MC estimators),
    pairs are grouped by their first node and each group is scored in one
    vectorised pass; any other object with a ``similarity(u, v)`` method
    falls back to per-pair calls.  Output order follows input order either
    way.
    """
    pair_list = list(pairs)
    batch = getattr(estimator, "similarity_batch", None)
    if batch is None:
        return [estimator.similarity(u, v) for u, v in pair_list]
    groups: dict[Node, list[int]] = {}
    for i, (u, _) in enumerate(pair_list):
        groups.setdefault(u, []).append(i)
    out: list[float] = [0.0] * len(pair_list)
    for u, indices in groups.items():
        scores = batch(u, [pair_list[i][1] for i in indices])
        for i, value in zip(indices, scores):
            out[i] = float(value)
    return out
