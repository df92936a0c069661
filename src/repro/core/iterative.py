"""Shared fixed-point machinery for SimRank-family measures (Section 2.3).

Both SimRank and SemSim iterate the same shape of update:

    ``R_{k+1}(u, v) = sem(u, v) * c / N(u, v)
                      * sum_{a in I(u)} sum_{b in I(v)}
                            R_k(a, b) * W(a, u) * W(b, v)``

with ``R_k(u, u) = 1`` pinned, ``R = 0`` for pairs with an empty in-neighbour
set, and the normaliser ``N(u, v) = sum sum W(a,u) W(b,v) sem(a,b)``.
Setting ``sem ≡ 1`` and unit weights recovers plain SimRank, where
``N = |I(u)| * |I(v)|``.

The numpy engine evaluates the double sum as a sandwich product
``W.T @ R @ W`` (and ``N = W.T @ S @ W``, computed once — it does not depend
on ``R``).  The dict engine spells out the quadruple loop and exists to be
obviously correct; property tests assert the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.metrics import ENGINE_FINAL_RESIDUAL
from repro.errors import ConfigurationError
from repro.hin.graph import HIN, Node
from repro.obs.registry import get_registry, is_enabled
from repro.obs.trace import span
from repro.semantics.base import SemanticMeasure, semantic_matrix
from repro.semantics.cache import MatrixMeasure

#: Convergence threshold the paper uses when it reports "converged after 5
#: iterations" (average differences below 1e-3); we default tighter.
DEFAULT_TOLERANCE = 1e-4
DEFAULT_MAX_ITERATIONS = 100

_RESIDUAL = get_registry().gauge(
    "iterative_residual",
    help="Max absolute off-diagonal score change of the latest fixed-point "
    "iteration (the stopping-rule residual).",
)
_ITERATIONS = get_registry().counter(
    "iterative_iterations_total",
    help="Fixed-point update steps performed across all solves.",
)


@dataclass
class IterationTrace:
    """Per-iteration convergence diagnostics (the data behind Figure 3).

    ``avg_absolute_diff[k]`` / ``avg_relative_diff[k]`` record the mean
    absolute and mean relative change of off-diagonal scores between
    iterations ``k`` and ``k+1``; ``max_absolute_diff`` backs the stopping
    rule.
    """

    avg_absolute_diff: list[float] = field(default_factory=list)
    avg_relative_diff: list[float] = field(default_factory=list)
    max_absolute_diff: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of update steps performed."""
        return len(self.avg_absolute_diff)

    def record(self, previous: np.ndarray, current: np.ndarray) -> None:
        """Append diagnostics for one ``previous -> current`` step."""
        off_diagonal = ~np.eye(current.shape[0], dtype=bool)
        delta = np.abs(current - previous)[off_diagonal]
        self.avg_absolute_diff.append(float(delta.mean()) if delta.size else 0.0)
        self.max_absolute_diff.append(float(delta.max()) if delta.size else 0.0)
        currents = current[off_diagonal]
        positive = currents > 0
        if positive.any():
            relative = delta[positive] / currents[positive]
            self.avg_relative_diff.append(float(relative.mean()))
        else:
            self.avg_relative_diff.append(0.0)


@dataclass
class FixedPointResult:
    """All-pairs scores plus the node ordering and convergence trace."""

    nodes: list[Node]
    matrix: np.ndarray
    trace: IterationTrace
    converged: bool

    @classmethod
    def from_matrix(
        cls,
        nodes: Sequence[Node],
        matrix: np.ndarray,
        converged: bool = True,
    ) -> "FixedPointResult":
        """Wrap a previously computed score table (warm-start restore).

        The per-iteration trace is not part of persisted artifacts, so the
        restored result carries an empty one; scores and node order are
        exactly the stored arrays (*matrix* may be a read-only memmap).
        """
        return cls(list(nodes), matrix, IterationTrace(), converged)

    def score(self, u: Node, v: Node) -> float:
        """Return the computed similarity of a single pair."""
        i = self.nodes.index(u)
        j = self.nodes.index(v)
        return float(self.matrix[i, j])

    def as_dict(self) -> dict[tuple[Node, Node], float]:
        """Return scores as ``{(u, v): score}`` for all ordered pairs."""
        return {
            (u, v): float(self.matrix[i, j])
            for i, u in enumerate(self.nodes)
            for j, v in enumerate(self.nodes)
        }


def _label_partitioned_adjacency(
    graph: HIN, nodes: Sequence[Node]
) -> list[np.ndarray]:
    """Return one weighted in-adjacency matrix per distinct edge label."""
    position = {node: i for i, node in enumerate(nodes)}
    by_label: dict[str, np.ndarray] = {}
    n = len(nodes)
    for source, target, weight, label in graph.edges():
        matrix = by_label.get(label)
        if matrix is None:
            matrix = np.zeros((n, n))
            by_label[label] = matrix
        matrix[position[source], position[target]] = weight
    return list(by_label.values())


def _dense_sem(measure: SemanticMeasure, nodes: list[Node]) -> np.ndarray:
    """``semantic_matrix(measure, nodes)``, without a copy when one exists.

    A :class:`MatrixMeasure` over *nodes* whose C-ordered matrix is
    symmetric with a unit diagonal already holds exactly the array
    ``semantic_matrix`` would build (its mirrored upper triangle, in the
    same layout), so it is read in place and a cold engine materialises
    ``sem`` once.  The solver never writes to it.
    """
    if isinstance(measure, MatrixMeasure) and measure.nodes == nodes:
        matrix = measure.matrix
        if (
            matrix.flags.c_contiguous
            and np.array_equal(matrix, matrix.T)
            and (np.diagonal(matrix) == 1.0).all()
        ):
            return matrix
    return semantic_matrix(measure, nodes)


def iterate_fixed_point(
    graph: HIN,
    measure: SemanticMeasure | None,
    decay: float,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
    use_weights: bool = True,
    restrict_edge_labels: bool = False,
    sem_matrix: np.ndarray | None = None,
    sparse_adjacency: bool = False,
) -> FixedPointResult:
    """Run the Eq. (2)-(3) iteration to (near) fixed point.

    Parameters
    ----------
    graph:
        The HIN ``G``.
    measure:
        Semantic measure; ``None`` means ``sem ≡ 1`` (SimRank semantics).
    decay:
        The decay factor ``c`` in ``(0, 1)``.
    max_iterations, tolerance:
        Stop after *max_iterations* steps or when the maximum absolute score
        change drops below *tolerance*, whichever comes first.
    use_weights:
        ``False`` ignores edge weights (binary adjacency) — plain SimRank.
    restrict_edge_labels:
        The Section 2.2 variant that only compares neighbour pairs reached
        through identically labelled edges (kept for the ablation; the paper
        found it *less* accurate).
    sem_matrix:
        Optional pre-materialised semantic matrix (saves the quadratic
        evaluation when the caller already has one).
    sparse_adjacency:
        Store the adjacency matrices in CSR form.  The score table ``R``
        stays dense (it fills up), but on sparse graphs the two sandwich
        products per iteration become sparse-dense products — markedly
        faster once ``|E| << |V|²``.  Results are identical to the dense
        engine (asserted in the tests).
    """
    if not 0 < decay < 1:
        raise ConfigurationError(f"decay must lie in (0, 1), got {decay!r}")
    if max_iterations < 1:
        raise ConfigurationError(f"max_iterations must be >= 1, got {max_iterations!r}")

    nodes = list(graph.nodes())
    n = len(nodes)
    trace = IterationTrace()
    if n == 0:
        return FixedPointResult(nodes, np.zeros((0, 0)), trace, True)

    if sem_matrix is not None:
        sem = np.asarray(sem_matrix, dtype=np.float64)
        if sem.shape != (n, n):
            raise ConfigurationError(
                f"sem_matrix shape {sem.shape} does not match {n} nodes"
            )
    elif measure is not None:
        sem = _dense_sem(measure, nodes)
    else:
        sem = np.ones((n, n))

    if restrict_edge_labels:
        adjacencies = _label_partitioned_adjacency(graph, nodes)
    else:
        adjacencies = [graph.index().weighted_in_adjacency()]
    if not use_weights:
        adjacencies = [(matrix > 0).astype(np.float64) for matrix in adjacencies]
    if sparse_adjacency:
        adjacencies = [sp.csr_matrix(matrix) for matrix in adjacencies]

    def sandwich(matrix, table: np.ndarray) -> np.ndarray:
        product = matrix.T @ table @ matrix
        return np.asarray(product)

    # N(u, v) = sum_labels W_l.T @ S @ W_l — independent of R, computed once.
    normaliser = np.zeros((n, n))
    for matrix in adjacencies:
        normaliser += sandwich(matrix, sem)
    supported = normaliser > 0

    current = np.eye(n)
    converged = False
    with span("iterative.solve", nodes=n, max_iterations=max_iterations):
        for _ in range(max_iterations):
            accumulated = np.zeros((n, n))
            for matrix in adjacencies:
                accumulated += sandwich(matrix, current)
            updated = np.zeros((n, n))
            np.divide(
                decay * sem * accumulated, normaliser, out=updated, where=supported
            )
            np.fill_diagonal(updated, 1.0)
            trace.record(current, updated)
            current = updated
            if is_enabled():
                _ITERATIONS.inc()
                _RESIDUAL.set(trace.max_absolute_diff[-1])
            if trace.max_absolute_diff[-1] < tolerance:
                converged = True
                break
    if is_enabled() and trace.max_absolute_diff:
        ENGINE_FINAL_RESIDUAL.labels(engine="iterative").set(
            trace.max_absolute_diff[-1]
        )
    return FixedPointResult(nodes, current, trace, converged)


def reference_fixed_point(
    graph: HIN,
    measure: SemanticMeasure | None,
    decay: float,
    iterations: int,
    use_weights: bool = True,
) -> dict[tuple[Node, Node], float]:
    """Literal quadruple-loop implementation of Eq. (2)-(3).

    Runs exactly *iterations* update steps (no early stop) and returns all
    ordered-pair scores.  Exists as the obviously-correct oracle for the
    vectorised engine; do not use on graphs beyond a few hundred nodes.
    """
    if not 0 < decay < 1:
        raise ConfigurationError(f"decay must lie in (0, 1), got {decay!r}")

    def sem(a: Node, b: Node) -> float:
        if measure is None:
            return 1.0
        return measure.similarity(a, b)

    def weight(a: Node, b: Node) -> float:
        return graph.edge_weight(a, b) if use_weights else 1.0

    nodes = list(graph.nodes())
    scores: dict[tuple[Node, Node], float] = {
        (u, v): 1.0 if u == v else 0.0 for u in nodes for v in nodes
    }
    for _ in range(iterations):
        updated: dict[tuple[Node, Node], float] = {}
        for u in nodes:
            for v in nodes:
                if u == v:
                    updated[(u, v)] = 1.0
                    continue
                in_u = graph.in_neighbors(u)
                in_v = graph.in_neighbors(v)
                if not in_u or not in_v:
                    updated[(u, v)] = 0.0
                    continue
                normaliser = 0.0
                total = 0.0
                for a in in_u:
                    for b in in_v:
                        pair_weight = weight(a, u) * weight(b, v)
                        normaliser += pair_weight * sem(a, b)
                        total += scores[(a, b)] * pair_weight
                if normaliser <= 0:
                    updated[(u, v)] = 0.0
                else:
                    updated[(u, v)] = sem(u, v) * decay * total / normaliser
        scores = updated
    return scores
