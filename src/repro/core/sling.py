"""SLING-style precomputed-probability index (Section 5.2, "Execution
Times").

SLING [39] accelerates SimRank MC queries by pre-materialising walk-step
probabilities.  The paper reports adapting it to SemSim by "storing
probabilities only for node-pairs with semantic similarity scores >= 0.1",
trading memory for a large speedup on both measures.

The dominant per-step cost of Algorithm 1 is the O(d²) denominator

    ``SO(u, v) = sum_{a in I(u)} sum_{b in I(v)} W(a,u) W(b,v) sem(a,b)``;

:class:`SlingIndex` precomputes it for every pair whose semantic similarity
passes the threshold, which removes the d² factor from indexed steps.  The
index plugs into :class:`~repro.core.montecarlo.MonteCarloSemSim` through
its ``pair_index`` parameter, and reports its memory footprint for the
speed/space trade-off the paper tabulates.
"""

from __future__ import annotations

import sys

from repro.core.montecarlo import so_sum
from repro.core.params import validate_theta
from repro.errors import ConfigurationError
from repro.hin.graph import HIN
from repro.semantics.base import SemanticMeasure


class SlingIndex:
    """Precomputed ``SO(u, v)`` denominators for semantically close pairs.

    The semantic cut-off is the canonical ``theta`` keyword.
    """

    def __init__(
        self,
        graph: HIN,
        measure: SemanticMeasure,
        theta: float = 0.1,
    ) -> None:
        theta = validate_theta(theta)
        if theta is None:
            raise ConfigurationError("theta must lie in [0, 1], got None")
        self.graph = graph
        self.measure = measure
        self.theta = theta
        index = graph.index()
        self._table: dict[tuple[int, int], float] = {}

        nodes = index.nodes
        n = index.num_nodes
        for pos_u in range(n):
            if index.in_lists[pos_u].size == 0:
                continue
            for pos_v in range(n):
                if pos_u == pos_v:
                    continue
                if measure.similarity(nodes[pos_u], nodes[pos_v]) < theta:
                    continue
                if index.in_lists[pos_v].size == 0:
                    continue
                self._table[(pos_u, pos_v)] = so_sum(index, measure, pos_u, pos_v)

    def so_lookup(self, pos_u: int, pos_v: int) -> float | None:
        """Return the cached ``SO`` value, or ``None`` on a miss."""
        return self._table.get((pos_u, pos_v))

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Number of indexed pairs."""
        return len(self._table)

    @property
    def memory_bytes(self) -> int:
        """Approximate resident size of the table."""
        entry_overhead = sys.getsizeof((0, 0)) + sys.getsizeof(0.0)
        return sys.getsizeof(self._table) + self.num_entries * entry_overhead

    def __repr__(self) -> str:
        return (
            f"SlingIndex(entries={self.num_entries}, "
            f"threshold={self.theta})"
        )
