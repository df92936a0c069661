"""Similarity join — discover all pairs above a score threshold.

The paper's reference [46] (Zheng et al.) studies SimRank-based similarity
*joins*: find every node pair whose similarity exceeds a threshold without
scoring all ``n²`` pairs.  The walk index enables the classic
fingerprint-bucket strategy:

1. **Candidate generation** — two nodes can only have a non-zero MC score
   if some coupled walk meets, i.e. their i-th walks stand on the same node
   at the same offset.  Bucketing all walks by ``(walk id, offset, node)``
   surfaces exactly those pairs, in time linear in the index size plus the
   bucket sizes — never touching non-candidate pairs.
2. **Candidate scoring** — each distinct candidate pair is scored once
   with the full estimator (SimRank MC or SemSim's Algorithm 1); pairs
   below *min_score* are dropped.

For SemSim the Prop. 2.5 gate applies before scoring: candidates whose
semantic similarity is already ≤ the threshold can be skipped outright.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator

import numpy as np

from repro.core.montecarlo import MonteCarloSemSim, MonteCarloSimRank
from repro.core.walk_index import WalkIndex
from repro.errors import ConfigurationError
from repro.hin.graph import Node


def candidate_pairs(
    walk_index: WalkIndex,
    restrict_to: set[Node] | None = None,
) -> Iterator[tuple[Node, Node]]:
    """Yield every unordered pair whose coupled walks meet somewhere.

    This is a *superset* of the pairs with positive MC score (a meeting at
    offset k only counts for the estimator if it is the first one), and
    exactly the set of pairs any walk-index estimator can score non-zero.
    """
    index = walk_index.index
    nodes = index.nodes
    allowed: set[int] | None = None
    if restrict_to is not None:
        allowed = {index.position[node] for node in restrict_to}
    seen: set[tuple[int, int]] = set()
    walks = walk_index.walks  # (n, num_walks, length + 1)
    for walk_id in range(walk_index.num_walks):
        for offset in range(1, walk_index.length + 1):
            buckets: dict[int, list[int]] = defaultdict(list)
            column = walks[:, walk_id, offset]
            for source in np.flatnonzero(column >= 0):
                source = int(source)
                if allowed is not None and source not in allowed:
                    continue
                buckets[int(column[source])].append(source)
            for members in buckets.values():
                if len(members) < 2:
                    continue
                for i, a in enumerate(members):
                    for b in members[i + 1:]:
                        key = (a, b) if a < b else (b, a)
                        if key not in seen:
                            seen.add(key)
                            yield nodes[key[0]], nodes[key[1]]


def similarity_join(
    estimator: MonteCarloSemSim | MonteCarloSimRank,
    min_score: float,
    restrict_to: set[Node] | None = None,
) -> list[tuple[Node, Node, float]]:
    """Return all unordered pairs scoring above *min_score*, best first.

    Works with either MC estimator; with :class:`MonteCarloSemSim` the
    semantic gate (Prop. 2.5) skips candidates whose semantic upper bound
    cannot clear the threshold.
    """
    if not 0 < min_score <= 1:
        raise ConfigurationError(f"min_score must lie in (0, 1], got {min_score!r}")
    walk_index = estimator.walk_index
    semantic_gate = getattr(estimator, "measure", None)
    survivors: list[tuple[Node, Node]] = []
    for u, v in candidate_pairs(walk_index, restrict_to=restrict_to):
        if semantic_gate is not None and semantic_gate.similarity(u, v) <= min_score:
            continue  # Prop. 2.5: sim <= sem <= threshold
        survivors.append((u, v))
    # One shared-source score_positions call per first node.  A
    # per-pair-source call would gather every pair's source walk rows
    # (SemSim) or run MC SimRank's scalar loop per pair, several times
    # slower, where a shared source broadcasts one row set.
    groups: dict[Node, list[int]] = defaultdict(list)
    for i, (u, _) in enumerate(survivors):
        groups[u].append(i)
    scores = np.empty(len(survivors), dtype=np.float64)
    for u, members in groups.items():
        scores[members] = estimator.score_positions(
            walk_index.node_position(u),
            walk_index.node_positions([survivors[i][1] for i in members]),
        )
    results = [
        (u, v, score)
        for (u, v), score in zip(survivors, scores.tolist())
        if score > min_score
    ]
    results.sort(key=lambda row: (-row[2], str(row[0]), str(row[1])))
    return results
