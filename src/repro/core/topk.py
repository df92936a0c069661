"""Top-k similarity search with semantic candidate pruning.

Prop. 2.5 (``sim(u, v) <= sem(u, v)``) turns the semantic measure into a
free admissible upper bound: scanning candidates in decreasing ``sem``
order, the search can stop as soon as the bound of the next candidate
cannot beat the current k-th best score.  This is the query pattern behind
the link-prediction and entity-resolution experiments (Section 5.3).

Two forms of the same scan:

* :func:`top_k_similar` — by node, over any ``score(u, v)`` oracle and
  any measure; the scan behind ``tasks/``, the examples and the
  baselines, and the oracle the array form is tested against;
* :func:`top_k_scan` — by node position, over arrays: one lexsort of the
  bounds, candidates scored :data:`SCAN_BLOCK` at a time through a
  ``score_positions`` oracle, and the stop found by a search inside the
  block.  :meth:`repro.api.QueryEngine.top_k_positions` runs it.

Both keep the *k* largest candidates under ``(score, str(node))`` and
return them by score descending, ``str(node)`` ascending.

:func:`top_k_confident` additionally reports which of the returned ranks
are *statistically separated* under the estimator's confidence intervals —
the practical reading of Prop. 4.3 (far-apart scores essentially never
interchange; close ones may).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hin.graph import Node
from repro.semantics.base import SemanticMeasure

ScoreFunction = Callable[[Node, Node], float]
PositionScoreFunction = Callable[[int, np.ndarray], np.ndarray]

#: Candidates :func:`top_k_scan` scores per ``score_positions`` call.
SCAN_BLOCK = 256


def top_k_similar(
    query: Node,
    candidates: Iterable[Node],
    k: int,
    score: ScoreFunction | None = None,
    measure: SemanticMeasure | None = None,
) -> list[tuple[Node, float]]:
    """Return the *k* candidates most similar to *query*, best first.

    Parameters
    ----------
    query:
        The query node (excluded from the result if present in
        *candidates*).
    candidates:
        Candidate nodes to rank.
    k:
        How many results to return.
    score:
        Any similarity oracle ``(u, v) -> float`` — an exact table, an MC
        estimator, or a baseline measure.
    measure:
        When given, candidates are visited in decreasing
        ``sem(query, .)`` order and the scan stops early once the semantic
        upper bound can no longer improve the result set — sound for
        SemSim-family scores by Prop. 2.5.

    Ties break deterministically by the string form of the node id.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k!r}")
    if score is None:
        raise ConfigurationError("top_k_similar needs a score oracle")
    pool = [c for c in candidates if c != query]
    if measure is not None:
        sem_bound = {c: measure.similarity(query, c) for c in pool}
        ordered = sorted(pool, key=lambda c: (-sem_bound[c], str(c)))
    else:
        ordered = pool

    # Min-heap of (score, tiebreak, node) holding the current best k.
    heap: list[tuple[float, str, Node]] = []
    for candidate in ordered:
        if measure is not None and len(heap) == k and (
            sem_bound[candidate] <= heap[0][0]
        ):
            break  # no remaining candidate can enter the top-k
        entry = (score(query, candidate), str(candidate), candidate)
        if len(heap) < k:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)
    ranked = sorted(heap, key=lambda item: (-item[0], item[1]))
    return [(node, value) for value, _, node in ranked]


def str_ranks(nodes: Sequence[Node]) -> np.ndarray:
    """Each position's rank in ``sorted(nodes, key=str)`` — the scan's tie order."""
    order = sorted(range(len(nodes)), key=lambda i: str(nodes[i]))
    ranks = np.empty(len(nodes), dtype=np.int64)
    ranks[order] = np.arange(len(nodes), dtype=np.int64)
    return ranks


def top_k_scan(
    pos_u: int,
    pool: np.ndarray,
    k: int,
    score_positions: PositionScoreFunction,
    tie_rank: np.ndarray,
    bound: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """The *k* best candidates of *pool* for source *pos_u*, by position.

    :func:`top_k_similar` over arrays, returning ``(position, score)``
    pairs.  *pool* holds the candidate positions (without *pos_u*),
    *bound* their Prop. 2.5 bounds ``sem(u, v)`` (``None``: no bound,
    every candidate is scored in pool order) and ``tie_rank[p]`` the rank
    of position *p* in the ``str(node)`` order (:func:`str_ranks`).

    Candidates are ordered by falling bound, then ``str(node)``, and
    scored :data:`SCAN_BLOCK` at a time through
    ``score_positions(pos_u, block)``.  Once *k* scores are held, the
    scan stops at the first candidate whose bound is ≤ the k-th best
    score so far, and a block is scored only if its first candidate does
    not stop it.  Along the order the bound falls while the k-th score
    rises, so the stop test is monotone and a binary search finds the
    stop inside a block.  The candidates taken before the stop, and the
    selection among them, are exactly those of :func:`top_k_similar`
    over the same floats.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k!r}")
    order = np.asarray(pool, dtype=np.int64)
    if bound is not None:
        bound = np.asarray(bound, dtype=np.float64)
        ordering = np.lexsort((tie_rank[order], -bound))
        order, bound = order[ordering], bound[ordering]
    n = order.size
    scores = np.empty(n, dtype=np.float64)
    held = np.empty(0, dtype=np.float64)  # the k largest scores so far
    stop = n
    for start in range(0, n, SCAN_BLOCK):
        if bound is not None and held.size == k and bound[start] <= held.min():
            stop = start
            break
        end = min(start + SCAN_BLOCK, n)
        block = np.asarray(score_positions(pos_u, order[start:end]))
        scores[start:end] = block
        if bound is not None:
            cut = _stop_in_block(bound, held, block, start, k)
            if cut is not None:
                stop = cut
                break
            held = _largest(np.concatenate((held, block)), k)
    taken, values = order[:stop], scores[:stop]
    ranks = tie_rank[taken]
    # the heap's set: the k largest by (score, str) — at a score tie on
    # the k-th place the larger str stays — then score desc, str asc
    best = np.lexsort((-ranks, -values))[:k]
    best = best[np.lexsort((ranks[best], -values[best]))]
    return list(zip(taken[best].tolist(), values[best].tolist()))


def _largest(values: np.ndarray, k: int) -> np.ndarray:
    """The *k* largest of *values* (all of them when there are fewer)."""
    if values.size <= k:
        return values
    return np.partition(values, values.size - k)[values.size - k:]


def _stop_in_block(
    bound: np.ndarray, held: np.ndarray, block: np.ndarray, start: int, k: int
) -> int | None:
    """First index of the block at ``start`` where the scan stops, if any.

    Index *i* stops the scan when ``i >= k`` and ``bound[i]`` is ≤ the
    k-th largest score before it (*held*, then the block's first
    ``i - start`` scores).  The test at *start* itself already failed.
    """
    end = start + block.size

    def stops(i: int) -> bool:
        window = np.concatenate((held, block[: i - start]))
        kth = np.partition(window, window.size - k)[window.size - k]
        return bool(bound[i] <= kth)

    lo = max(start + 1, k)
    if lo >= end or not stops(end - 1):
        return None
    hi = end - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if stops(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass
class ConfidentRanking:
    """A top-k result annotated with interval-based separation flags.

    ``separated[i]`` is True when rank ``i``'s lower confidence bound
    clears rank ``i+1``'s upper bound — i.e. that boundary of the ranking
    is statistically settled at the interval's confidence level (the last
    entry's flag compares against the best *excluded* candidate).
    """

    ranking: list[tuple[Node, float, float]]  # (node, estimate, half_width)
    separated: list[bool]

    def nodes(self) -> list[Node]:
        """Return the ranked nodes without their interval annotations."""
        return [node for node, _, _ in self.ranking]


def top_k_confident(
    query: Node,
    candidates: Sequence[Node],
    k: int,
    estimator,
    z: float = 1.96,
) -> ConfidentRanking:
    """Top-k with per-boundary statistical separation flags.

    *estimator* must expose ``similarity_with_interval(u, v, z)`` (e.g.
    :class:`repro.core.montecarlo.MonteCarloSemSim`).  Every candidate is
    evaluated once; the ranking is by point estimate, and each adjacent
    boundary is flagged separated when the intervals do not overlap —
    unseparated boundaries are exactly where Prop. 4.3 licenses possible
    interchanges.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k!r}")
    evaluated: list[tuple[float, float, Node]] = []
    for candidate in candidates:
        if candidate == query:
            continue
        estimate, half = estimator.similarity_with_interval(query, candidate, z)
        evaluated.append((estimate, half, candidate))
    evaluated.sort(key=lambda item: (-item[0], str(item[2])))
    top = evaluated[:k]
    ranking = [(node, estimate, half) for estimate, half, node in top]
    separated: list[bool] = []
    for i in range(len(top)):
        if i + 1 < len(evaluated):
            next_estimate, next_half, _ = evaluated[i + 1]
            separated.append(top[i][0] - top[i][1] > next_estimate + next_half)
        else:
            separated.append(True)  # nothing below to swap with
    return ConfidentRanking(ranking=ranking, separated=separated)
