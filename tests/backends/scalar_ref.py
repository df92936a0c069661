"""The scalar Algorithm-1 loop — Def. 4.5 one coupled walk, one step at a time.

This is the per-walk loop ``MonteCarloSemSim.similarity`` ran before
every Monte-Carlo score went through the walk-score kernel, kept here as
the Def. 4.5 oracle.  Each met walk multiplies its running product by
``((sem * w_u) * w_v / SO) * c / (q_u * q_v)`` step by step and stops
at its meeting, at its first product ≤ θ (frozen there, and counted as
pruned) or at an ``SO``/``Q`` ≤ 0 bail-out (scored 0).  Cells are read
one at a time through the request's cell sources.

:func:`scalar_run` is the estimator-level form: the identity pair, the
Prop. 2.5 gate and the walk loop over the estimator's own state, with
``sem`` read through the measure and ``SO`` through the ``pair_index``,
then the dense table or :func:`~repro.core.montecarlo.so_sum` — the
chain the estimator's cell sources follow.  It also returns the work
counters the estimator reports for the same call.
"""

from __future__ import annotations

import numpy as np

from repro.backends import WalkScoreRequest
from repro.core.montecarlo import so_sum


class Cells:
    """A cell source over a per-cell function, computed key by key."""

    def __init__(self, num_nodes: int, cell) -> None:
        self.num_nodes = num_nodes
        self.cell = cell

    def take(self, keys):
        keys = np.asarray(keys)
        return np.array(
            [self.cell(*divmod(int(key), self.num_nodes)) for key in keys.ravel()],
            dtype=np.float64,
        ).reshape(keys.shape)


def scalar_walk_scores(request: WalkScoreRequest) -> tuple[list[float], int]:
    """Def. 4.5 for each met walk of *request*, in kernel row order.

    Returns each walk's score and how many walks the θ cut froze.
    """
    n = request.indptr.size - 1
    theta = request.theta

    def cell(source, a: int, b: int) -> float:
        return float(source.take(np.array([a * n + b], dtype=np.int64))[0])

    values, pruned = [], 0
    for pair, walk in zip(*np.nonzero(request.meetings >= 1)):
        meeting = int(request.meetings[pair, walk])

        def side(pos):
            # the walk up to the meeting, and W and Q of each step read at
            # its in-edge's slot indptr[current] + offset
            nodes = request.walks[pos, walk, : meeting + 1].tolist()
            slots = request.indptr[nodes[:-1]] + request.offsets[pos, walk, :meeting]
            return nodes, request.weights[slots].tolist(), request.q[slots].tolist()

        walk_u, w_u, q_u = side(int(request.pos_u[pair]))
        walk_v, w_v, q_v = side(int(request.positions[pair]))
        score, cut = 1.0, 0
        for step in range(meeting):
            numerator = (
                cell(request.sem, walk_u[step + 1], walk_v[step + 1])
                * w_u[step]
                * w_v[step]
            )
            so = cell(request.so, walk_u[step], walk_v[step])
            q_step = q_u[step] * q_v[step]
            if so <= 0 or q_step <= 0:
                score = 0.0
                break
            score *= numerator / so * request.decay / q_step
            if theta is not None and score <= theta:
                cut = 1
                break
        values.append(score)
        pruned += cut
    return values, pruned


def scalar_run(estimator, us, vs):
    """Scalar Algorithm-1 scores of the pairs ``(us[i], vs[i])`` (positions).

    Returns ``(scores, walked, counts)``: *walked[i]* is ``None`` for an
    identity or θ-gated pair, else ``(sem_uv, contributions)`` with each
    coupled walk's score (0 for walks that never meet); *counts* holds
    the estimator's counters for one call over these pairs.  With the
    dense ``SO`` table a met walk counts one ``SO`` evaluation per step
    before its meeting; otherwise each distinct cell the call computes
    counts once, and a ``pair_index`` hit counts nothing.
    """
    index = estimator.walk_index
    tables = index.tables
    nodes = index.index.nodes
    n, n_w = len(nodes), index.num_walks
    measure, pair_index = estimator.measure, estimator.pair_index
    dense_so = pair_index is None and estimator._sem_matrix is not None
    computed = set()

    def so_cell(a, b):
        if pair_index is not None:
            hit = pair_index.so_lookup(a, b)
            if hit is not None:
                return hit
        computed.add((a, b))
        if estimator._sem_matrix is None:
            return so_sum(index.index, measure, a, b)
        estimator._ensure_so_matrix()
        return float(estimator._so_matrix[a, b])

    sem = Cells(n, lambda a, b: measure.similarity(nodes[a], nodes[b]))
    so = Cells(n, so_cell)
    counts = dict.fromkeys(
        ("queries", "walks_examined", "walks_met", "walks_pruned",
         "so_evaluations", "sem_gate_hits"), 0,
    )
    scores, walked = [], []
    for a, b in zip(np.ravel(us).tolist(), np.ravel(vs).tolist()):
        counts["queries"] += 1
        if a == b:
            scores.append(1.0)
            walked.append(None)
            continue
        sem_uv = measure.similarity(nodes[a], nodes[b])
        if estimator.theta is not None and sem_uv <= estimator.theta:
            counts["sem_gate_hits"] += 1
            scores.append(0.0)
            walked.append(None)
            continue
        meetings = index.first_meetings_pairs(a, np.array([b]))
        values, pruned = scalar_walk_scores(WalkScoreRequest(
            walks=index.walks, offsets=index.offsets, indptr=tables.indptr,
            weights=tables.weights, q=tables.q, pos_u=np.array([a]),
            positions=np.array([b]), meetings=meetings, sem=sem, so=so,
            decay=estimator.decay, theta=estimator.theta,
        ))
        total = 0.0
        for value in values:
            total += value
        contributions = np.zeros(n_w)
        contributions[meetings[0] >= 1] = values
        counts["walks_examined"] += n_w
        counts["walks_met"] += len(values)
        counts["walks_pruned"] += pruned
        if dense_so:
            counts["so_evaluations"] += int(meetings[meetings >= 1].sum())
        scores.append(sem_uv * total / n_w)
        walked.append((sem_uv, contributions))
    if not dense_so:
        counts["so_evaluations"] = len(computed)
    return scores, walked, counts


def scalar_similarity(estimator, u, v) -> float:
    """The scalar Algorithm-1 estimate of ``sim(u, v)``."""
    position = estimator.walk_index.node_position
    return scalar_run(estimator, [position(u)], [position(v)])[0][0]


def scalar_interval(estimator, u, v, z: float = 1.96) -> tuple[float, float]:
    """``(estimate, CLT half-width)`` from the scalar loop's contributions."""
    position = estimator.walk_index.node_position
    scores, walked, _ = scalar_run(estimator, [position(u)], [position(v)])
    if walked[0] is None:
        return scores[0], 0.0
    sem_uv, contributions = walked[0]
    estimate = sem_uv * float(contributions.mean())
    spread = float(contributions.std(ddof=1)) if contributions.size > 1 else 0.0
    return estimate, float(sem_uv * z * spread / np.sqrt(contributions.size))


def scalar_simrank(estimator, u, v) -> float:
    """The classical MC SimRank estimate ``(1/n_w) * sum c^tau`` of one pair."""
    if u == v:
        return 1.0
    index = estimator.walk_index
    meetings = index.first_meetings_pairs(
        index.node_position(u), np.array([index.node_position(v)])
    )[0]
    met = meetings >= 0
    contrib = np.where(met, estimator.decay ** np.maximum(meetings, 0), 0.0)
    return float(contrib.sum() / index.num_walks)
