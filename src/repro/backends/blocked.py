"""The walk-score kernel: a step loop over live walks, then one dense round.

This is the library's one implementation of the Monte-Carlo hot paths.
It replays the arithmetic of the scalar Algorithm-1 loop (the stacked
reference the identity suites keep as their oracle), and like that loop
it stops each met walk where Def. 4.5 stops it: at its first meeting,
at its θ cut, or at an ``SO``/``Q`` ≤ 0 bail-out.  Most met walks stop
early (on perfbench's graph at θ = 0.05, a met walk of a top-k request
stops after 1.94 steps on average, 56% of them after step 0), so a
kernel that computes every step before each meeting and masks the rest
throws most of its work away.  The kernel has two bodies:

* **Head: a 1-D step loop.**  At step ``s`` only the live walks gather
  their node pair, their in-edge slots ``indptr[current] + offset``,
  their ``W``, ``Q``, ``sem`` and ``SO`` cells, and multiply their
  running product by the step factor.  A walk that stops writes its
  value and leaves; the live set is compacted, so step ``s + 1`` gathers
  only the survivors.  Both sides of a step (source and candidate walk)
  travel as the two rows of one ``(2, live)`` array, one call each.
* **Tail: one dense round.**  Once at most :data:`_DENSE_TAIL_ROWS`
  walks are live, a loop step costs numpy's per-call overhead rather
  than work, so the survivors finish in one ``(rows, steps)`` round:
  masks, a row-wise ``cumprod`` and a first-cut search.  Column 0 is
  multiplied by the carried product, so each row's float sequence is the
  step loop's.  A block of at most that many rows starts in the tail.

The met walks enter ``config.block_rows`` rows at a time in their
original order, so every temporary a thread holds is bounded by one
block.  On the SLING ``pair_index`` path a block's ``SO`` cells are
resolved once, before its step loop, for every step before each
meeting: exactly the cells the stacked reference resolves.

Bit-identity argument: ``take`` fetches exactly the floats fancy
indexing fetches; the node-pair keys and in-edge slots are integer
arithmetic in int64 (exact); each step multiplies a row's running
product by ``((sem * w_u) * w_v / so) * c / (q_u * q_v)`` in the scalar
operation order, whichever body runs it (``run * f`` and ``f * run`` are
the same IEEE product); a bail-out multiplies by 0 as the reference's
zeroed factor does; and a cut is the first step whose product is ≤ θ.
The only order-sensitive operation is the per-pair summation: rows
keep their original order in one values array, and one global
``bincount`` reduces it, the addition sequence of the scalar loop.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import (
    ComputeBackend,
    WalkScoreRequest,
    WalkScoreResult,
    resolve_so_plane,
)

#: Live rows at or below which a block leaves the step loop and finishes
#: its walks in one dense round.
_DENSE_TAIL_ROWS = 128

# Rows of the step loop's int64 state: block row, meeting, the current
# nodes, then the cursors of the next nodes and of the step offsets (two
# rows each, source side first).
_ROW, _MET = 0, 1
_CUR, _NXT, _OFF, _CURSORS = slice(2, 4), slice(4, 6), slice(6, 8), slice(4, 8)


class BlockedBackend(ComputeBackend):
    """Algorithm-1 kernel: a live-walk step loop, then one dense round."""

    name = "blocked"

    def batch_walk_scores(self, request: WalkScoreRequest) -> WalkScoreResult:
        meetings = request.meetings
        m, n_w = meetings.shape
        # The met walks in C order (np.nonzero's order), as flat cell ids
        # pair * n_w + walk.
        cells = np.flatnonzero(meetings >= 1)
        n_rows = cells.size
        if n_rows == 0:
            return WalkScoreResult(
                totals=np.zeros(m, dtype=np.float64), walks_met=0
            )
        rows_pair = cells // n_w
        met_at = meetings.reshape(-1).take(cells)                       # (R,)
        # Each met walk's two sides (source and candidate walk) as the rows
        # of one (2, R) array of flat walk ids node * n_w + walk, that is
        # cell + (node - pair) * n_w.
        shift = np.stack((request.pos_u, request.positions)).astype(np.int64)
        shift -= np.arange(m)
        shift *= n_w
        flat = shift.take(rows_pair, axis=1)
        flat += cells
        values = np.empty(n_rows, dtype=np.float64)
        walks_pruned = 0
        block = self.config.block_rows
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(0, n_rows, block):
                e = min(s + block, n_rows)
                walks_pruned += self._score_block(
                    request, flat[:, s:e], met_at[s:e], values[s:e]
                )
        # Rows never left their original order, so this single global
        # bincount reproduces the scalar loop's addition sequence exactly.
        totals = np.bincount(
            rows_pair, weights=values, minlength=m
        ).astype(np.float64)
        return WalkScoreResult(
            totals=totals,
            walks_met=n_rows,
            # dense SO: one evaluation per step before each meeting
            so_evaluations=(
                int(met_at.sum()) if request.so_lookup is None else 0
            ),
            walks_pruned=walks_pruned,
        )

    def _score_block(
        self,
        request: WalkScoreRequest,
        flat: np.ndarray,
        met_at: np.ndarray,
        out: np.ndarray,
    ) -> int:
        """Score one block of met walks into *out*; return how many were cut.

        *flat* holds each walk's two flat walk ids as a ``(2, rows)``
        array, *met_at* its first meeting.
        """
        width = request.offsets.shape[2]                                # L
        walk_cells = request.walks.reshape(-1)
        offset_cells = request.offsets.reshape(-1)
        sem_cells = request.sem_matrix.reshape(-1)
        # an int64 scalar keeps the node-pair keys int64: walk * n
        # overflows int32 past ~46k nodes
        n = np.int64(request.sem_matrix.shape[0])
        indptr, weights, q = request.indptr, request.weights, request.q
        decay, theta = request.decay, request.theta
        # The live walks' state, one int64 row per field (_ROW .. _OFF),
        # so one take compacts it and one add advances both cursors:
        # a walk's block row, its meeting, the nodes it stands on, and
        # where its next nodes and its offsets are read.
        rows = met_at.size
        state = np.empty((8, rows), dtype=np.int64)
        state[_ROW] = np.arange(rows)
        state[_MET] = met_at
        np.multiply(flat, width + 1, out=state[_NXT])
        state[_CUR] = walk_cells.take(state[_NXT])
        state[_NXT] += 1
        np.multiply(flat, width, out=state[_OFF])
        if request.so_lookup is None:
            so_cells, so_plane = request.so_matrix.reshape(-1), None
        else:
            so_cells, so_plane = None, _so_plane(request, state, walk_cells)
        run = np.ones(rows, dtype=np.float64)
        pruned = 0
        step = 0
        while state.shape[1] > _DENSE_TAIL_ROWS:
            cur = state[_CUR]
            nxt = walk_cells.take(state[_NXT])
            edges = indptr.take(cur)
            edges += offset_cells.take(state[_OFF])
            w = weights.take(edges)
            q_pair = q.take(edges)
            factor = sem_cells.take(nxt[0] * n + nxt[1])
            factor *= w[0]
            factor *= w[1]
            if so_plane is None:
                so = so_cells.take(cur[0] * n + cur[1])
            else:
                so = so_plane[:, step].take(state[_ROW])
            factor /= so
            factor *= decay
            q_step = q_pair[0] * q_pair[1]
            factor /= q_step
            # The scalar bail-out: SO or Q collapsed, the walk scores 0.
            bad = so <= 0.0
            bad |= q_step <= 0.0
            np.copyto(factor, 0.0, where=bad)
            run *= factor
            step += 1
            stop = state[_MET] == step
            stop |= bad
            if theta is not None:
                cut = run <= theta
                stop |= cut
                # A bail-out returns without counting as pruned.
                pruned += int(np.count_nonzero(cut > bad))
            state[_CUR] = nxt
            state[_CURSORS] += 1
            done = np.flatnonzero(stop)
            if done.size:
                out[state[_ROW].take(done)] = run.take(done)
                keep = np.flatnonzero(~stop)
                state = state.take(keep, axis=1)
                run = run.take(keep)
        if state.shape[1]:
            pruned += _dense_round(request, so_cells, so_plane, state, run, step, out)
        return pruned

    def simrank_scores(
        self,
        meetings: np.ndarray,
        met: np.ndarray,
        decay: float,
        num_walks: int,
    ) -> np.ndarray:
        contrib = np.where(met, decay ** np.maximum(meetings, 0), 0.0)
        return contrib.sum(axis=1) / num_walks


def _so_plane(
    request: WalkScoreRequest, state: np.ndarray, walk_cells: np.ndarray
) -> np.ndarray:
    """A block's ``(rows, steps)`` SO plane through the pair lookup.

    Resolves every step before each walk's meeting, as the stacked
    reference does, so the lookup sees the same distinct cells.
    """
    steps = np.arange(int(state[_MET].max()))
    nodes = walk_cells.take((state[_NXT] - 1)[..., None] + steps)
    return resolve_so_plane(
        nodes[0], nodes[1], np.greater.outer(state[_MET], steps),
        request.sem_matrix.shape[0], request.so_lookup,
    )


def _dense_round(
    request: WalkScoreRequest,
    so_cells: np.ndarray,
    so_plane: np.ndarray | None,
    state: np.ndarray,
    run: np.ndarray,
    step: int,
    out: np.ndarray,
) -> int:
    """Finish the live walks from *step* on in one ``(rows, k)`` round.

    Each row's product runs over its steps up to its meeting; cells past
    it hold garbage (a dead walk's -1 step or offset gives a negative key
    or slot, which mode="wrap" reads like any other cell) and only ever
    follow the row's stop, which the first-stop search finds first.
    Returns how many walks were cut.
    """
    length = request.offsets.shape[2]
    n = np.int64(request.sem_matrix.shape[0])
    rows = state[_ROW]
    last = state[_MET] - (step + 1)                    # each row's final column
    k = int(last.max()) + 1
    flat = (state[_NXT] - (step + 1)) // (length + 1)
    nodes = request.walks.reshape(-1, length + 1).take(flat, axis=0)[
        ..., step: step + k + 1
    ]
    # One key plane, two gathers: keys[:, 1:] addresses sem(nu, nv),
    # keys[:, :k] addresses SO(cu, cv).
    keys = np.multiply(nodes[0], n, dtype=np.int64)
    keys += nodes[1]
    edges = request.indptr.take(nodes[..., :k], mode="wrap")
    edges += request.offsets.reshape(-1, length).take(flat, axis=0)[
        ..., step: step + k
    ]
    w = request.weights.take(edges, mode="wrap")
    q_pair = request.q.take(edges, mode="wrap")
    factor = request.sem_matrix.reshape(-1).take(keys[:, 1:], mode="wrap")
    factor *= w[0]
    factor *= w[1]
    if so_plane is None:
        so = so_cells.take(keys[:, :k], mode="wrap")
    else:
        so = so_plane.take(rows, axis=0)[:, step: step + k]
    factor /= so
    factor *= request.decay
    q_step = q_pair[0] * q_pair[1]
    factor /= q_step
    # Zero the cells whose SO or q denominator collapsed (the scalar
    # bail-out) and start each row from the product it carried out of
    # the step loop.
    bad = so <= 0.0
    bad |= q_step <= 0.0
    np.copyto(factor, 0.0, where=bad)
    factor[:, 0] *= run
    running = np.cumprod(factor, axis=1)
    index = np.arange(rows.size)
    if request.theta is None:
        out[rows] = running[index, last]
        return 0
    # A row stops at its first cut, else at its final column.  A
    # bail-out stops it without counting as pruned; a θ freeze does.
    cut = running <= request.theta
    genuine = cut > bad
    cut[index, last] = True
    first = cut.argmax(axis=1)
    out[rows] = running[index, first]
    return int(np.count_nonzero(genuine[index, first]))
