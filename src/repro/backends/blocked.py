"""The walk-score kernel: flat gathers and a row-blocked chain in bounded scratch.

This is the library's one implementation of the Monte-Carlo hot paths.
It replays the arithmetic of the scalar Algorithm-1 loop (the stacked
reference the identity suites keep as their oracle), organised around
three observations about where a stacked-array kernel spends its time:

* **Flat-index gathers.**  Two-array fancy indexing (``sem[nu, nv]``,
  ``walks[cr, rw]``) goes through numpy's general ``mapiter`` machinery —
  measured 2-3x slower per element than a flat ``take``.  Row gathers
  become ``table.reshape(-1, L).take(node * n_w + walk, axis=0)`` — on
  both sides, since every met walk carries its own source and candidate
  — and the per-step node-pair key plane ``walk_u * n + walk_v`` is
  computed **once** and serves *both* element gathers: sliced ``[:, 1:]``
  it addresses the semantic numerators, sliced ``[:, :k]`` the SO
  denominators.
* **Everything per block.**  The met walks are processed
  ``config.block_rows`` rows at a time, gathers included: walk rows,
  ``W``/``Q`` rows, the key plane and the ``sem``/``SO`` cells of one
  block land in thread-local scratch planes (serving workers share one
  estimator, so scratch must be per-thread), the multiply/divide/cumprod
  chain runs over them in place, and the next block reuses them.  The
  working set stays cache-resident, and the scratch a thread keeps never
  exceeds ``block_rows`` rows whatever the size of a request.
* **Fused masks.**  The active/zero masks are three boolean planes
  written in place with ``np.copyto(..., where=...)``, so the
  steady-state block loop allocates almost nothing plane-sized.

Bit-identity argument: ``take`` fetches exactly the
floats fancy indexing fetches, whichever rows a block holds; the key
plane is integer arithmetic (``walk_u * n + walk_v`` in int64 — exact, no
rounding); every per-step value is a pure elementwise function of its
own row's inputs; the mask writes set exactly the cells the stacked
form's boolean assignments set; and the cumprod runs per row — so
neither the gather style nor the block boundaries can change a single
intermediate float.  The only order-sensitive operation is the per-pair
summation; blocks keep the rows in their original order and one global
``bincount`` reduces them, the addition sequence of the scalar loop.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backends.base import (
    ComputeBackend,
    WalkScoreRequest,
    WalkScoreResult,
    resolve_so_plane,
)

# float64 planes: factor, SO, q_step, running product, two row gathers;
# then the int64 key plane and three bool masks (active, bad, scratch).
_FLOAT_PLANES = 6
_BOOL_PLANES = 3


def _carve(plane: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A C-contiguous ``(rows, cols)`` view over the front of *plane*."""
    return plane.reshape(-1)[: rows * cols].reshape(rows, cols)


class BlockedBackend(ComputeBackend):
    """Flat-gather, row-blocked Algorithm-1 kernel with bounded scratch."""

    name = "blocked"

    def __init__(self, config=None) -> None:
        super().__init__(config)
        self._scratch = threading.local()

    def _buffers(self, rows: int, width: int) -> tuple[np.ndarray, ...]:
        """This thread's scratch planes, at least ``(rows, width)`` each.

        Grown monotonically but never past the largest block seen, so a
        thread holds at most ``block_rows`` rows of scratch.
        """
        planes = getattr(self._scratch, "planes", None)
        if planes is not None:
            held_rows, held_width = planes[0].shape
            if held_rows >= rows and held_width >= width:
                return planes
            rows, width = max(rows, held_rows), max(width, held_width)
        shape = (rows, width)
        planes = (
            tuple(np.empty(shape, dtype=np.float64) for _ in range(_FLOAT_PLANES))
            + (np.empty(shape, dtype=np.int64),)
            + tuple(np.empty(shape, dtype=bool) for _ in range(_BOOL_PLANES))
        )
        self._scratch.planes = planes
        return planes

    def batch_walk_scores(self, request: WalkScoreRequest) -> WalkScoreResult:
        meetings = request.meetings
        m = request.positions.size
        rows_pair, rows_walk = np.nonzero(meetings >= 1)
        n_rows = rows_pair.size
        if n_rows == 0:
            return WalkScoreResult(
                totals=np.zeros(m, dtype=np.float64), walks_met=0
            )
        walks = request.walks
        decay = request.decay
        theta = request.theta
        so_lookup = request.so_lookup
        met_at = meetings[rows_pair, rows_walk]                         # (R,)
        max_k = int(meetings.max())
        num_nodes = request.sem_matrix.shape[0]
        n_w = walks.shape[1]
        width1 = walks.shape[2]                                         # L + 1
        width = width1 - 1

        # Each met walk's rows, addressed by its (node, walk) pair
        # collapsed to one flat id, on the source and the candidate side.
        flat_u = request.pos_u[rows_pair] * n_w + rows_walk
        flat_v = request.positions[rows_pair] * n_w + rows_walk
        flat_walks = walks.reshape(-1, width1)
        flat_w = request.step_weights.reshape(-1, width)
        flat_q = request.step_q.reshape(-1, width)
        # dense SO: one evaluation per step before each meeting
        so_evaluations = int(met_at.sum()) if so_lookup is None else 0

        block = min(self.config.block_rows, n_rows)
        f_s, so_s, q_s, run_s, ga_s, gb_s, key_s, act_s, bad_s, tmp_s = (
            self._buffers(block, width1)
        )
        totals_rows = np.empty(n_rows, dtype=np.float64)
        step_ids = np.arange(max_k)
        row_ids_full = np.arange(block)
        walks_pruned = 0
        # Every gather, the chain and the masks run over one block of rows
        # at a time (rows stay in original order) in this thread's scratch.
        # Cells at or past a walk's meeting hold garbage (a dead walk's -1
        # step gives a negative key, which mode="wrap" reads like any other
        # cell); every read of them is masked by the active plane below.
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(0, n_rows, block):
                e = min(s + block, n_rows)
                b = e - s
                fu = flat_u[s:e]
                fv = flat_v[s:e]
                ma_b = met_at[s:e]
                fb = _carve(f_s, b, max_k)
                sob = _carve(so_s, b, max_k)
                qb = _carve(q_s, b, max_k)
                runb = _carve(run_s, b, max_k)
                gab = _carve(ga_s, b, width)
                gbb = _carve(gb_s, b, width)
                keys = _carve(key_s, b, max_k + 1)
                actb = _carve(act_s, b, max_k)
                badb = _carve(bad_s, b, max_k)
                tmpb = _carve(tmp_s, b, max_k)

                # One key plane, two gathers: keys[:, 1:] addresses
                # sem(nu, nv), keys[:, :max_k] addresses SO(cu, cv).
                # int64: walk_u * n overflows int32 past ~46k nodes.
                walk_u = flat_walks.take(fu, axis=0)[:, : max_k + 1]
                walk_v = flat_walks.take(fv, axis=0)[:, : max_k + 1]
                np.multiply(walk_u, num_nodes, out=keys, dtype=np.int64)
                np.add(keys, walk_v, out=keys)
                np.take(request.sem_matrix, keys[:, 1:], out=fb, mode="wrap")

                # active = step < met_at
                np.greater.outer(ma_b, step_ids, out=actb)
                if so_lookup is None:
                    np.take(
                        request.so_matrix, keys[:, :max_k], out=sob, mode="wrap"
                    )
                else:
                    sob[...] = resolve_so_plane(
                        walk_u[:, :max_k], walk_v[:, :max_k], actb,
                        num_nodes, so_lookup,
                    )

                # The scalar chain — ((sem * w_u) * w_v / so) * c /
                # (q_u * q_v) — in place, one row gather at a time.
                np.take(flat_w, fu, axis=0, out=gab, mode="wrap")
                np.multiply(fb, gab[:, :max_k], out=fb)
                np.take(flat_w, fv, axis=0, out=gab, mode="wrap")
                np.multiply(fb, gab[:, :max_k], out=fb)
                np.take(flat_q, fu, axis=0, out=gab, mode="wrap")
                np.take(flat_q, fv, axis=0, out=gbb, mode="wrap")
                np.multiply(gab[:, :max_k], gbb[:, :max_k], out=qb)
                np.divide(fb, sob, out=fb)
                np.multiply(fb, decay, out=fb)
                np.divide(fb, qb, out=fb)

                # Zero the active cells whose SO or q denominator collapsed
                # (the scalar bail-out), neutralise the inactive tail.
                np.less_equal(sob, 0.0, out=badb)
                np.less_equal(qb, 0.0, out=tmpb)
                np.logical_or(badb, tmpb, out=badb)
                np.logical_and(badb, actb, out=badb)
                np.copyto(fb, 0.0, where=badb)
                np.logical_not(actb, out=tmpb)
                np.copyto(fb, 1.0, where=tmpb)

                np.cumprod(fb, axis=1, out=runb)
                row_ids = row_ids_full[:b]
                last = runb[row_ids, ma_b - 1]
                if theta is None:
                    totals_rows[s:e] = last
                else:
                    np.less_equal(runb, theta, out=tmpb)
                    np.logical_and(tmpb, actb, out=tmpb)
                    # argmax finds the first cut; a row with no cut
                    # answers 0, whose cell is then False
                    first_cut = tmpb.argmax(axis=1)
                    cut_anywhere = tmpb[row_ids, first_cut]
                    totals_rows[s:e] = np.where(
                        cut_anywhere, runb[row_ids, first_cut], last
                    )
                    # A bail-out (badb holds bad & active) returns without
                    # counting as pruned; a genuine θ freeze does.
                    bailed = badb[row_ids, first_cut]
                    walks_pruned += int((cut_anywhere & ~bailed).sum())

        # Rows never left their original order, so this single global
        # bincount reproduces the scalar loop's addition sequence exactly.
        totals = np.bincount(
            rows_pair, weights=totals_rows, minlength=m
        ).astype(np.float64)
        return WalkScoreResult(
            totals=totals,
            walks_met=n_rows,
            so_evaluations=so_evaluations,
            walks_pruned=walks_pruned,
        )

    def simrank_scores(
        self,
        meetings: np.ndarray,
        met: np.ndarray,
        decay: float,
        num_walks: int,
    ) -> np.ndarray:
        contrib = np.where(met, decay ** np.maximum(meetings, 0), 0.0)
        return contrib.sum(axis=1) / num_walks
