"""Flat-gather, preallocated, row-blocked backend — the guaranteed fast path.

Same arithmetic as the ``numpy`` reference, reorganised around three
observations about where the reference kernel actually spends its time:

* **Flat-index gathers.**  Two-array fancy indexing (``sem[nu, nv]``,
  ``walks[cr, rw]``) goes through numpy's general ``mapiter`` machinery —
  measured 2-3x slower per element than a flat ``take``.  Row gathers
  become ``table.reshape(-1, L).take(node * n_w + walk, axis=0)`` — on
  both sides, since every met walk carries its own source and candidate
  — and the per-step node-pair key plane ``walk_u * n + walk_v`` is
  computed **once** and serves *both* element gathers: sliced ``[:, 1:]``
  it addresses the semantic numerators, sliced ``[:, :k]`` the SO
  denominators.
* **Preallocated scratch.**  The factor/SO/q/cumprod planes *and* the
  step-mask planes live in thread-local buffers reused across calls
  (serving workers share one estimator, so scratch must be per-thread);
  gathers land in them via ``np.take(..., out=...)``, the elementwise
  chain runs in place, and the active/zero masks are fused into three
  boolean planes written with ``np.copyto(..., where=...)`` — so the
  steady-state kernel allocates almost nothing.
* **Row-blocked chain.**  The multiply/divide/cumprod chain walks the
  planes about a dozen times; processing ``config.block_rows`` rows at a
  time keeps that working set cache-resident instead of streaming full
  planes from memory on every pass.

Bit-identity argument (``exact = True``): ``take`` fetches exactly the
floats fancy indexing fetched; the key plane is integer arithmetic
(``walk_u.astype(int64) * n + walk_v`` — exact, no rounding); every
per-step value is a pure elementwise function of that row's inputs; the
mask writes set exactly the cells the reference's boolean assignments
set; and the cumprod runs per row — so neither the gather style nor the
block boundaries can change a single intermediate float.  The only
order-sensitive operation is the per-pair summation; rows are processed
in their original order and reduced by a **single** global ``bincount``,
the exact addition sequence of the reference.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.backends.base import (
    WalkScoreRequest,
    WalkScoreResult,
    register_backend,
    resolve_so_plane,
)
from repro.backends.numpy_ref import NumpyBackend


@register_backend
class BlockedBackend(NumpyBackend):
    """Flat-gather walk-score kernel, bit-identical to the reference."""

    name = "blocked"
    exact = True
    tolerance = 0.0
    description = (
        "flat-gather/preallocated row-blocked kernels, bit-identical to numpy"
    )

    def __init__(self, config=None) -> None:
        super().__init__(config)
        self._scratch = threading.local()

    def _buffers(self, rows: int, width: int) -> tuple[np.ndarray, ...]:
        """Per-thread scratch planes, grown monotonically, never shared."""
        planes = getattr(self._scratch, "planes", None)
        if planes is None or planes[0].shape[0] < rows or planes[0].shape[1] < width:
            shape = (
                max(rows, planes[0].shape[0] if planes else 0),
                max(width, planes[0].shape[1] if planes else 0),
            )
            planes = tuple(np.empty(shape, dtype=np.float64) for _ in range(4)) + (
                tuple(np.empty(shape, dtype=bool) for _ in range(3))
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
        met_at = meetings[rows_pair, rows_walk]                         # (R,)
        max_k = int(meetings.max())
        num_nodes = request.sem_matrix.shape[0]
        n_w = walks.shape[1]
        width1 = walks.shape[2]                                         # L + 1
        width = width1 - 1

        # Flat-index row gathers: one take per table and side, each row
        # addressed by its (node, walk) pair collapsed to one flat id.
        flat_u = request.pos_u[rows_pair] * n_w + rows_walk
        flat_v = request.positions[rows_pair] * n_w + rows_walk
        flat_walks = walks.reshape(-1, width1)
        walk_u = flat_walks.take(flat_u, axis=0)[:, : max_k + 1]
        walk_v = flat_walks.take(flat_v, axis=0)[:, : max_k + 1]
        flat_w = request.step_weights.reshape(-1, width)
        w_u = flat_w.take(flat_u, axis=0)[:, :max_k]
        w_v = flat_w.take(flat_v, axis=0)[:, :max_k]
        flat_q = request.step_q.reshape(-1, width)
        q_u = flat_q.take(flat_u, axis=0)[:, :max_k]
        q_v = flat_q.take(flat_v, axis=0)[:, :max_k]

        # One key plane, two gathers: keys[:, 1:] addresses sem(nu, nv),
        # keys[:, :max_k] addresses SO(cu, cv).  int64: walk_u * n
        # overflows int32 past ~46k nodes.
        keys = walk_u.astype(np.int64) * num_nodes + walk_v

        f_s, so_s, q_s, run_s, act_s, bad_s, tmp_s = self._buffers(n_rows, max_k)
        factor = f_s[:n_rows, :max_k]
        so = so_s[:n_rows, :max_k]
        q_step = q_s[:n_rows, :max_k]
        running = run_s[:n_rows, :max_k]
        act_plane = act_s[:n_rows, :max_k]
        bad_plane = bad_s[:n_rows, :max_k]
        tmp_plane = tmp_s[:n_rows, :max_k]

        np.take(request.sem_matrix, keys[:, 1:], out=factor)
        if request.so_lookup is None:
            # active cells = one per step before each meeting
            so_evaluations = int(met_at.sum())
            np.take(request.so_matrix, keys[:, :max_k], out=so)
        else:
            so_evaluations = 0
            step_ids_full = np.arange(max_k)
            active_full = step_ids_full[None, :] < met_at[:, None]
            so[...] = resolve_so_plane(
                walk_u[:, :max_k], walk_v[:, :max_k], active_full,
                num_nodes, request.so_lookup,
            )

        totals_rows = np.empty(n_rows, dtype=np.float64)
        step_ids = np.arange(max_k)
        walks_pruned = 0
        block = self.config.block_rows
        row_ids_full = np.arange(min(block, n_rows))
        # The chain runs in place over row blocks (contiguous views — rows
        # stay in original order), keeping ~a dozen passes cache-resident;
        # the masks land in preallocated bool planes, so the loop body
        # allocates nothing plane-sized.
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in range(0, n_rows, block):
                e = min(s + block, n_rows)
                b = e - s
                fb = factor[s:e]
                sob = so[s:e]
                qb = q_step[s:e]
                runb = running[s:e]
                ma_b = met_at[s:e]
                actb = act_plane[s:e]
                badb = bad_plane[s:e]
                tmpb = tmp_plane[s:e]

                # Same chain as the reference —
                # ((sem * w_u) * w_v / so) * c / (q_u * q_v) — in place.
                np.multiply(fb, w_u[s:e], out=fb)
                np.multiply(fb, w_v[s:e], out=fb)
                np.multiply(q_u[s:e], q_v[s:e], out=qb)
                np.divide(fb, sob, out=fb)
                np.multiply(fb, decay, out=fb)
                np.divide(fb, qb, out=fb)

                # active = step < met_at; zero the active cells whose SO or
                # q denominator collapsed, neutralise the inactive tail.
                np.greater.outer(ma_b, step_ids, out=actb)
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
                    cut_anywhere = tmpb.any(axis=1)
                    first_cut = tmpb.argmax(axis=1)
                    totals_rows[s:e] = np.where(
                        cut_anywhere, runb[row_ids, first_cut], last
                    )
                    # badb already holds bad & active
                    bailed = badb[row_ids, first_cut]
                    walks_pruned += int((cut_anywhere & ~bailed).sum())

        # Rows never left their original order, so this single global
        # bincount reproduces the reference's addition sequence exactly.
        totals = np.bincount(
            rows_pair, weights=totals_rows, minlength=m
        ).astype(np.float64)
        return WalkScoreResult(
            totals=totals,
            walks_met=n_rows,
            so_evaluations=so_evaluations,
            walks_pruned=walks_pruned,
        )
