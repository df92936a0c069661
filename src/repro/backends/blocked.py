"""Flat-gather, preallocated, row-blocked backend — the guaranteed fast path.

Same arithmetic as the ``numpy`` reference, reorganised around four
observations about where the reference kernel actually spends its time:

* **Flat-index gathers.**  Two-array fancy indexing (``sem[nu, nv]``,
  ``walks[cr, rw]``) goes through numpy's general ``mapiter`` machinery —
  measured 2-3x slower per element than a flat ``take``.  Row gathers
  become ``table.reshape(-1, L).take(cand * n_w + walk, axis=0)``, and the
  per-step node-pair key plane ``walk_u * n + walk_v`` is computed **once**
  and serves *both* element gathers: sliced ``[:, 1:]`` it addresses the
  semantic numerators, sliced ``[:, :k]`` the SO denominators.
* **Cached u-side key plane.**  ``walk_u * n`` depends only on the source
  row, so for repeated same-source batches (top-k scans, coalesced serve
  traffic, sharded scatter fan-out) the int64 plane ``walks[pos_u] * n``
  is computed once per source and reused across calls from a small
  per-thread cache keyed on ``pos_u`` (walk rows are never rewritten in
  place); later calls pay one ``take`` + one integer add.  When
  the SO denominators come from the precomputed matrix, the u-side walk
  gather is skipped entirely — the key plane is its only consumer.
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
floats fancy indexing fetched; the cached key plane is integer arithmetic
(``(walks[pos_u].astype(int64) * n).take(rows)[:, :k] + walk_v`` is
elementwise equal to ``walk_u.astype(int64) * n + walk_v`` — exact, no
rounding); every per-step value is a pure elementwise function of that
row's inputs; the mask writes set exactly the cells the reference's
boolean assignments set; and the cumprod runs per row — so neither the
gather style, the caching, nor the block boundaries can change a single
intermediate float.  The only order-sensitive operation is the
per-candidate summation; rows are processed in their original order and
reduced by a **single** global ``bincount``, the exact addition sequence
of the reference.
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

#: Sources whose int64 key plane is kept per thread (top-k scans and
#: coalesced serving hit one source many times; the plane is a few tens
#: of KB, so a handful of entries covers every real access pattern).
_U_KEY_CACHE = 16


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

    def _u_key_plane(
        self, walks: np.ndarray, pos_u: int, num_nodes: int
    ) -> np.ndarray:
        """``walks[pos_u].astype(int64) * num_nodes``, cached per source.

        The cache is invalidated whenever the walk tensor object changes
        (a different index generation) and is thread-local, so serving
        workers never contend.  Entries are keyed by ``pos_u``, which is
        sound because walk rows are immutable (see
        :class:`~repro.backends.WalkScoreRequest`).
        """
        cache = getattr(self._scratch, "u_keys", None)
        if cache is None or cache[0] is not walks or cache[1] != num_nodes:
            cache = (walks, num_nodes, {})
            self._scratch.u_keys = cache
        per_source = cache[2]
        plane = per_source.get(pos_u)
        if plane is None:
            if len(per_source) >= _U_KEY_CACHE:
                per_source.clear()
            plane = walks[pos_u].astype(np.int64) * num_nodes
            per_source[pos_u] = plane
        return plane

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
        pos_u = request.pos_u
        decay = request.decay
        theta = request.theta
        met_at = meetings[rows_pair, rows_walk]                         # (R,)
        max_k = int(meetings.max())
        num_nodes = request.sem_matrix.shape[0]
        n_w = walks.shape[1]
        width1 = walks.shape[2]                                         # L + 1
        width = width1 - 1

        # Flat-index row gathers: one take per table.  The u-side tables are
        # indexed by walk alone; the candidate side by (candidate, walk)
        # collapsed to a single flat row id.
        flat_rows = request.positions[rows_pair] * n_w + rows_walk
        walk_v = walks.reshape(-1, width1).take(flat_rows, axis=0)[:, : max_k + 1]
        w_u = request.step_weights[pos_u].take(rows_walk, axis=0)[:, :max_k]
        w_v = request.step_weights.reshape(-1, width).take(flat_rows, axis=0)[
            :, :max_k
        ]
        q_u = request.step_q[pos_u].take(rows_walk, axis=0)[:, :max_k]
        q_v = request.step_q.reshape(-1, width).take(flat_rows, axis=0)[:, :max_k]

        # One key plane, two gathers: keys[:, 1:] addresses sem(nu, nv),
        # keys[:, :max_k] addresses SO(cu, cv).  The u-side term
        # walk_u * n (int64: it overflows int32 past ~46k nodes) is cached
        # across calls, so a repeated source pays one take + one add.
        keys = self._u_key_plane(walks, pos_u, num_nodes).take(
            rows_walk, axis=0
        )[:, : max_k + 1]
        keys = keys + walk_v

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
            # active cells = one per step before each meeting; the u-side
            # walk gather is not needed at all on this path — the cached
            # key plane is its only consumer.
            so_evaluations = int(met_at.sum())
            np.take(request.so_matrix, keys[:, :max_k], out=so)
        else:
            so_evaluations = 0
            walk_u = walks[pos_u].take(rows_walk, axis=0)[:, :max_k]
            step_ids_full = np.arange(max_k)
            active_full = step_ids_full[None, :] < met_at[:, None]
            so[...] = resolve_so_plane(
                walk_u, walk_v[:, :max_k], active_full,
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
