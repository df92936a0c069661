"""The ``numpy`` reference backend — the pre-seam kernels.

This is the arithmetic every other backend is measured against: the
stacked-array replay of the scalar Algorithm-1 loop
(``tests/backends/scalar_ref.py``) that ``MonteCarloSemSim`` carried
before the backend seam existed.  Operation order is load-bearing — the
kernel reproduces the scalar loop's arithmetic operation-for-operation,
so any change here is a behaviour change for the whole library.  It
reads ``sem`` and ``SO`` through the request's cell sources, at its
active cells (every step before each meeting) only.
"""

from __future__ import annotations

import numpy as np

from repro.backends import BlockedBackend
from repro.backends.base import ComputeBackend, WalkScoreRequest, WalkScoreResult


class NumpyBackend(ComputeBackend):
    """Reference vectorised kernels (bit-identical baseline).

    Tests pass an instance wherever a kernel is taken:
    ``QueryEngine(backend=NumpyBackend())``.
    """

    name = "numpy"

    def batch_walk_scores(self, request: WalkScoreRequest) -> WalkScoreResult:
        meetings = request.meetings
        m = request.positions.size
        totals = np.zeros(m, dtype=np.float64)
        rows_pair, rows_walk = np.nonzero(meetings >= 1)
        n_rows = rows_pair.size
        if n_rows == 0:
            return WalkScoreResult(totals=totals, values=np.empty(0))
        walks = request.walks
        # each met walk's own pair: its source row and its candidate row
        src_u = request.pos_u[rows_pair]
        src_v = request.positions[rows_pair]
        max_k = int(meetings.max())
        walk_u = walks[src_u, rows_walk][:, : max_k + 1]                # (R, K+1)
        walk_v = walks[src_v, rows_walk][:, : max_k + 1]
        met_at = meetings[rows_pair, rows_walk]                         # (R,)
        step_ids = np.arange(max_k)
        active = step_ids[None, :] < met_at[:, None]                    # (R, K)

        # No pre-masking: steps at or past the meeting are garbage (walk
        # padding is -1, which numpy index-wraps), but every downstream
        # read is masked by *active* before it matters — only the final
        # ``factor`` where() is load-bearing.  Active steps sit strictly
        # before the meeting, where both walks still hold real node ids,
        # so the arithmetic replayed there is bit-identical to the masked
        # form this replaces (and to the scalar path).  The cell sources
        # are read at the active steps only, 1.0 elsewhere.
        cu = walk_u[:, :max_k]
        cv = walk_v[:, :max_k]
        nu = walk_u[:, 1 : max_k + 1]
        nv = walk_v[:, 1 : max_k + 1]

        # Each step's in-edge slot, indptr[current] + offset (garbage past
        # the meeting, like the walk steps).  W and Q are read there.
        edge_u = request.indptr[cu] + request.offsets[src_u, rows_walk][:, :max_k]
        edge_v = request.indptr[cv] + request.offsets[src_v, rows_walk][:, :max_k]

        n = request.indptr.size - 1

        def cells(source, a, b):
            plane = np.ones(a.shape)
            plane[active] = source.take(a[active].astype(np.int64) * n + b[active])
            return plane

        # P numerator, replaying the scalar operation order exactly:
        # (sem(nu, nv) * W(nu -> cu)) * W(nv -> cv).
        w_u = request.weights[edge_u]
        w_v = request.weights[edge_v]
        numerator = cells(request.sem, nu, nv) * w_u * w_v

        # SO denominators.  A dense table counts one evaluation per active
        # step; a computed source counts its own.
        so = cells(request.so, cu, cv)
        so_evaluations = (
            int(active.sum()) if isinstance(request.so, np.ndarray) else 0
        )

        q_u = request.q[edge_u]
        q_v = request.q[edge_v]
        q_step = q_u * q_v

        # Per-step factor (p_step * c) / q_step, 1 on inactive steps and 0
        # where the scalar path would bail out (so <= 0 or q <= 0).
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = (numerator / so) * request.decay / q_step
        bad = (so <= 0) | (q_step <= 0)
        factor = np.where(active & ~bad, factor, np.where(active, 0.0, 1.0))

        running = np.cumprod(factor, axis=1)                            # (R, K)
        last = running[np.arange(n_rows), met_at - 1]
        walks_pruned = 0
        if request.theta is None:
            totals_rows = last
        else:
            cut = (running <= request.theta) & active
            cut_anywhere = cut.any(axis=1)
            first_cut = cut.argmax(axis=1)
            totals_rows = np.where(
                cut_anywhere, running[np.arange(n_rows), first_cut], last
            )
            # Scalar bookkeeping: a bail-out (so/q <= 0) returns without
            # counting as pruned; a genuine θ freeze does.
            bailed = (bad & active)[np.arange(n_rows), first_cut]
            walks_pruned = int((cut_anywhere & ~bailed).sum())
        # Accumulate per candidate in walk order (bincount adds in element
        # order, matching the scalar loop's summation sequence).
        totals = np.bincount(rows_pair, weights=totals_rows, minlength=m).astype(
            np.float64
        )
        return WalkScoreResult(
            totals=totals,
            values=totals_rows,
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


#: The kernels the identity suites hold to this oracle, by name.
KERNELS = {"blocked": BlockedBackend, "numpy": NumpyBackend}
