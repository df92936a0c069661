"""The ``numpy`` reference backend — the pre-seam kernels, moved verbatim.

This is the arithmetic every other backend is measured against: the
stacked-array replay of the scalar Algorithm-1 loop that
``MonteCarloSemSim._batch_walk_scores`` carried before the backend seam
existed.  Operation order is load-bearing — the batch path reproduces the
scalar path's arithmetic operation-for-operation, so any change here is a
behaviour change for the whole library.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import (
    ComputeBackend,
    WalkScoreRequest,
    WalkScoreResult,
    register_backend,
    resolve_so_plane,
)


@register_backend
class NumpyBackend(ComputeBackend):
    """Reference vectorised kernels (bit-identical baseline)."""

    name = "numpy"
    exact = True
    tolerance = 0.0
    description = "reference stacked-array kernels (the equivalence baseline)"

    def batch_walk_scores(self, request: WalkScoreRequest) -> WalkScoreResult:
        meetings = request.meetings
        m = request.positions.size
        totals = np.zeros(m, dtype=np.float64)
        rows_pair, rows_walk = np.nonzero(meetings >= 1)
        n_rows = rows_pair.size
        if n_rows == 0:
            return WalkScoreResult(totals=totals, walks_met=0)
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
        # form this replaces (and to the scalar path).
        cu = walk_u[:, :max_k]
        cv = walk_v[:, :max_k]
        nu = walk_u[:, 1 : max_k + 1]
        nv = walk_v[:, 1 : max_k + 1]

        # P numerator, replaying the scalar operation order exactly:
        # (sem(nu, nv) * W(nu -> cu)) * W(nv -> cv).  W and Q come from the
        # precomputed per-step tables (identical floats, no lookups).
        w_u = request.step_weights[src_u, rows_walk][:, :max_k]
        w_v = request.step_weights[src_v, rows_walk][:, :max_k]
        numerator = request.sem_matrix[nu, nv] * w_u * w_v

        # SO denominators.  Without a pair_index every value comes straight
        # from the precomputed SO matrix (one fancy-indexing gather, and the
        # same table the scalar path reads).  With a pair_index, deduplicate
        # identical (cu, cv) step pairs and route each through the lookup so
        # the index is consulted exactly as in the scalar path.
        so_evaluations = 0
        if request.so_lookup is None:
            so_evaluations = int(active.sum())
            # full-plane gather: garbage on inactive steps, masked below
            so = request.so_matrix[cu, cv]
        else:
            so = resolve_so_plane(
                cu, cv, active, request.sem_matrix.shape[0], request.so_lookup
            )

        q_u = request.step_q[src_u, rows_walk][:, :max_k]
        q_v = request.step_q[src_v, rows_walk][:, :max_k]
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

    def step_masses(
        self,
        weights_u: np.ndarray,
        weights_v: np.ndarray,
        sem_block: np.ndarray,
    ) -> np.ndarray:
        return (np.multiply.outer(weights_u, weights_v) * sem_block).ravel()
