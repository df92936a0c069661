"""The walk-score kernel protocol: request and result types, configuration.

The Monte-Carlo hot paths — the batched likelihood-ratio walk scores of
Algorithm 1 and the classical ``c^tau`` SimRank reduction — are pure
array kernels: every input they need is prepared by the estimator (walk
tensors and their step offsets, per-edge ``W``/``Q`` arrays, the dense
semantic matrix, meeting times) and every output is a plain array plus a
handful of work counters.
:class:`ComputeBackend` pins that contract down.  The library ships one
implementation, :class:`~repro.backends.blocked.BlockedBackend`
(``"blocked"``); the stacked-array reference it is held to bit for bit
lives with the tests as an oracle (``tests/backends/numpy_ref.py``).

There is no registry: an estimator runs the kernel instance it is given
(``QueryEngine(backend=...)``, the estimators' ``backend=``), or a fresh
:class:`~repro.backends.blocked.BlockedBackend` when given ``None``.  The
protocol is the seam the identity suites swap the oracle in through.
"""

from __future__ import annotations

import abc
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.registry import get_registry, is_enabled

@dataclass(frozen=True)
class BackendConfig:
    """Tuning knobs of the walk-score kernel.

    block_rows:
        Rows (met coupled walks) the walk-score kernel scores per block.
        Every temporary the kernel holds is sized by one block, so the
        value bounds what a thread holds whatever the size of a request;
        it trades numpy call overhead against memory traffic.
    """

    block_rows: int = 4096

    def __post_init__(self) -> None:
        if self.block_rows < 1:
            raise ConfigurationError(
                f"block_rows must be >= 1, got {self.block_rows!r}"
            )


@dataclass
class WalkScoreRequest:
    """Inputs of the batched Algorithm-1 walk-score kernel.

    All arrays are prepared by :class:`~repro.core.montecarlo.MonteCarloSemSim`
    — the kernel does no graph or measure work of its own.  Pair *i* is
    ``(pos_u[i], positions[i])``: every pair carries its own source, so
    one call can score pairs from many sources.  Rows of the kernel's
    intermediate planes are the met coupled walks, enumerated exactly as
    ``np.nonzero(meetings >= 1)`` (C order), and each row reads only its
    own pair's walks.  A step from node ``c`` with offset ``o`` took the
    in-edge at slot ``indptr[c] + o`` of the per-edge *weights* (``W``)
    and *q* (``Q``).  *so_lookup*, when given, replaces the dense
    *so_matrix* with a per-pair callable (the SLING ``pair_index`` path)
    and owns its own evaluation counting.
    """

    walks: np.ndarray                 # (n, n_w, L + 1) node positions, -1 padded
    offsets: np.ndarray               # (n, n_w, L) in-edge offset per step, -1 padded
    indptr: np.ndarray                # (n + 1,) CSR row starts of the in-edges
    weights: np.ndarray               # (edges,) edge weight W per in-edge
    q: np.ndarray                     # (edges,) proposal probability Q per in-edge
    pos_u: np.ndarray                 # (m,) source node position per pair
    positions: np.ndarray             # (m,) candidate node position per pair
    meetings: np.ndarray              # (m, n_w) first-meeting steps, -1 = never
    sem_matrix: np.ndarray            # (n, n) dense semantic matrix
    decay: float
    theta: float | None
    so_matrix: np.ndarray | None = None
    so_lookup: Callable[[int, int], float] | None = None


@dataclass
class WalkScoreResult:
    """Outputs of the batched walk-score kernel.

    *totals* holds, per pair, the sum of per-walk likelihood-ratio
    scores (the scalar path's ``sum_w _walk_score(...)``); the counters are
    the stat deltas the estimator folds into its
    :class:`~repro.core.montecarlo.EstimatorStats`.
    """

    totals: np.ndarray                # (m,) float64
    walks_met: int = 0
    so_evaluations: int = 0
    walks_pruned: int = 0


class ComputeBackend(abc.ABC):
    """The kernels of the Monte-Carlo scoring hot paths.

    Subclasses set ``name`` (the label of ``kernel_seconds{backend}`` and
    of ``health()["backend"]``) and implement the two kernels, which must
    be bit-identical to the stacked reference on every input.  Instances
    are cheap and thread-safe: any scratch state must be per-thread
    (serving workers share one estimator, hence one backend instance).
    """

    name: str = "abstract"

    def __init__(self, config: BackendConfig | None = None) -> None:
        self.config = config if config is not None else BackendConfig()

    @abc.abstractmethod
    def batch_walk_scores(self, request: WalkScoreRequest) -> WalkScoreResult:
        """Run the batched Algorithm-1 likelihood-ratio kernel."""

    @abc.abstractmethod
    def simrank_scores(
        self,
        meetings: np.ndarray,
        met: np.ndarray,
        decay: float,
        num_walks: int,
    ) -> np.ndarray:
        """Classical MC SimRank reduction: ``sum(c^tau) / n_w`` per row."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------------
# SO-plane helper for the pair_index path (the kernel and its oracle).
# ---------------------------------------------------------------------------

def resolve_so_plane(
    cu: np.ndarray,
    cv: np.ndarray,
    active: np.ndarray,
    num_nodes: int,
    so_lookup: Callable[[int, int], float],
) -> np.ndarray:
    """Fill a ``(rows, steps)`` SO plane through a per-pair lookup.

    Deduplicates identical ``(cu, cv)`` step pairs before consulting
    *so_lookup* (which owns caching and evaluation counting), exactly as
    the pre-seam batch path did.  *active* marks the cells that need real
    values; inactive cells stay 1.0 and are masked downstream.
    """
    pair_keys = cu.astype(np.int64) * np.int64(num_nodes) + cv
    unique_keys, inverse = np.unique(pair_keys[active], return_inverse=True)
    unique_so = np.empty(unique_keys.size, dtype=np.float64)
    for j, key in enumerate(unique_keys):
        unique_so[j] = so_lookup(int(key) // num_nodes, int(key) % num_nodes)
    so = np.ones(cu.shape, dtype=np.float64)
    so[active] = unique_so[inverse]
    return so


# ---------------------------------------------------------------------------
# Kernel timing — the per-backend observability hook.
# ---------------------------------------------------------------------------

_KERNEL_SECONDS = get_registry().histogram(
    "kernel_seconds",
    help="Compute-kernel wall time per call, by backend and kernel.",
    labelnames=("backend", "kernel"),
    buckets=(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
             0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5),
)

_KERNEL_CELLS: dict[tuple[str, str], object] = {}


@contextmanager
def kernel_timer(backend: str, kernel: str) -> Iterator[None]:
    """Time one kernel call into ``kernel_seconds{backend, kernel}``.

    Free when observability is disabled; label children are cached so the
    hot path pays one dict hit, not a registry lookup.
    """
    if not is_enabled():
        yield
        return
    cell = _KERNEL_CELLS.get((backend, kernel))
    if cell is None:
        cell = _KERNEL_SECONDS.labels(backend=backend, kernel=kernel)
        _KERNEL_CELLS[(backend, kernel)] = cell
    start = time.perf_counter()
    try:
        yield
    finally:
        cell.observe(time.perf_counter() - start)
