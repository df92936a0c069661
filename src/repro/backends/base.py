"""The walk-score kernel protocol: request and result types, configuration.

The Monte-Carlo hot paths — the batched likelihood-ratio walk scores of
Algorithm 1 and the classical ``c^tau`` SimRank reduction — are pure
array kernels: every input they need is prepared by the estimator (walk
tensors and their step offsets, per-edge ``W``/``Q`` arrays, the ``sem``
and ``SO`` cell sources, meeting times) and every output is a plain
array plus a handful of work counters.
:class:`ComputeBackend` pins that contract down.  The library ships one
implementation, :class:`~repro.backends.blocked.BlockedBackend`
(``"blocked"``); the stacked-array reference it is held to bit for bit
lives with the tests as an oracle (``tests/backends/numpy_ref.py``).

A *cell source* is anything with ``take(keys)`` over flat node-pair keys
``u * n + v``.  A dense ``(n, n)`` matrix's flat view is one;
:class:`ComputedCells` is the other, a memo that computes each distinct
cell once on first ``take``.

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
from typing import Callable, Iterator, Protocol

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


class CellSource(Protocol):
    """Cells of an ``(n, n)`` node-pair table by flat key ``u * n + v``."""

    def take(self, keys: np.ndarray) -> np.ndarray:  # pragma: no cover
        """The float64 cells at the 1-D int64 *keys*, in their order."""


class ComputedCells:
    """A cell source that computes each distinct cell once, on first ``take``.

    *compute(u, v)* returns the cell of node pair ``(u, v)``.  A
    *lookup(u, v)* that returns a float (the SLING ``pair_index``) is
    asked first; a cell it answers is not computed.  :attr:`computed`
    counts the cells computed so far.  One instance serves one scoring
    call, so the memo never outlives the graph it was computed from.
    """

    def __init__(
        self,
        num_nodes: int,
        compute: Callable[[int, int], float],
        lookup: Callable[[int, int], float | None] | None = None,
    ) -> None:
        self._n = num_nodes
        self._compute = compute
        self._lookup = lookup
        self._cells: dict[int, float] = {}
        self.computed = 0

    def take(self, keys: np.ndarray) -> np.ndarray:
        """The cells at the 1-D int64 *keys*, computing the new ones."""
        cells = self._cells
        values = []
        for key in keys.tolist():
            value = cells.get(key)
            if value is None:
                value = cells[key] = self._cell(key)
            values.append(value)
        return np.array(values, dtype=np.float64)

    def _cell(self, key: int) -> float:
        u, v = divmod(key, self._n)
        if self._lookup is not None:
            value = self._lookup(u, v)
            if value is not None:
                return value
        self.computed += 1
        return self._compute(u, v)


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
    and *q* (``Q``).  *sem* and *so* are cell sources over the ``n =
    len(indptr) - 1`` nodes; a computed source (one that is not an
    ``ndarray``) is read only at the cells a live walk reaches, and owns
    its own evaluation counting.
    """

    walks: np.ndarray                 # (n, n_w, L + 1) node positions, -1 padded
    offsets: np.ndarray               # (n, n_w, L) in-edge offset per step, -1 padded
    indptr: np.ndarray                # (n + 1,) CSR row starts of the in-edges
    weights: np.ndarray               # (edges,) edge weight W per in-edge
    q: np.ndarray                     # (edges,) proposal probability Q per in-edge
    pos_u: np.ndarray                 # (m,) source node position per pair
    positions: np.ndarray             # (m,) candidate node position per pair
    meetings: np.ndarray              # (m, n_w) first-meeting steps, -1 = never
    sem: CellSource                   # sem(a, b) at key a * n + b
    so: CellSource                    # SO(a, b) at key a * n + b
    decay: float
    theta: float | None


@dataclass
class WalkScoreResult:
    """Outputs of the batched walk-score kernel.

    *values* holds each met walk's Def. 4.5 score, one per kernel row
    (``np.nonzero(meetings >= 1)`` order), and *totals* their sum per
    pair, added in row order; the counters are the stat deltas the
    estimator folds into its :class:`~repro.core.montecarlo.EstimatorStats`.
    A dense ``so`` counts one evaluation per step before each meeting.
    """

    totals: np.ndarray                # (m,) float64
    values: np.ndarray                # (rows,) float64
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
