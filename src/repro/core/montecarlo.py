"""Monte-Carlo similarity estimators (Section 4).

:class:`MonteCarloSimRank` is the classical Fogaras-Rácz estimator:
``(1/n_w) * sum c^{tau_l}`` over coupled pre-sampled walks.

:class:`MonteCarloSemSim` is the paper's Importance-Sampling estimator
(Algorithm 1).  The walks come from the *proposal* distribution ``Q``
(uniform, sampled per node), while the quantity of interest is an
expectation under the semantic-aware distribution ``P``; each met coupled
walk therefore contributes its likelihood ratio

    ``s(w) = prod_i  P[w_i -> w_{i+1}] * c / Q[w_i -> w_{i+1}]``

and the estimate is ``sem(u, v) / n_w * sum_w s(w)`` — unbiased for any
``Q`` supported wherever ``P`` is (Eq. 4).

Pruning (Section 4.4) applies two cuts, each bounding the error by θ:

* the *semantic gate* — ``sem(u, v) <= theta`` short-circuits to 0
  (justified by Prop. 2.5);
* the *walk cut* — the running product ``s(w)`` can only shrink (each
  factor is ≤ θ-tested), so once it drops to ≤ θ the walk's final value is
  frozen there (Def. 4.5).

Both estimators score by node position
(:meth:`MonteCarloSemSim.score_positions`): the pairs ``(pos_u[i],
positions[i])`` — one shared source or one source per pair — are
estimated in one pass of first-meeting detection and one call of the
walk-score kernel (:mod:`repro.backends`), which runs the
likelihood-ratio products and the θ walk-cut.  ``similarity`` is one
pair through the same pass and ``similarity_batch`` its by-name form for
one source, so every entry point returns the same float for a pair.
The kernel reads ``sem`` and ``SO`` through cell sources: the dense
matrices when the measure is materialised in index order, otherwise a
per-call memo that computes each cell the walks reach once.

A note on the paper's Algorithm 1 listing: it accumulates ``Pw`` and ``Qw``
cumulatively *and* multiplies ``Pw/Qw`` into ``sim_w`` at every step, which
would square earlier step ratios.  We implement the intent defined by
Def. 4.5 — per-step ratios multiplied once — which is also what makes the
estimator unbiased (verified statistically in the tests).
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from repro.backends import (
    ComputeBackend,
    ComputedCells,
    WalkScoreRequest,
    WalkScoreResult,
    kernel_timer,
    resolve_backend,
)
from repro.core.metrics import (
    ENGINE_EFFECTIVE_WALKS,
    ENGINE_WALK_COUNT,
    ESTIMATOR_TABLES_BUILT,
)
from repro.core.params import validate_decay, validate_theta
from repro.core.walk_index import WalkIndex
from repro.errors import ConfigurationError, StaleIndexError
from repro.hin.graph import GraphIndex, Node
from repro.obs.registry import get_registry, is_enabled
from repro.semantics.base import SemanticMeasure
from repro.semantics.cache import MatrixMeasure

if TYPE_CHECKING:
    from repro.core.sling import SlingIndex

#: Counter fields of :class:`EstimatorStats`, with the help text of the
#: mirrored registry families (``estimator_<field>_total``).
_STAT_HELP: dict[str, str] = {
    "queries": "Pairs scored, through similarity or a batch entry point.",
    "walks_examined": "Coupled walks whose meeting status was checked.",
    "walks_met": "Coupled walks that met and paid the IS correction.",
    "walks_pruned": "Met walks frozen early by the theta walk-cut (Def. 4.5).",
    "so_evaluations": "SO(u, v) denominators read from the dense table or computed.",
    "sem_gate_hits": "Pairs short-circuited to 0 by the Prop. 2.5 semantic gate.",
    "batch_queries": "Calls to a score_positions/similarity_batch entry point.",
    "batch_pairs": "Total pairs submitted through score_positions/similarity_batch.",
}


class EstimatorStats:
    """Work counters for one estimator instance.

    Stats are **per engine**: every estimator (and every
    :class:`repro.api.QueryEngine`) owns a fresh instance, so counters
    never leak across reused components; call :meth:`reset` to zero an
    instance in place between measurement windows.

    Mutation is **thread-safe**: every instance owns one lock, and
    :meth:`add` (the hot-path entry every estimator records through),
    attribute assignment, :meth:`reset` and :meth:`as_dict` all take it,
    so concurrent serving workers recording into one engine's stats never
    lose updates and snapshots are internally consistent.  Prefer
    :meth:`add` over ``stats.field += n`` in concurrent code — the
    augmented assignment spans two attribute operations and is not
    atomic.

    When constructed with *method* and *estimator* identity labels, every
    positive increment is additionally mirrored into the process-wide
    metrics registry as ``estimator_<field>_total{method=..., estimator=...}``
    series.  The mirror is one-way: the registry counters are monotonic
    across the process lifetime and :meth:`reset` never touches them — it
    zeroes only this instance's view, so two engines sharing a label set
    reset independently while the global series keeps the full history.

    Counters
    --------
    queries:
        Pairs scored, through ``similarity`` or a batch entry point
        (identity pairs included).
    walks_examined:
        Coupled walks whose meeting status was checked.
    walks_met:
        Coupled walks that met and therefore paid the IS correction.
    walks_pruned:
        Met walks frozen early by the θ walk-cut (Def. 4.5).
    so_evaluations:
        ``SO(u, v)`` denominators.  With the dense ``SO`` table, one per
        step before each met walk's meeting.  Otherwise each distinct
        cell a call's walks reach counts once, when it is computed; a
        ``pair_index`` hit counts nothing.
    sem_gate_hits:
        Pairs short-circuited to 0 by the Prop. 2.5 semantic gate.
    batch_queries:
        Calls to a ``score_positions`` or ``similarity_batch`` entry point.
    batch_pairs:
        Total pairs submitted through those entry points.
    """

    __slots__ = ("_values", "_cells", "_lock")

    _FIELDS = tuple(_STAT_HELP)

    def __init__(
        self,
        method: str | None = None,
        estimator: str | None = None,
        **counts: int,
    ) -> None:
        object.__setattr__(self, "_values", dict.fromkeys(self._FIELDS, 0))
        object.__setattr__(self, "_lock", threading.Lock())
        cells: dict[str, object] = {}
        if method is not None and estimator is not None:
            registry = get_registry()
            for field, help_text in _STAT_HELP.items():
                family = registry.counter(
                    f"estimator_{field}_total",
                    help=f"{help_text} Process-wide, monotonic across resets.",
                    labelnames=("method", "estimator"),
                )
                cells[field] = family.labels(method=method, estimator=estimator)
        object.__setattr__(self, "_cells", cells)
        for field, value in counts.items():
            setattr(self, field, value)

    def __getattr__(self, name: str):
        values = object.__getattribute__(self, "_values")
        try:
            return values[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no counter {name!r}"
            ) from None

    def __setattr__(self, name: str, value: int) -> None:
        if name not in self._values:
            raise AttributeError(
                f"{type(self).__name__} has no counter {name!r}"
            )
        with self._lock:
            values = self._values
            delta = value - values[name]
            values[name] = value
        if delta > 0:
            cell = self._cells.get(name)
            if cell is not None and is_enabled():
                cell.inc(delta)

    def add(self, **deltas: int) -> None:
        """Atomically add *deltas* to the named counters.

        This is the thread-safe mutation path: ``stats.queries += 1`` is a
        read-modify-write spanning two attribute operations and can lose
        updates under concurrent workers, whereas one :meth:`add` call
        applies every delta under the instance lock.  All estimator and
        engine hot paths record through this method; the registry mirror
        is updated outside the lock (registry children have their own
        registry-wide lock, and the mirrored series are monotonic, so the
        order of mirror increments does not matter).
        """
        values = self._values
        with self._lock:
            for field, delta in deltas.items():
                if field not in values:
                    raise AttributeError(
                        f"{type(self).__name__} has no counter {field!r}"
                    )
                values[field] += delta
        if self._cells and is_enabled():
            cells = self._cells
            for field, delta in deltas.items():
                if delta > 0:
                    cells[field].inc(delta)

    def reset(self) -> None:
        """Zero this instance's counters in place.

        Only the per-engine view moves; the mirrored process-wide registry
        series stay monotonic (resetting an engine must never erase another
        engine's — or the process's — history).
        """
        with self._lock:
            values = self._values
            for field in self._FIELDS:
                values[field] = 0

    def as_dict(self) -> dict[str, int]:
        """Counter values as a plain ``{field: value}`` dict."""
        with self._lock:
            return dict(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={self._values[f]}" for f in self._FIELDS)
        return f"EstimatorStats({inner})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EstimatorStats):
            return self._values == other._values
        return NotImplemented


class AccuracyGauges:
    """Pre-resolved accuracy gauge children for one MC estimator.

    One instance per estimator (same lifetime pattern as the stats
    mirror); :meth:`update` refreshes ``engine_walk_count`` and
    ``engine_effective_walks`` after a batch — the gauges describe the
    *latest* batch, which is the operator-facing "how trustworthy was
    that answer" reading, not a lifetime aggregate.
    """

    __slots__ = ("_walks", "_effective")

    def __init__(self, estimator: str) -> None:
        self._walks = ENGINE_WALK_COUNT.labels(engine="mc", estimator=estimator)
        self._effective = ENGINE_EFFECTIVE_WALKS.labels(
            engine="mc", estimator=estimator
        )

    def update(self, num_walks: int, walks_met: int, pairs: int) -> None:
        if pairs <= 0 or not is_enabled():
            return
        self._walks.set(float(num_walks))
        self._effective.set(walks_met / pairs)


class MonteCarloSimRank:
    """Classical MC SimRank over a :class:`WalkIndex` (Section 4.1).

    *backend* is the kernel instance for the batched path; ``None`` runs
    the library kernel (:func:`repro.backends.resolve_backend`).
    """

    def __init__(
        self,
        walk_index: WalkIndex,
        decay: float = 0.6,
        backend: ComputeBackend | None = None,
    ) -> None:
        self.walk_index = walk_index
        self.decay = validate_decay(decay)
        self.backend = resolve_backend(backend)
        self.stats = EstimatorStats(method="mc", estimator="simrank")
        self._accuracy = AccuracyGauges("simrank")
        self._epoch = int(getattr(walk_index, "epoch", 0))

    def _check_epoch(self) -> None:
        current = int(getattr(self.walk_index, "epoch", 0))
        if current != self._epoch:
            raise StaleIndexError(self._epoch, current)

    def similarity(self, u: Node, v: Node) -> float:
        """Return the MC SimRank estimate ``(1/n_w) * sum c^tau``.

        One pair through :meth:`score_positions`' kernel call, so it
        equals that pair's entry; it moves no ``batch_*`` counter.
        """
        index = self.walk_index
        scores, _ = self._score(
            index.node_position(u), np.array([index.node_position(v)])
        )
        return float(scores[0])

    def similarity_batch(
        self, u: Node, candidates: Sequence[Node]
    ) -> np.ndarray:
        """Estimate ``sim(u, v)`` for every candidate in one numpy pass."""
        index = self.walk_index
        return self.score_positions(
            index.node_position(u), index.node_positions(candidates)
        )

    def score_positions(
        self, pos_u: int | np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Scores of the pairs ``(pos_u[i], positions[i])``, by node position.

        *pos_u* is one source shared by every pair or one per pair; either
        way every pair runs through one ``simrank_scores`` kernel call, and
        each entry equals :meth:`similarity` of its pair.
        """
        pos_u, positions = pair_positions(pos_u, positions)
        scores, walks_met = self._score(pos_u, positions)
        m = positions.size
        self.stats.add(batch_queries=1, batch_pairs=m)
        self._accuracy.update(self.walk_index.num_walks, walks_met, m)
        return scores

    def _score(
        self, pos_u: int | np.ndarray, positions: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """The pairs' scores and their met walk count."""
        self._check_epoch()
        m = positions.size
        self.stats.add(queries=m)
        if m == 0:
            return np.empty(0, dtype=np.float64), 0
        index = self.walk_index
        meetings = index.first_meetings_pairs(pos_u, positions)  # (m, n_w)
        identity = positions == pos_u
        met = meetings >= 0
        met[identity] = False
        walks_met = int(np.count_nonzero(met))
        self.stats.add(
            walks_examined=(m - int(np.count_nonzero(identity))) * index.num_walks,
            walks_met=walks_met,
        )
        with kernel_timer(self.backend.name, "simrank_scores"):
            scores = self.backend.simrank_scores(
                meetings, met, self.decay, index.num_walks
            )
        scores[identity] = 1.0
        return scores, walks_met


class MonteCarloSemSim:
    """IS-based MC SemSim — Algorithm 1, with optional pruning and index.

    Parameters
    ----------
    walk_index:
        The shared per-node walk index (proposal ``Q``).
    measure:
        The semantic measure ``sem``.
    decay:
        The decay factor ``c``.
    theta:
        Pruning threshold; ``None`` disables pruning entirely (the unbiased
        estimator).  Lemma 4.7 wants ``theta <= 1 - c`` to keep pruned
        scores inside [0, 1]; we warn-by-exception only on clearly invalid
        values and leave the Lemma's recommendation to callers.
    pair_index:
        Optional :class:`repro.core.sling.SlingIndex`-compatible cache of
        the SARW step denominators ``SO(u, v)``, asked before any ``SO``
        cell is computed; cuts the O(d²) sum for indexed pairs (the Fig. 4
        "SLING" configuration).
    backend:
        The :class:`~repro.backends.ComputeBackend` instance that runs the
        walk-score kernel, or ``None`` for the library kernel.
    """

    def __init__(
        self,
        walk_index: WalkIndex,
        measure: SemanticMeasure,
        decay: float = 0.6,
        theta: float | None = 0.05,
        pair_index: "SlingIndex | None" = None,
        backend: ComputeBackend | None = None,
    ) -> None:
        self.walk_index = walk_index
        self.measure = measure
        self.decay = validate_decay(decay)
        self.theta = validate_theta(theta)
        self.pair_index = pair_index
        self.backend = resolve_backend(backend)
        self.stats = EstimatorStats(method="mc", estimator="semsim")
        self._accuracy = AccuracyGauges("semsim")
        self._graph_index = walk_index.index
        self._nodes = self._graph_index.nodes
        # A MatrixMeasure whose node order matches the index is read as a
        # dense sem cell source, and lets the O(d²) SO sum collapse to one
        # table, W sem Wᵀ, built once.  Any other measure is read through
        # per-call memos of the cells the walks reach.  A walk step's W and
        # Q need no table of their own: both read the per-edge arrays of
        # the walk index's transition tables through the step's offset.
        self._sem_matrix: np.ndarray | None = None
        if isinstance(measure, MatrixMeasure) and measure.nodes == list(self._nodes):
            self._sem_matrix = measure.matrix
        self._so_matrix: np.ndarray | None = None
        # Everything above snapshots the graph as of now; a later index
        # mutation invalidates it, detected via the epoch check below.
        self._epoch = int(getattr(walk_index, "epoch", 0))

    def _check_epoch(self) -> None:
        current = int(getattr(self.walk_index, "epoch", 0))
        if current != self._epoch:
            raise StaleIndexError(self._epoch, current)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def attach_precomputed(self, so_matrix: np.ndarray | None) -> None:
        """Adopt the ``SO`` table a previous run computed, if there is one.

        The artifact store's warm-start path hands back the exact array a
        cold build produced (typically a read-only memmap), so queries
        against it are bit-identical to a fresh build while skipping the
        ``SO = W sem Wᵀ`` products.  A table whose shape does not fit this
        estimator's nodes raises :class:`ConfigurationError`.
        """
        if so_matrix is None:
            return
        n = len(self._nodes)
        if so_matrix.shape != (n, n):
            raise ConfigurationError(
                f"precomputed SO matrix shape {so_matrix.shape} does not "
                f"match {n} nodes"
            )
        self._so_matrix = so_matrix

    def carry_tables(self, predecessor: "MonteCarloSemSim") -> None:
        """Build this estimator's ``SO`` from *predecessor*'s where possible.

        *predecessor* is the estimator of the generation this walk index
        was mutated from.  When the index's change record
        (:meth:`~repro.core.dynamic.DynamicWalkIndex.changes_since`) starts
        at the predecessor's epoch, the node count is unchanged and both
        read one semantic matrix, a built ``SO`` is copied and only the
        rows and columns of the nodes whose in-edges changed are
        recomputed, through the same arithmetic as a cold build — so the
        table is bit-identical to one.  Otherwise nothing is carried and
        ``SO`` is built in full on first use, as for a fresh estimator.
        """
        changes_since = getattr(self.walk_index, "changes_since", None)
        rows = changes_since(predecessor._epoch) if changes_since else None
        so_matrix = predecessor._so_matrix
        if (
            rows is None
            or so_matrix is None
            or len(predecessor._nodes) != len(self._nodes)
            or self._sem_matrix is None
            or predecessor._sem_matrix is not self._sem_matrix
        ):
            return
        so_matrix = np.array(so_matrix)
        changed = np.flatnonzero(rows)
        if changed.size:
            self._patch_so(so_matrix, changed)
        self._so_matrix = so_matrix
        _count_tables_built("carried")

    def similarity(self, u: Node, v: Node) -> float:
        """Return the Algorithm-1 estimate of ``sim(u, v)``.

        One pair through :meth:`score_positions`' core, so it equals that
        pair's batch entry; it moves no ``batch_*`` counter.
        """
        index = self.walk_index
        scores, _ = self._score(
            index.node_position(u), np.array([index.node_position(v)])
        )
        return float(scores[0])

    def similarity_batch(
        self, u: Node, candidates: Sequence[Node]
    ) -> np.ndarray:
        """Estimate ``sim(u, v_i)`` for a whole candidate set in one pass.

        The by-name form of :meth:`score_positions` with one shared
        source: *u*'s walk rows serve every candidate.
        """
        index = self.walk_index
        return self.score_positions(
            index.node_position(u), index.node_positions(candidates)
        )

    def similarity_with_interval(
        self, u: Node, v: Node, z: float = 1.96
    ) -> tuple[float, float]:
        """Return ``(estimate, half_width)`` with an empirical CLT interval.

        The per-coupled-walk contributions are i.i.d. (the walk index pairs
        independent samples), so ``z * std / sqrt(n_w)`` scaled by
        ``sem(u, v)`` is the usual normal-approximation half-width.  The
        contributions are the kernel's per-walk ``values`` (0 for walks
        that never meet).  For a distribution-free (much looser)
        alternative, combine the point estimate with
        :func:`repro.core.bounds.deviation_probability`.
        """
        index = self.walk_index
        scores, walked = self._score(
            index.node_position(u), np.array([index.node_position(v)])
        )
        if walked is None:
            return float(scores[0]), 0.0
        contributions = np.zeros(index.num_walks)
        contributions[walked.meetings[0] >= 1] = walked.result.values
        sem_uv = float(walked.sem[0])
        estimate = sem_uv * float(contributions.mean())
        spread = float(contributions.std(ddof=1)) if contributions.size > 1 else 0.0
        half_width = sem_uv * z * spread / np.sqrt(index.num_walks)
        return estimate, float(half_width)

    def score_positions(
        self, pos_u: int | np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Scores of the pairs ``(pos_u[i], positions[i])``, by node position.

        *pos_u* is one source position shared by every pair, or one per
        pair.  Identity pairs score 1, θ-gated pairs (Prop. 2.5) 0, and
        the rest run first-meeting detection plus one kernel call, in
        which each pair reads only its own two walk rows, so every entry
        equals :meth:`similarity` of that pair.
        """
        pos_u, positions = pair_positions(pos_u, positions)
        scores, walked = self._score(pos_u, positions)
        self.stats.add(batch_queries=1, batch_pairs=positions.size)
        if walked is not None:
            self._accuracy.update(
                self.walk_index.num_walks, walked.result.walks_met,
                walked.meetings.shape[0],
            )
        return scores

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _score(
        self, pos_u: int | np.ndarray, positions: np.ndarray
    ) -> "tuple[np.ndarray, _Walked | None]":
        """The pairs' scores, and what the kernel did for the walked ones.

        The second value is ``None`` when every pair is an identity or
        θ-gated pair, so no walk was scored.
        """
        self._check_epoch()
        m = positions.size
        self.stats.add(queries=m)
        scores = np.zeros(m, dtype=np.float64)
        sources = np.full(m, pos_u) if np.ndim(pos_u) == 0 else pos_u
        identity = positions == sources
        scores[identity] = 1.0
        active = np.flatnonzero(~identity)
        sem_cells = self._sem_cells()
        n = len(self._nodes)
        # int64 keys u * n + v; a position outside [0, n) raises
        keys = np.ravel_multi_index((sources[active], positions[active]), (n, n))
        sem = sem_cells.take(keys)
        if self.theta is not None:
            gated = sem <= self.theta
            self.stats.add(sem_gate_hits=int(np.count_nonzero(gated)))
            active, sem = active[~gated], sem[~gated]
        if active.size == 0:
            return scores, None
        index = self.walk_index
        self.stats.add(walks_examined=int(active.size) * index.num_walks)
        live_u, live_v = sources[active], positions[active]
        # a shared source is compared by broadcasting, not gathered per pair
        meetings = index.first_meetings_pairs(
            pos_u if np.ndim(pos_u) == 0 else live_u, live_v
        )
        so_cells = self._so_cells()
        tables = index.tables
        request = WalkScoreRequest(
            walks=index.walks, offsets=index.offsets, indptr=tables.indptr,
            weights=tables.weights, q=tables.q, pos_u=live_u,
            positions=live_v, meetings=meetings, sem=sem_cells, so=so_cells,
            decay=self.decay, theta=self.theta,
        )
        with kernel_timer(self.backend.name, "batch_walk_scores"):
            result = self.backend.batch_walk_scores(request)
        so_evaluations = result.so_evaluations
        if isinstance(so_cells, ComputedCells):
            so_evaluations += so_cells.computed
        self.stats.add(
            walks_met=result.walks_met,
            so_evaluations=so_evaluations,
            walks_pruned=result.walks_pruned,
        )
        scores[active] = sem * result.totals / index.num_walks
        return scores, _Walked(sem, meetings, result)

    def _sem_cells(self) -> "np.ndarray | ComputedCells":
        """One call's ``sem`` cells: the dense matrix, or a memo over the measure."""
        if self._sem_matrix is not None:
            return self._sem_matrix.reshape(-1)
        nodes, similarity = self._nodes, self.measure.similarity
        return ComputedCells(
            len(nodes), lambda a, b: similarity(nodes[a], nodes[b])
        )

    def _so_cells(self) -> "np.ndarray | ComputedCells":
        """One call's ``SO`` cells.

        The dense table when the measure is materialised and no
        ``pair_index`` is given.  Otherwise a memo that asks the
        ``pair_index`` first, then reads the dense table, or sums
        :func:`so_sum` for a lazy measure.
        """
        if self._sem_matrix is None:
            compute = partial(so_sum, self._graph_index, self.measure)
        else:
            self._ensure_so_matrix()
            so_matrix = self._so_matrix
            if self.pair_index is None:
                return so_matrix.reshape(-1)
            compute = so_matrix.item
        lookup = None if self.pair_index is None else self.pair_index.so_lookup
        return ComputedCells(len(self._nodes), compute, lookup)

    def _weight_matrix(self) -> sp.csr_matrix:
        """The sparse in-weight matrix ``W`` (``W[v, a] = W(a, v)``).

        Built from the transition tables' in-edges, row-major in in-list
        order.
        """
        tables = self.walk_index.tables
        n = len(self._nodes)
        rows = np.repeat(np.arange(n, dtype=np.int64), tables.degrees)
        cols = tables.targets.astype(np.int64)
        return sp.csr_matrix((tables.weights, (rows, cols)), shape=(n, n))

    def _ensure_so_matrix(self) -> None:
        """Materialise all SO denominators at once: ``SO = W sem Wᵀ``.

        ``W`` is the sparse in-weight matrix, so the build costs O(nnz · n)
        — negligible next to the n² semantic matrix that gates this path.
        """
        if self._so_matrix is not None or self._sem_matrix is None:
            return
        weight_matrix = self._weight_matrix()
        left = np.asarray(weight_matrix @ self._sem_matrix)          # W sem
        so_matrix = np.asarray(weight_matrix @ left.T).T             # W sem Wᵀ
        # Stored in C order, as an opened artifact's is: the blocked
        # kernel's flat take would otherwise copy the whole matrix per call.
        self._so_matrix = np.ascontiguousarray(so_matrix)
        _count_tables_built("full")

    def _patch_so(self, so_matrix: np.ndarray, rows: np.ndarray) -> None:
        """Recompute rows and columns *rows* of ``SO`` in place.

        ``SO[u, v]`` reads only rows *u* and *v* of ``W``, so when only the
        in-edges of *rows* changed every other entry stands.  The patch
        runs the same CSR kernels on the same row slices as the full
        product, so each entry sums the same terms in the same order:
        rows *R* are ``(W (W[R] sem)ᵀ)ᵀ`` and columns *R* are
        ``W[R]`` against the columns *C* of ``W sem`` it reads.
        """
        weight_matrix = self._weight_matrix()
        sem = self._sem_matrix
        sub = weight_matrix[rows]
        left_rows = np.asarray(sub @ sem)                            # (W sem)[R]
        so_matrix[rows, :] = np.asarray(weight_matrix @ left_rows.T).T
        cols = np.unique(sub.indices)
        left_cols = np.asarray(weight_matrix @ sem[:, cols])         # (W sem)[:, C]
        sub_cols = sp.csr_matrix(
            (sub.data, np.searchsorted(cols, sub.indices), sub.indptr),
            shape=(rows.size, cols.size),
        )
        so_matrix[:, rows] = np.asarray(sub_cols @ left_cols.T).T


class _Walked(NamedTuple):
    """The walked pairs of one scoring call: their ``sem``, first meetings
    and kernel result."""

    sem: np.ndarray
    meetings: np.ndarray
    result: WalkScoreResult


def pair_positions(
    pos_u: int | np.ndarray, positions
) -> tuple[int | np.ndarray, np.ndarray]:
    """Normalise a ``score_positions`` pair spec to int64 arrays.

    *pos_u* stays a scalar when it is one (a shared source); otherwise it
    becomes an int64 array that must hold one source per position.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if np.ndim(pos_u) == 0:
        return pos_u, positions
    pos_u = np.asarray(pos_u, dtype=np.int64)
    if pos_u.shape != positions.shape:
        raise ConfigurationError(
            f"score_positions needs one source per pair, got {pos_u.size} "
            f"sources for {positions.size} pairs"
        )
    return pos_u, positions


def so_sum(
    graph_index: GraphIndex, measure: SemanticMeasure, pos_u: int, pos_v: int
) -> float:
    """``SO(u, v) = sum_{a,b} W(a,u) W(b,v) sem(a,b)`` — the O(d²) double loop.

    The one lazy-measure form of the denominator: the estimator's
    computed ``SO`` cells and :class:`~repro.core.sling.SlingIndex` both
    sum it here, in in-list order.
    """
    nodes = graph_index.nodes
    similarity = measure.similarity
    weights_v = graph_index.in_weights[pos_v]
    neighbours_v = graph_index.in_lists[pos_v]
    total = 0.0
    for a, wa in zip(graph_index.in_lists[pos_u], graph_index.in_weights[pos_u]):
        node_a = nodes[int(a)]
        for b, wb in zip(neighbours_v, weights_v):
            total += wa * wb * similarity(node_a, nodes[int(b)])
    return float(total)


def _count_tables_built(mode: str) -> None:
    if is_enabled():
        ESTIMATOR_TABLES_BUILT.labels(mode=mode).inc()
