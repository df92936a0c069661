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

Both estimators expose a **batched query path** keyed by node position
(:meth:`MonteCarloSemSim.score_positions`): the pairs ``(pos_u[i],
positions[i])`` — one shared source or one source per pair — are
estimated in one numpy pass: first-meeting detection, likelihood-ratio
products and the θ walk-cut all run on stacked ``(num_pairs, num_walks,
length)`` arrays instead of per-pair ``similarity()`` calls.
``similarity_batch`` is its by-name form for one source.  The batch path
reproduces the scalar path's arithmetic operation-for-operation, so the
two agree bit for bit; when it cannot run vectorised (no dense semantic
matrix is available) it falls back to scalar queries and counts the
fallback in the stats.

A note on the paper's Algorithm 1 listing: it accumulates ``Pw`` and ``Qw``
cumulatively *and* multiplies ``Pw/Qw`` into ``sim_w`` at every step, which
would square earlier step ratios.  We implement the intent defined by
Def. 4.5 — per-step ratios multiplied once — which is also what makes the
estimator unbiased (verified statistically in the tests).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.backends import (
    ComputeBackend,
    WalkScoreRequest,
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

#: Counter fields of :class:`EstimatorStats`, with the help text of the
#: mirrored registry families (``estimator_<field>_total``).
_STAT_HELP: dict[str, str] = {
    "queries": "Pairs scored, through either the scalar or the batch path.",
    "walks_examined": "Coupled walks whose meeting status was checked.",
    "walks_met": "Coupled walks that met and paid the IS correction.",
    "walks_pruned": "Met walks frozen early by the theta walk-cut (Def. 4.5).",
    "so_evaluations": "SO(u, v) denominators computed from scratch.",
    "sem_gate_hits": "Pairs short-circuited to 0 by the Prop. 2.5 semantic gate.",
    "batch_queries": "Calls to a score_positions/similarity_batch entry point.",
    "batch_pairs": "Total pairs submitted through score_positions/similarity_batch.",
    "vectorized_pairs": "Batch pairs scored on the stacked-array fast path.",
    "scalar_fallbacks": "Batch pairs that fell back to scalar similarity().",
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
        Pairs scored, through either the scalar or the batch path
        (identity pairs included).
    walks_examined:
        Coupled walks whose meeting status was checked.
    walks_met:
        Coupled walks that met and therefore paid the IS correction.
    walks_pruned:
        Met walks frozen early by the θ walk-cut (Def. 4.5).
    so_evaluations:
        ``SO(u, v)`` denominators computed from scratch.  The batch path
        deduplicates identical ``(u, v)`` step pairs before evaluating, so
        this can be far below the scalar path's count for the same work.
    sem_gate_hits:
        Pairs short-circuited to 0 by the Prop. 2.5 semantic gate.
    batch_queries:
        Calls to a ``score_positions`` or ``similarity_batch`` entry point.
    batch_pairs:
        Total pairs submitted through those entry points.
    vectorized_pairs:
        Batch pairs scored on the stacked-array fast path.
    scalar_fallbacks:
        Batch pairs that fell back to per-pair ``similarity()`` calls
        (no dense semantic matrix available).
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

        The sum runs over the same masked ``(n_w,)`` row the
        ``simrank_scores`` kernel reduces, so every :meth:`score_positions`
        entry equals this float.
        """
        self._check_epoch()
        self.stats.add(queries=1)
        if u == v:
            return 1.0
        meetings = self.walk_index.first_meetings(u, v)
        met = meetings >= 0
        self.stats.add(
            walks_examined=int(meetings.size), walks_met=int(met.sum())
        )
        contrib = np.where(met, self.decay ** np.maximum(meetings, 0), 0.0)
        return float(contrib.sum() / self.walk_index.num_walks)

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
        self._check_epoch()
        m = positions.size
        self.stats.add(
            batch_queries=1, batch_pairs=m, vectorized_pairs=m, queries=m
        )
        if m == 0:
            return np.empty(0, dtype=np.float64)
        index = self.walk_index
        meetings = index.first_meetings_pairs(pos_u, positions)  # (m, n_w)
        identity = positions == pos_u
        met = meetings >= 0
        met[identity] = False
        self.stats.add(
            walks_examined=int((~identity).sum()) * index.num_walks,
            walks_met=int(met.sum()),
        )
        self._accuracy.update(index.num_walks, int(met.sum()), m)
        with kernel_timer(self.backend.name, "simrank_scores"):
            scores = self.backend.simrank_scores(
                meetings, met, self.decay, index.num_walks
            )
        scores[identity] = 1.0
        return scores


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
        the SARW step denominators ``SO(u, v)``; cuts the O(d²) inner loop
        for indexed pairs (the Fig. 4 "SLING" configuration).
    backend:
        The :class:`~repro.backends.ComputeBackend` instance that runs the
        batched kernel, or ``None`` for the library kernel.  Either way
        the batch path is bit-identical to the scalar path.
    """

    def __init__(
        self,
        walk_index: WalkIndex,
        measure: SemanticMeasure,
        decay: float = 0.6,
        theta: float | None = 0.05,
        pair_index: "SupportsSoLookup | None" = None,
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
        # Fast path: a MatrixMeasure whose node order matches the index lets
        # the O(d²) SO sum collapse to one vectorised bilinear form, and is
        # what unlocks the fully vectorised batch path below.
        self._sem_matrix: np.ndarray | None = None
        if isinstance(measure, MatrixMeasure) and measure.nodes == list(self._nodes):
            self._sem_matrix = measure.matrix
        # SO caches: the dense matrix for the MatrixMeasure fast path (built
        # once as W sem Wᵀ, read by scalar and batch alike so the two paths
        # always see bit-identical denominators), the dict for lazy measures.
        # A walk step's W and Q need no table of their own: both read the
        # per-edge arrays of the walk index's transition tables through the
        # step's offset.
        self._so_matrix: np.ndarray | None = None
        self._so_cache: dict[tuple[int, int], float] = {}
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
        """Return the Algorithm-1 estimate of ``sim(u, v)``."""
        exact, sem_uv, total, _ = self._scalar_walks(u, v)
        if exact is not None:
            return exact
        return sem_uv * total / self.walk_index.num_walks

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
        ``sem(u, v)`` is the usual normal-approximation half-width.  For a
        distribution-free (much looser) alternative, combine the point
        estimate with :func:`repro.core.bounds.deviation_probability`.
        """
        exact, sem_uv, _, contributions = self._scalar_walks(u, v)
        if exact is not None:
            return exact, 0.0
        estimate = sem_uv * float(contributions.mean())
        spread = float(contributions.std(ddof=1)) if contributions.size > 1 else 0.0
        half_width = sem_uv * z * spread / np.sqrt(self.walk_index.num_walks)
        return estimate, float(half_width)

    # ------------------------------------------------------------------
    # Internals — scalar path
    # ------------------------------------------------------------------
    def _scalar_walks(self, u: Node, v: Node):
        """One pair's Algorithm-1 walk loop, shared by the scalar entry points.

        Returns ``(exact, sem_uv, total, contributions)``.  *exact* is the
        answer of a pair no walk is needed for (1.0 for ``u == v``, 0.0
        below the θ gate), and ``None`` otherwise; then *contributions*
        holds each coupled walk's score (0 for walks that never meet) and
        *total* their running sum in walk order, so the estimate is
        ``sem_uv * total / num_walks``.
        """
        self._check_epoch()
        self.stats.add(queries=1)
        if u == v:
            return 1.0, None, None, None
        sem_uv = self.measure.similarity(u, v)
        if self.theta is not None and sem_uv <= self.theta:
            self.stats.add(sem_gate_hits=1)
            return 0.0, None, None, None
        index = self.walk_index
        pos_u, pos_v = index.node_position(u), index.node_position(v)
        meetings = index.first_meetings(u, v)
        contributions = np.zeros(index.num_walks)
        total = 0.0
        met = so_evals = pruned = 0
        for walk_id in np.flatnonzero(meetings >= 0):
            met += 1
            score, evals, cut = self._walk_score(
                pos_u, pos_v, int(walk_id), int(meetings[walk_id])
            )
            contributions[walk_id] = score
            total += score
            so_evals += evals
            pruned += cut
        self.stats.add(
            walks_examined=int(meetings.size), walks_met=met,
            so_evaluations=so_evals, walks_pruned=pruned,
        )
        return None, sem_uv, total, contributions

    def _walk_score(
        self, pos_u: int, pos_v: int, walk_id: int, meeting: int
    ) -> tuple[float, int, int]:
        """Likelihood-ratio score of one met coupled walk (Def. 4.5).

        Scores walk *walk_id* of the pair ``(pos_u, pos_v)``, which first
        meets at step *meeting*.  Returns ``(score, so_evaluations,
        pruned)`` so the per-step loop stays free of stats bookkeeping —
        callers fold the tallies into :class:`EstimatorStats` once per
        public query, which is what keeps the registry-mirrored counters
        off this hot path.
        """
        index = self.walk_index
        tables = index.tables

        def side(pos: int) -> tuple[list, list, list]:
            # The walk up to the meeting, and W and Q of each step read at
            # its in-edge's slot ``indptr[current] + offset``.
            walk = index.walks[pos, walk_id, : meeting + 1]
            edges = tables.indptr[walk[:-1]] + index.offsets[pos, walk_id, :meeting]
            return (
                walk.tolist(), tables.weights[edges].tolist(),
                tables.q[edges].tolist(),
            )

        walk_u, w_u, q_u = side(pos_u)
        walk_v, w_v, q_v = side(pos_v)
        score = 1.0
        so_evals = 0
        for step in range(meeting):
            numerator = (
                self.measure.similarity(
                    self._nodes[walk_u[step + 1]], self._nodes[walk_v[step + 1]]
                )
                * w_u[step]
                * w_v[step]
            )
            so, fresh = self._so_value(walk_u[step], walk_v[step])
            so_evals += fresh
            if so <= 0:
                return 0.0, so_evals, 0
            p_step = numerator / so
            q_step = q_u[step] * q_v[step]
            if q_step <= 0:
                return 0.0, so_evals, 0
            score *= p_step * self.decay / q_step
            if self.theta is not None and score <= self.theta:
                # Def. 4.5: freeze the walk's value at its first ≤ θ bound.
                return score, so_evals, 1
        return score, so_evals, 0

    def _so_denominator(self, pos_u: int, pos_v: int) -> float:
        """``SO(u, v)``, counting fresh evaluations into the stats."""
        value, fresh = self._so_value(pos_u, pos_v)
        if fresh:
            self.stats.add(so_evaluations=fresh)
        return value

    def _so_value(self, pos_u: int, pos_v: int) -> tuple[float, int]:
        """``SO(u, v) = sum_{a,b} W(a,u) W(b,v) sem(a,b)`` — the O(d²) core.

        Returns ``(value, fresh)`` where *fresh* is 1 when the denominator
        was computed from scratch and 0 on a ``pair_index`` hit; callers
        own the ``so_evaluations`` bookkeeping.
        """
        if self.pair_index is not None:
            cached = self.pair_index.so_lookup(pos_u, pos_v)
            if cached is not None:
                return cached, 0
        if self._sem_matrix is not None:
            self._ensure_so_matrix()
            return float(self._so_matrix[pos_u, pos_v]), 1
        return so_sum(self._graph_index, self.measure, pos_u, pos_v), 1

    # ------------------------------------------------------------------
    # Internals — vectorised batch path
    # ------------------------------------------------------------------
    def score_positions(
        self, pos_u: int | np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Scores of the pairs ``(pos_u[i], positions[i])``, by node position.

        *pos_u* is one source position shared by every pair, or one per
        pair.  One vectorised pass over all pairs: each pair's score reads
        only its own two walk rows, and its arithmetic is replayed in the
        scalar operation order, so every entry equals :meth:`similarity`
        of that pair.  Identity pairs score 1, θ-gated pairs (Prop. 2.5)
        0, and the rest run first-meeting detection plus the backend
        kernel.  Requires a dense semantic matrix to run vectorised —
        built automatically when *measure* is a
        :class:`~repro.semantics.cache.MatrixMeasure` in index node order;
        otherwise every pair falls back to the scalar path (counted in
        ``stats.scalar_fallbacks``).
        """
        pos_u, pos_v = pair_positions(pos_u, positions)
        self._check_epoch()
        m = pos_v.size
        self.stats.add(batch_queries=1, batch_pairs=m)
        if m == 0:
            return np.empty(0, dtype=np.float64)
        sources = np.broadcast_to(pos_u, pos_v.shape)
        if self._sem_matrix is None:
            self.stats.add(scalar_fallbacks=m)
            nodes = self._nodes
            return np.array(
                [
                    self.similarity(nodes[a], nodes[b])
                    for a, b in zip(sources.tolist(), pos_v.tolist())
                ],
                dtype=np.float64,
            )
        self.stats.add(vectorized_pairs=m, queries=m)

        index = self.walk_index
        scores = np.zeros(m, dtype=np.float64)
        identity = pos_v == sources
        scores[identity] = 1.0

        sem = self._sem_matrix[sources, pos_v]
        if self.theta is not None:
            gated = (sem <= self.theta) & ~identity
            self.stats.add(sem_gate_hits=int(gated.sum()))
        else:
            gated = np.zeros(m, dtype=bool)
        active_idx = np.flatnonzero(~identity & ~gated)
        if active_idx.size == 0:
            return scores
        self.stats.add(walks_examined=int(active_idx.size) * index.num_walks)

        live_u = sources[active_idx]
        live_v = pos_v[active_idx]
        # a shared source is compared by broadcasting, not gathered per pair
        meetings = index.first_meetings_pairs(
            pos_u if np.ndim(pos_u) == 0 else live_u, live_v
        )
        totals = self._batch_walk_scores(live_u, live_v, meetings)
        scores[active_idx] = sem[active_idx] * totals / index.num_walks
        return scores

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
        One shared table keeps the scalar and batch paths bit-identical.
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

    def _cached_so(self, pos_u: int, pos_v: int) -> float:
        """Memoised ``SO(u, v)`` for the backend's pair_index path.

        Consults the same ``_so_cache``/``pair_index``/stat-counting chain
        as the pre-seam batch path, so whichever backend asks — and in
        whatever block order — every (pair → value) is identical and each
        fresh evaluation is counted exactly once.
        """
        pair = (pos_u, pos_v)
        cached = self._so_cache.get(pair)
        if cached is None:
            cached = self._so_denominator(pos_u, pos_v)
            self._so_cache[pair] = cached
        return cached

    def _batch_walk_scores(
        self, pos_u: np.ndarray, positions: np.ndarray, meetings: np.ndarray
    ) -> np.ndarray:
        """Sum of per-walk likelihood-ratio scores for each pair.

        *meetings* is the ``(m, num_walks)`` first-meeting array for the
        pairs ``(pos_u[i], positions[i])``; the return value's entry *i*
        equals the scalar path's ``sum_w _walk_score(...)`` for pair *i*.
        The arithmetic itself lives in the compute backend — this method
        prepares the request (step offsets and per-edge tables, SO source)
        and folds the kernel's work counters back into the stats.
        """
        if self.pair_index is None:
            self._ensure_so_matrix()
            so_matrix, so_lookup = self._so_matrix, None
        else:
            # _cached_so owns caching and so_evaluations counting, so the
            # pair_index is consulted exactly as in the scalar path.
            so_matrix, so_lookup = None, self._cached_so
        index = self.walk_index
        tables = index.tables
        request = WalkScoreRequest(
            walks=index.walks,
            offsets=index.offsets,
            indptr=tables.indptr,
            weights=tables.weights,
            q=tables.q,
            pos_u=pos_u,
            positions=positions,
            meetings=meetings,
            sem_matrix=self._sem_matrix,
            decay=self.decay,
            theta=self.theta,
            so_matrix=so_matrix,
            so_lookup=so_lookup,
        )
        with kernel_timer(self.backend.name, "batch_walk_scores"):
            result = self.backend.batch_walk_scores(request)
        self.stats.add(
            walks_met=result.walks_met,
            so_evaluations=result.so_evaluations,
            walks_pruned=result.walks_pruned,
        )
        self._accuracy.update(
            self.walk_index.num_walks, result.walks_met, int(positions.size)
        )
        return result.totals


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

    The one lazy-measure form of the denominator: the estimator's scalar
    path and :class:`~repro.core.sling.SlingIndex` both sum it here, in
    in-list order.
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


class SupportsSoLookup:
    """Protocol-ish base: anything with ``so_lookup(pos_u, pos_v)``."""

    def so_lookup(self, pos_u: int, pos_v: int) -> float | None:  # pragma: no cover
        """Return the cached ``SO`` denominator or ``None`` on a miss."""
        raise NotImplementedError
