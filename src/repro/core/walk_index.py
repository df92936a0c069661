"""The precomputed reverse-random-walk index (Section 4.1).

SimRank's scalable MC framework (Fogaras & Rácz [9]) pre-samples ``n_w``
*reverse* walks of length ``t`` from every node; a single-pair query then
couples the i-th walk from ``u`` with the i-th walk from ``v`` and inspects
their first meeting.  SemSim's Importance-Sampling estimator reuses exactly
this index — that is the whole point of Section 4.3: the proposal
distribution ``Q`` is sampled per *node*, keeping storage at
``O(n * n_w * t)`` instead of the naive per-pair ``O(n² * n_w * t)``.

Walks are stored as one dense int32 array with ``-1`` padding after a dead
end, so coupling two walks is pure array arithmetic.

Sampling is organised for scale:

* the proposal distribution is compiled into **CSR-style transition
  tables** (``indptr`` / ``targets`` / augmented cumulative probabilities),
  so advancing *every* live walker of a shard one step is a single
  ``searchsorted`` over a globally sorted array — no per-node Python loop;
* randomness is drawn from **per-node child generators** spawned with
  :class:`numpy.random.SeedSequence`, which makes the sampled tensor
  independent of how nodes are sharded across workers — ``workers=8``
  produces bit-identical walks to a serial build with the same seed;
* shards run on a :class:`concurrent.futures.ThreadPoolExecutor` (the hot
  loops are numpy calls that release the GIL).

Two proposal policies are provided (ablation A2): ``UNIFORM`` (the paper's
choice of ``Q``) and ``WEIGHTED`` (steps proportional to edge weight).
Indexes persist to ``.npz`` via :func:`save_walk_index` /
:func:`load_walk_index`, so the preprocessing cost (Section 5.2) is paid
once per graph.
"""

from __future__ import annotations

import enum
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.params import (
    validate_length,
    validate_num_walks,
    validate_workers,
)
from repro.errors import GraphError, NodeNotFoundError
from repro.hin.graph import GraphIndex, HIN, Node
from repro.obs.registry import get_registry, is_enabled
from repro.obs.trace import span
from repro.utils.rng import spawn_rngs

_WALKS_PER_SECOND = get_registry().gauge(
    "walk_index_walks_per_second",
    help="Sampling throughput (walks/second) of the latest walk-index build.",
)


class WalkPolicy(enum.Enum):
    """How the proposal distribution ``Q`` picks the next in-neighbour."""

    UNIFORM = "uniform"
    WEIGHTED = "weighted"


class _TransitionTables:
    """CSR view of the in-adjacency compiled for vectorised stepping.

    ``aug_cumprob`` holds each row's cumulative step probabilities *offset
    by the row id*: row ``v``'s entries lie in ``(v, v + 1]``, so the whole
    array is globally sorted and one ``searchsorted(aug_cumprob, v + r)``
    resolves a uniform draw ``r`` for any mix of current nodes ``v`` in a
    single call.
    """

    __slots__ = ("indptr", "targets", "aug_cumprob", "degrees", "weight_sums")

    def __init__(self, index: GraphIndex, policy: WalkPolicy) -> None:
        n = index.num_nodes
        degrees = np.array([lst.size for lst in index.in_lists], dtype=np.int64)
        if degrees.size:
            indptr = np.concatenate(([0], np.cumsum(degrees)))
        else:
            indptr = np.zeros(1, dtype=np.int64)
        total = int(indptr[-1])
        if total:
            targets = np.concatenate(index.in_lists).astype(np.int32)
            weights = np.concatenate(index.in_weights).astype(np.float64)
        else:
            targets = np.empty(0, dtype=np.int32)
            weights = np.empty(0, dtype=np.float64)
        self.indptr = indptr
        self.targets = targets
        self.degrees = degrees

        # Per-row weight totals (Q's normaliser under the WEIGHTED policy).
        sums = np.zeros(n, dtype=np.float64)
        if total:
            np.add.at(sums, np.repeat(np.arange(n), degrees), weights)
        self.weight_sums = sums

        masses = np.ones(total) if policy is WalkPolicy.UNIFORM else weights
        cums = np.cumsum(masses)
        rows = np.repeat(np.arange(n), degrees)
        prior = np.concatenate(([0.0], cums))[indptr[:-1]]
        within = cums - np.repeat(prior, degrees)
        row_totals = np.repeat(within[indptr[1:] - 1] if total else prior, degrees)
        with np.errstate(invalid="ignore", divide="ignore"):
            cumprob = within / row_totals
        nonempty_ends = indptr[1:][degrees > 0] - 1
        cumprob[nonempty_ends] = 1.0  # guard float drift at the row end
        self.aug_cumprob = cumprob + rows

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        targets: np.ndarray,
        aug_cumprob: np.ndarray,
        degrees: np.ndarray,
        weight_sums: np.ndarray,
    ) -> "_TransitionTables":
        """Rehydrate tables from previously compiled arrays (no recompute).

        Used by the artifact store's warm-start path; arrays may be
        read-only memmaps — every consumer only reads them.
        """
        tables = cls.__new__(cls)
        tables.indptr = indptr
        tables.targets = targets
        tables.aug_cumprob = aug_cumprob
        tables.degrees = degrees
        tables.weight_sums = weight_sums
        return tables

    def step(self, current: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Advance walkers standing on *current* using uniform *draws*.

        Both inputs are 1-D and aligned; every ``current`` entry must be a
        node with at least one in-neighbour.  Returns the next node ids.
        """
        position = np.searchsorted(self.aug_cumprob, current + draws, side="right")
        np.minimum(position, self.indptr[current + 1] - 1, out=position)
        return self.targets[position]


class WalkIndex:
    """``n_w`` truncated reverse walks per node, plus their ``Q`` step odds.

    Attributes
    ----------
    walks:
        int32 array of shape ``(n, num_walks, length + 1)``; ``walks[v, i,
        0] == v`` and ``-1`` marks steps past a dead end.
    epoch:
        Mutation counter; always ``0`` for this immutable index.
        :class:`~repro.core.dynamic.DynamicWalkIndex` increments it on every
        graph update so estimators can detect stale snapshots (they record
        the epoch at construction and raise
        :class:`~repro.errors.StaleIndexError` on mismatch).

    Parameters
    ----------
    workers:
        Number of threads used to build the index (``None`` or ``1`` =
        serial).  The sampled walks are **bit-identical** for any worker
        count and a fixed *seed*, because randomness is spawned per node.
    shard_size:
        Nodes per construction shard; defaults to a size that gives each
        worker a few shards.  Affects neither results nor storage.
    """

    epoch: int = 0

    def __init__(
        self,
        graph: HIN,
        num_walks: int = 150,
        length: int = 15,
        policy: WalkPolicy = WalkPolicy.UNIFORM,
        seed: int | np.random.Generator | None = None,
        workers: int | None = None,
        shard_size: int | None = None,
    ) -> None:
        self.graph = graph
        self.index: GraphIndex = graph.index()
        self.num_walks = validate_num_walks(num_walks)
        self.length = validate_length(length)
        self.policy = policy
        self._tables: _TransitionTables | None = None
        self.walks = self._sample_all(
            seed, workers=validate_workers(workers), shard_size=shard_size
        )

    @classmethod
    def from_arrays(
        cls,
        graph: HIN,
        walks: np.ndarray,
        *,
        num_walks: int,
        length: int,
        policy: WalkPolicy = WalkPolicy.UNIFORM,
        tables: _TransitionTables | None = None,
        graph_index: GraphIndex | None = None,
    ) -> "WalkIndex":
        """Build an index around a pre-sampled walk tensor (no sampling).

        This is the warm-start constructor behind
        :func:`load_walk_index` and the artifact store: *walks* may be a
        read-only memmap, and *tables* (when given) skips recompiling the
        CSR proposal tables.  *graph_index* (when given) is an existing
        :class:`GraphIndex` snapshot of *graph* to share instead of
        re-deriving one.  The tensor must match *graph* —
        ``(num_nodes, num_walks, length + 1)`` with ``walks[v, :, 0] == v``.
        """
        index = cls.__new__(cls)
        index.graph = graph
        index.index = graph_index if graph_index is not None else graph.index()
        index.num_walks = validate_num_walks(num_walks)
        index.length = validate_length(length)
        index.policy = policy
        index._tables = tables
        expected = (index.index.num_nodes, index.num_walks, index.length + 1)
        if walks.shape != expected:
            raise GraphError(
                f"walk tensor shape {walks.shape} does not match this graph "
                f"and configuration (expected {expected})"
            )
        if not np.issubdtype(walks.dtype, np.integer):
            raise GraphError(
                f"walk tensor must hold integers, got dtype {walks.dtype}"
            )
        index.walks = walks
        return index

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    @property
    def tables(self) -> _TransitionTables:
        """The CSR transition tables of the proposal distribution ``Q``."""
        if self._tables is None:
            self._tables = _TransitionTables(self.index, self.policy)
        return self._tables

    def _sample_all(
        self,
        seed: int | np.random.Generator | None,
        workers: int | None = None,
        shard_size: int | None = None,
    ) -> np.ndarray:
        n = self.index.num_nodes
        if n == 0:
            return np.empty((0, self.num_walks, self.length + 1), dtype=np.int32)
        # One child generator per node: the draw stream consumed for node v
        # depends only on (seed, v), never on sharding or worker count.
        rngs = spawn_rngs(seed, n)
        effective_workers = max(1, workers or 1)
        if shard_size is None:
            shard_size = n if effective_workers == 1 else max(
                1, -(-n // (effective_workers * 4))
            )
        shards = [
            (lo, min(lo + shard_size, n)) for lo in range(0, n, shard_size)
        ]
        with span(
            "walk_index.build",
            nodes=n, num_walks=self.num_walks, length=self.length,
            workers=effective_workers, shards=len(shards),
        ) as build_span:
            if effective_workers == 1 or len(shards) == 1:
                parts = [
                    self._sample_shard(lo, hi, rngs[lo:hi]) for lo, hi in shards
                ]
            else:
                with ThreadPoolExecutor(max_workers=effective_workers) as pool:
                    parts = list(
                        pool.map(
                            lambda bounds: self._sample_shard(
                                bounds[0], bounds[1], rngs[bounds[0]:bounds[1]]
                            ),
                            shards,
                        )
                    )
            walks = np.ascontiguousarray(np.concatenate(parts, axis=0))
        if is_enabled() and build_span.wall_seconds:
            _WALKS_PER_SECOND.set(n * self.num_walks / build_span.wall_seconds)
        return walks

    def _sample_shard(
        self, lo: int, hi: int, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Sample the walk tensor of nodes ``[lo, hi)`` — one shard.

        All randomness is pre-drawn per node in a fixed ``(num_walks,
        length)`` shape (dead walkers simply waste their draws), so the
        stepping below is deterministic given the draws and the graph.
        """
        count = hi - lo
        # Worker-pool threads open their own span stacks (depth 0); the
        # shard spans still land in walk_index_sample_shard_seconds.
        with span("walk_index.sample_shard", lo=lo, hi=hi, nodes=count):
            tables = self.tables
            total_walkers = count * self.num_walks
            steps = np.full((self.length + 1, total_walkers), -1, dtype=np.int32)
            steps[0] = np.repeat(
                np.arange(lo, hi, dtype=np.int32), self.num_walks
            )
            draws = np.empty((total_walkers, self.length), dtype=np.float64)
            for offset, rng in enumerate(rngs):
                start = offset * self.num_walks
                draws[start:start + self.num_walks] = rng.random(
                    (self.num_walks, self.length)
                )
            for step in range(self.length):
                current = steps[step]
                movable = np.flatnonzero(current >= 0)
                if movable.size == 0:
                    break
                nodes_here = current[movable].astype(np.int64)
                live = tables.degrees[nodes_here] > 0
                movable = movable[live]
                if movable.size == 0:
                    continue
                steps[step + 1, movable] = tables.step(
                    nodes_here[live], draws[movable, step]
                )
            return steps.T.reshape(count, self.num_walks, self.length + 1)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_position(self, node: Node) -> int:
        """Return the numeric id of *node* in the underlying index."""
        try:
            return self.index.position[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def node_positions(self, nodes: Sequence[Node]) -> np.ndarray:
        """Return the numeric ids of *nodes* as one int64 array."""
        return np.fromiter(
            (self.node_position(node) for node in nodes),
            dtype=np.int64,
            count=len(nodes),
        )

    def walks_from(self, node: Node) -> np.ndarray:
        """Return the ``(num_walks, length + 1)`` walk array of *node*."""
        return self.walks[self.node_position(node)]

    def first_meetings(self, u: Node, v: Node) -> np.ndarray:
        """Return the first-meeting step of each coupled walk (−1 if none).

        Coupling pairs the i-th walk from ``u`` with the i-th from ``v``;
        the meeting step is the smallest offset ``k >= 1`` where both walks
        are alive and stand on the same node.
        """
        walks_u = self.walks_from(u)
        walks_v = self.walks_from(v)
        alive = (walks_u >= 0) & (walks_v >= 0)
        same = (walks_u == walks_v) & alive
        same[:, 0] = False  # the start offset does not count as a meeting
        met_anywhere = same.any(axis=1)
        # argmax over booleans returns the first True column per row.
        first = same.argmax(axis=1)
        return np.where(met_anywhere, first, -1).astype(np.int64)

    def first_meetings_batch(
        self, query: Node, candidates: Sequence[Node] | np.ndarray
    ) -> np.ndarray:
        """First-meeting steps of *query* against many candidates at once.

        Returns an int64 array of shape ``(len(candidates), num_walks)``
        whose row *i* equals ``first_meetings(query, candidates[i])`` — the
        single-source case of :meth:`first_meetings_pairs`.
        """
        positions = (
            np.asarray(candidates, dtype=np.int64)
            if isinstance(candidates, np.ndarray)
            else self.node_positions(candidates)
        )
        return self.first_meetings_pairs(self.node_position(query), positions)

    def first_meetings_pairs(
        self, pos_u: int | np.ndarray, pos_v: np.ndarray
    ) -> np.ndarray:
        """First-meeting steps of the pairs ``(pos_u[i], pos_v[i])``.

        *pos_u* is one source position shared by every pair, or one per
        pair; *pos_v* holds the candidate positions.  Returns an int64
        ``(len(pos_v), num_walks)`` array whose row *i* equals
        ``first_meetings`` of pair *i*, computed in one stacked comparison
        over the walk tensor.
        """
        walks_u = self.walks[pos_u]         # (n_w, t + 1) or (m, n_w, t + 1)
        walks_v = self.walks[pos_v]         # (m, n_w, t + 1)
        same = (walks_v == walks_u) & (walks_v >= 0) & (walks_u >= 0)
        same[:, :, 0] = False
        met_anywhere = same.any(axis=2)
        first = same.argmax(axis=2)
        return np.where(met_anywhere, first, -1).astype(np.int64)

    def q_step_probability(self, current: int, chosen: int) -> float:
        """Return ``Q[current -> chosen]`` for one step of one walk."""
        neighbours = self.index.in_lists[current]
        if neighbours.size == 0:
            return 0.0
        if self.policy is WalkPolicy.UNIFORM:
            return 1.0 / neighbours.size
        weights = self.index.in_weights[current]
        total = float(weights.sum())
        matches = neighbours == chosen
        if not matches.any():
            return 0.0
        return float(weights[matches][0]) / total

    # ------------------------------------------------------------------
    # Accounting (preprocessing experiment)
    # ------------------------------------------------------------------
    @property
    def storage_entries(self) -> int:
        """Number of stored walk steps — the ``O(n * n_w * t)`` of §4.1."""
        return int(self.walks.size)

    @property
    def storage_bytes(self) -> int:
        """Actual bytes held by the walk array."""
        return int(self.walks.nbytes)

    def __repr__(self) -> str:
        return (
            f"WalkIndex(nodes={self.index.num_nodes}, num_walks={self.num_walks}, "
            f"length={self.length}, policy={self.policy.value})"
        )


def save_walk_index(index: WalkIndex, path: str | Path) -> None:
    """Persist *index* to a versioned compressed ``.npz`` file.

    Thin shim over :func:`repro.store.walk_io.save_walks_npz`.  Node
    identifiers are stored as strings; graphs with non-string ids
    round-trip as long as their ``str()`` forms are unique.
    """
    from repro.store.walk_io import save_walks_npz

    save_walks_npz(
        path,
        index.walks,
        num_walks=index.num_walks,
        length=index.length,
        policy=index.policy.value,
        nodes=[str(node) for node in index.index.nodes],
    )


def load_walk_index(graph: HIN, path: str | Path) -> WalkIndex:
    """Load an index written by :func:`save_walk_index` for *graph*.

    Thin shim over :func:`repro.store.walk_io.load_walks_npz` plus the
    graph-compatibility check: the graph must contain the same nodes in
    the same order as when the index was built (edge changes are tolerated
    for loading but make the stored walks stale — rebuild or use
    :class:`~repro.core.dynamic.DynamicWalkIndex` in that case).  Corrupt,
    truncated or wrong-version files raise
    :class:`~repro.errors.GraphError` with a message naming the problem.
    """
    from repro.store.walk_io import load_walks_npz

    walks, metadata = load_walks_npz(path)
    current_nodes = [str(node) for node in graph.nodes()]
    if current_nodes != metadata["nodes"]:
        raise GraphError(
            "stored walk index does not match this graph's node set/order"
        )
    try:
        policy = WalkPolicy(metadata["policy"])
    except ValueError:
        raise GraphError(
            f"stored walk index uses unknown proposal policy "
            f"{metadata['policy']!r}"
        ) from None
    return WalkIndex.from_arrays(
        graph,
        walks,
        num_walks=int(metadata["num_walks"]),
        length=int(metadata["length"]),
        policy=policy,
    )
