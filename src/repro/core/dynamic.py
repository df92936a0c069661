"""Dynamic-graph support for the MC framework (Section 7 future work).

The paper's random-walk approach is "compatible with updates in the graph"
(its Related Work, citing READS [14]): when the in-adjacency of a node
changes, only the walks that *visit* that node are affected — and because
reverse walks are memoryless, re-stepping each affected walk from its first
visit restores the sampling distribution of a freshly built index.

:class:`DynamicWalkIndex` goes one step further than distribution
equivalence: it replays the **exact draw schedule** of a from-scratch
build.  :class:`~repro.core.walk_index.WalkIndex` pre-draws one uniform
float per ``(node, walk, step)`` from a per-node child generator spawned
off the seed, and dead walkers simply waste their draws — so each walk is
a pure function of ``(draws, transition tables)``.  Child ``v`` of
``SeedSequence(seed)`` equals ``SeedSequence(entropy=seed,
spawn_key=(v,))``, so any node's draw block can be regenerated on demand,
including blocks for nodes appended after the initial build.  Repair after
a mutation therefore recompiles the transition tables, finds every row
whose compiled stepping data changed **bitwise**, and re-steps affected
walk suffixes with the regenerated draws through the same vectorised
``tables.step`` arithmetic.  The maintained tensor is *bit-identical* to
``WalkIndex(mutated_graph, seed=seed)`` — the property
``tests/properties/test_dynamic_identity.py`` proves under randomized
mutation schedules.

The bitwise row diff matters: the table compile computes cumulative
probabilities with one global ``cumsum``, so under the WEIGHTED policy an
untouched row's probabilities can shift by an ulp after a mutation
elsewhere.  Diffing the recompiled tables (instead of assuming only the
mutated node's row changed) keeps the identity exact for every policy.

Each successful mutation increments :attr:`DynamicWalkIndex.epoch`.
Estimators record the epoch at construction and raise
:class:`~repro.errors.StaleIndexError` when queried across a mutation —
they snapshot edge weights, so they are recreated after updates.  To
keep that cheap the index also keeps a **change record** since a given
epoch (:meth:`DynamicWalkIndex.changes_since`): the walks whose per-step
data may differ and the rows whose in-edges changed.  An estimator built
on the new epoch copies its predecessor's per-step tables and ``SO``
matrix and recomputes only what the record names.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core.walk_index import WalkIndex, WalkPolicy, _TransitionTables
from repro.errors import ConfigurationError, EdgeNotFoundError, GraphError
from repro.hin.graph import (
    DEFAULT_EDGE_LABEL,
    DEFAULT_NODE_LABEL,
    DEFAULT_WEIGHT,
    HIN,
    Node,
)

#: One applied mutation: ``(kind, source, target, weight_repr, label)`` with
#: every field a string so the log is JSON- and hash-stable.
MutationRecord = tuple[str, str, str, str, str]


def _seed_entropy(seed: int | None) -> int:
    """Normalise *seed* to the :class:`~numpy.random.SeedSequence` entropy.

    Incremental maintenance re-derives per-node draw streams from the seed,
    which an opaque, already-advanced ``Generator`` cannot provide — so only
    integers (or ``None``, capturing fresh OS entropy once) are accepted.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ConfigurationError(
        "DynamicWalkIndex requires an integer seed (or None to capture a "
        f"random one), got {type(seed).__name__}: incremental maintenance "
        "regenerates per-node draw streams from the seed entropy"
    )


def _changed_rows(old: _TransitionTables, new: _TransitionTables) -> np.ndarray:
    """Boolean mask over *new*'s rows whose stepping data differs from *old*.

    Rows past ``old``'s node count (appended nodes) are always changed.
    Equal-degree rows contribute aligned subsequences to both flattened edge
    arrays, so the comparison is a single vectorised pass — no per-row loop.
    """
    old_n = old.degrees.size
    new_n = new.degrees.size
    changed = np.ones(new_n, dtype=bool)
    common = min(old_n, new_n)
    if common == 0:
        return changed
    deg_eq = np.zeros(max(old_n, new_n), dtype=bool)
    deg_eq[:common] = old.degrees[:common] == new.degrees[:common]
    changed[:common] = ~deg_eq[:common]
    if not deg_eq.any():
        return changed
    old_rows = np.repeat(np.arange(old_n), old.degrees)
    new_rows = np.repeat(np.arange(new_n), new.degrees)
    old_mask = deg_eq[old_rows]
    new_mask = deg_eq[new_rows]
    diff = (old.targets[old_mask] != new.targets[new_mask]) | (
        old.aug_cumprob[old_mask] != new.aug_cumprob[new_mask]
    )
    if diff.any():
        changed[np.unique(old_rows[old_mask][diff])] = True
    return changed


class DynamicWalkIndex:
    """A reverse-walk index that tracks graph mutations bit-exactly.

    Wraps a private copy of the graph (updates go through this class only)
    and keeps the walk tensor identical to what a from-scratch
    :class:`WalkIndex` build on the mutated graph would sample under the
    same seed.  Query methods delegate to an inner :class:`WalkIndex`, so
    estimators plug in unchanged — but must be recreated after mutations
    (enforced via :attr:`epoch` / :class:`~repro.errors.StaleIndexError`).

    Supported mutations: :meth:`add_edge` (insert or re-weight — the model
    has no parallel edges), :meth:`set_weight`, :meth:`remove_edge` and
    :meth:`add_node`.  Node removal is not supported (it would renumber the
    tensor); delete a node's edges instead.
    """

    def __init__(
        self,
        graph: HIN,
        num_walks: int = 150,
        length: int = 15,
        policy: WalkPolicy = WalkPolicy.UNIFORM,
        seed: int | None = None,
    ) -> None:
        self._entropy = _seed_entropy(seed)
        self.graph = graph.copy()
        self._inner = WalkIndex(
            self.graph, num_walks=num_walks, length=length,
            policy=policy, seed=self._entropy,
        )
        self.epoch = 0
        self.updates_applied = 0
        self.walks_resampled = 0
        self.mutation_log: list[MutationRecord] = []
        self.restart_changes()

    @classmethod
    def from_walk_index(
        cls,
        walk_index: "WalkIndex | DynamicWalkIndex",
        seed: int | None = None,
    ) -> "DynamicWalkIndex":
        """Promote an existing index to a mutable one without resampling.

        The walk tensor and graph are **copied**, so *walk_index* keeps
        serving unchanged — this is the copy-on-write entry point behind
        the serve layer's generation swaps.  The source's graph snapshot
        and transition tables are shared, not recompiled: both are
        read-only, and a mutation replaces rather than edits them.  *seed*
        must be the integer seed the source index was sampled with; when
        promoting another :class:`DynamicWalkIndex` it defaults to the
        source's own entropy, and the source's :attr:`epoch` carries over
        so estimator staleness stays monotone across generations.  The
        change record starts at that epoch.
        """
        if seed is None:
            if not isinstance(walk_index, DynamicWalkIndex):
                raise ConfigurationError(
                    "from_walk_index needs the integer seed the source "
                    "index was sampled with (only another DynamicWalkIndex "
                    "carries its own entropy)"
                )
            entropy = walk_index._entropy
        else:
            entropy = _seed_entropy(seed)
        source = (
            walk_index._inner
            if isinstance(walk_index, DynamicWalkIndex)
            else walk_index
        )
        dynamic = cls.__new__(cls)
        dynamic._entropy = entropy
        dynamic.graph = source.graph.copy()
        walks = np.array(source.walks, dtype=source.walks.dtype, copy=True)
        dynamic._inner = WalkIndex.from_arrays(
            dynamic.graph,
            walks,
            num_walks=source.num_walks,
            length=source.length,
            policy=source.policy,
            tables=source.tables,
            graph_index=source.index,
        )
        dynamic.epoch = int(getattr(walk_index, "epoch", 0))
        dynamic.updates_applied = 0
        dynamic.walks_resampled = 0
        dynamic.mutation_log = []
        dynamic.restart_changes()
        return dynamic

    # ------------------------------------------------------------------
    # WalkIndex-compatible query API
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        """Delegate every public :class:`WalkIndex` attribute to the inner index.

        Only reached for names this class does not define, so the query
        methods (``first_meetings_pairs``, ``node_positions``, ...) and
        views (``walks``, ``index``, ``tables``, ...) always read the
        current generation's tensor and tables — a method added to
        :class:`WalkIndex` is served here with no pass-through to keep.
        """
        if name.startswith("_"):
            # private names never delegate (and copy/pickle probe
            # dunders before _inner exists)
            raise AttributeError(name)
        return getattr(self._inner, name)

    @property
    def entropy(self) -> int:
        """The seed entropy every per-node draw stream derives from."""
        return self._entropy

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_edge(
        self,
        source: Node,
        target: Node,
        weight: float = DEFAULT_WEIGHT,
        label: str = DEFAULT_EDGE_LABEL,
    ) -> int:
        """Insert (or re-weight) ``source -> target``; returns walks re-stepped.

        New endpoints are created, each receiving the walk set a fresh
        build would sample for a node at its position.
        """
        return self._apply(
            ("add_edge", str(source), str(target), repr(float(weight)), label),
            lambda: self.graph.add_edge(source, target, weight=weight, label=label),
            target,
            (source, target),
        )

    def set_weight(self, source: Node, target: Node, weight: float) -> int:
        """Re-weight the existing edge ``source -> target`` (label kept)."""
        label = self.graph.edge_label(source, target)
        return self._apply(
            ("set_weight", str(source), str(target), repr(float(weight)), label),
            lambda: self.graph.add_edge(source, target, weight=weight, label=label),
            target,
            (),
        )

    def remove_edge(self, source: Node, target: Node) -> int:
        """Delete ``source -> target``; returns the number of walks re-stepped."""
        return self._apply(
            ("remove_edge", str(source), str(target), "", ""),
            lambda: self.graph.remove_edge(source, target),
            target,
            (),
        )

    def add_node(self, node: Node, label: str = DEFAULT_NODE_LABEL) -> int:
        """Append an isolated *node* with its own (dead-end) walk set."""
        if node in self.graph:
            raise GraphError(f"node {node!r} already exists in the graph")
        return self._apply(
            ("add_node", str(node), "", "", label),
            lambda: self.graph.add_node(node, label=label),
            node,
            (node,),
        )

    def mutation_log_hash(self) -> str:
        """SHA-256 over the JSON-encoded mutation log (lineage addressing)."""
        payload = json.dumps(self.mutation_log, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Change record — what an estimator rebuilds after a generation swap
    # ------------------------------------------------------------------
    def changes_since(self, epoch: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Walks and rows changed since *epoch*, or ``None`` if unrecorded.

        Returns ``(walks, rows)``: an ``(n, num_walks)`` mask of every walk
        that visited, at an offset below :attr:`length`, a row whose
        transition data or in-edges changed — the per-step edge weight and
        proposal odds along any other walk are as they were at *epoch* —
        and an ``(n,)`` mask of the nodes whose in-edges or in-weights
        changed.  The record starts at construction, at promotion and at
        every :meth:`restart_changes`; for any other *epoch* nothing is
        known and the answer is ``None``.  The masks are live: read them
        before the next mutation.
        """
        if epoch != self._changes_epoch:
            return None
        return self._changed_walks, self._changed_in_rows

    def restart_changes(self) -> None:
        """Start an empty change record at the current :attr:`epoch`."""
        n = self._inner.index.num_nodes
        self._changes_epoch = self.epoch
        self._changed_walks = np.zeros((n, self.num_walks), dtype=bool)
        self._changed_in_rows = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply(self, record, mutate, target, node_candidates) -> int:
        # Compile (or reuse) the pre-mutation tables before touching the
        # graph: the bitwise row diff below needs both sides.
        old_index = self._inner.index
        old_tables = self._inner.tables
        old_count = old_index.num_nodes
        new_nodes = [n for n in node_candidates if n not in self.graph]
        mutate()  # validation errors raise here, leaving state untouched
        # Only *target*'s in-edges changed (plus any appended node's).
        index = old_index.with_rows(self.graph, (target,))
        self._inner.index = index
        new_tables = _TransitionTables(index, self.policy)
        self._inner._tables = new_tables
        self._grow_for(new_nodes, old_count)
        rows = [index.position[target], *range(old_count, index.num_nodes)]
        resampled = self._repair(old_tables, new_tables, rows)
        self.epoch += 1
        self.updates_applied += 1
        self.walks_resampled += resampled
        self.mutation_log.append(record)
        return resampled

    def _grow_for(self, new_nodes, old_count: int) -> None:
        """Extend the tensor with start-only rows for appended nodes.

        Their remaining steps are filled by :meth:`_repair` — a brand-new
        row is always a bitwise-changed row, so the generic re-step pass
        picks its walks up at offset 0.
        """
        if not new_nodes:
            return
        walks = self._inner.walks
        grown = np.full(
            (old_count + len(new_nodes), self.num_walks, self.length + 1),
            -1,
            dtype=walks.dtype,
        )
        grown[:old_count] = walks
        for offset, node in enumerate(new_nodes):
            position = self._inner.index.position[node]
            # Appended nodes land at the end of insertion order, so a fresh
            # build spawns the same per-node draw stream at this position.
            assert position == old_count + offset
            grown[position, :, 0] = position
        self._inner.walks = grown
        # Appended rows enter the change record through _repair.
        added = len(new_nodes)
        self._changed_walks = np.concatenate(
            (self._changed_walks, np.zeros((added, self.num_walks), dtype=bool))
        )
        self._changed_in_rows = np.concatenate(
            (self._changed_in_rows, np.zeros(added, dtype=bool))
        )

    def _repair(self, old_tables, new_tables, rows) -> int:
        """Re-step every walk whose remaining path could differ; return count.

        Also extends the change record with *rows* (the positions whose
        in-edges changed) and with every walk that visits, below offset
        ``length``, a row whose transition data changed or one of *rows*.
        A walk's step weights and proposal odds read only the rows it
        stands on, so no other walk's per-step data moved.
        """
        changed = _changed_rows(old_tables, new_tables)
        self._changed_in_rows[rows] = True
        # Bit 1: transition data changed (visitors are re-stepped); bit 2:
        # in-edges changed.  The sentinel slot n stays 0 so dead (-1)
        # steps never match.
        flags = np.zeros(changed.size + 1, dtype=np.uint8)
        flags[:-1][changed] = 1
        flags[rows] |= 2
        # A visit at the final offset has no outgoing step.
        visits = flags[self._inner.walks[:, :, : self.length]]
        touched = visits.any(axis=2)
        self._changed_walks |= touched
        node_ids, walk_ids = np.nonzero(touched)
        restep = visits[node_ids, walk_ids] & 1
        moved = restep.any(axis=1)
        if not moved.any():
            return 0
        starts = restep[moved].argmax(axis=1).astype(np.int64)
        self._restep(node_ids[moved], walk_ids[moved], starts)
        return int(moved.sum())

    def _restep(
        self, node_ids: np.ndarray, walk_ids: np.ndarray, starts: np.ndarray
    ) -> None:
        """Replay walk suffixes with the original draws on the new tables.

        Mirrors :meth:`WalkIndex._sample_shard` step for step — same draw
        tensor layout, same ``tables.step`` arithmetic — so the repaired
        suffix is bitwise what a fresh build would sample.
        """
        walks = self._inner.walks
        tables = self._inner.tables
        degrees = tables.degrees
        uniq, inverse = np.unique(node_ids, return_inverse=True)
        draws = np.empty(
            (uniq.size, self.num_walks, self.length), dtype=np.float64
        )
        for slot, position in enumerate(uniq):
            draws[slot] = self._node_draws(int(position))
        current = walks[node_ids, walk_ids, starts].astype(np.int64)
        for step in range(int(starts.min()), self.length):
            active = np.flatnonzero(starts <= step)
            cur = current[active]
            nxt = np.full(active.size, -1, dtype=np.int64)
            movable = np.flatnonzero(cur >= 0)
            if movable.size:
                nodes_here = cur[movable]
                live = degrees[nodes_here] > 0
                movable = movable[live]
                if movable.size:
                    sel = active[movable]
                    step_draws = draws[inverse[sel], walk_ids[sel], step]
                    nxt[movable] = tables.step(nodes_here[live], step_draws)
            walks[node_ids[active], walk_ids[active], step + 1] = nxt
            current[active] = nxt

    def _node_draws(self, position: int) -> np.ndarray:
        # Child *position* of SeedSequence(entropy) is reachable directly via
        # spawn_key — the same stream spawn_rngs() hands the shard builder.
        seq = np.random.SeedSequence(entropy=self._entropy, spawn_key=(position,))
        return np.random.default_rng(seq).random((self.num_walks, self.length))

    def __repr__(self) -> str:
        return (
            f"DynamicWalkIndex(nodes={self.index.num_nodes}, "
            f"num_walks={self.num_walks}, length={self.length}, "
            f"epoch={self.epoch}, updates={self.updates_applied})"
        )
