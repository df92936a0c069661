"""`repro.api` — the one-object query facade.

Everything the library can answer about node similarity — single pairs,
whole candidate sets, top-k search, similarity joins — is reachable through
one :class:`QueryEngine`.  The engine hides the moving parts the paper's
Section 4 pipeline needs (walk-index construction, proposal policy, the
semantic matrix that unlocks the vectorised batch path, estimator choice,
pruning thresholds) behind a single constructor:

>>> from repro.api import QueryEngine
>>> from repro.datasets import figure1_network
>>> data = figure1_network()
>>> engine = QueryEngine(data.graph, data.measure, method="iterative",
...                      decay=0.8, max_iterations=3)
>>> engine.score("John", "Aditi") > engine.score("Bo", "Aditi")
True

Two methods are available:

* ``method="mc"`` (default) — the scalable path: a
  :class:`~repro.core.walk_index.WalkIndex` (built in parallel when
  ``workers`` > 1, bit-identically to a serial build) feeding the
  Importance-Sampling estimator of Algorithm 1; queries run vectorised
  over stacked walk arrays.
* ``method="iterative"`` — the exact fixed-point solver of Section 2.3;
  queries become table lookups.  Right for small graphs and for checking
  the MC path.

Every engine owns a private :class:`~repro.core.montecarlo.EstimatorStats`
(nothing accumulates across engines); ``reset_stats()`` zeroes it between
measurement windows.
"""

from __future__ import annotations

import copy
import dataclasses
import time
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.backends import ComputeBackend, resolve_backend
from repro.core.bounds import plan_index
from repro.core.dynamic import DynamicWalkIndex
from repro.core.iterative import FixedPointResult
from repro.core.join import candidate_pairs, similarity_join
from repro.core.montecarlo import (
    EstimatorStats,
    MonteCarloSemSim,
    MonteCarloSimRank,
    pair_positions,
)
from repro.core.params import (
    validate_decay,
    validate_length,
    validate_num_walks,
    validate_theta,
    validate_workers,
)
from repro.core.semsim import SemSim
from repro.core.simrank import SimRank
from repro.core.topk import str_ranks, top_k_scan, top_k_similar
from repro.core.walk_index import (
    WalkIndex,
    WalkPolicy,
    _TransitionTables,
    load_walk_index,
    save_walk_index,
)
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.hin.graph import (
    DEFAULT_EDGE_LABEL,
    DEFAULT_NODE_LABEL,
    DEFAULT_WEIGHT,
    HIN,
    Node,
)
from repro.obs.logging import get_logger, log_event
from repro.obs.registry import get_registry, is_enabled
from repro.obs.trace import span
from repro.semantics.base import SemanticMeasure
from repro.semantics.cache import MatrixMeasure
from repro.store.artifacts import (
    CACHE_HIT,
    CACHE_MISS,
    CACHE_STALE,
    ArtifactStore,
    StoredArtifact,
    StoreError,
    read_artifact,
    write_artifact,
)
from repro.store.engine_io import (
    PROPOSAL_ARRAYS,
    canonical_params,
    engine_identity,
    graph_from_artifact,
    measure_from_artifact,
    snapshot_engine,
)
from repro.store.fingerprint import fingerprint_generation, fingerprint_graph

__all__ = [
    "QueryEngine",
    "EstimatorStats",
    "WalkPolicy",
    "similarity_join",
    "top_k_similar",
]

#: Above this node count ``materialize_semantics="auto"`` stops densifying
#: the semantic measure (the n×n matrix would dominate memory).
AUTO_MATERIALIZE_LIMIT = 4096

_LOG = get_logger("api")

#: Mutation kinds, each a method of both the engine and DynamicWalkIndex.
_MUTATION_KINDS = ("add_edge", "set_weight", "remove_edge", "add_node")

#: Marks a lazily derived attribute that has not been derived yet.
_UNSET = object()

_QUERY_LATENCY = get_registry().histogram(
    "query_latency_seconds",
    help="End-to-end QueryEngine latency per score()/score_batch()/"
    "score_pairs() call.",
    labelnames=("method", "mode"),
)
_BATCH_CANDIDATES = get_registry().histogram(
    "query_batch_candidates",
    help="Candidate-set sizes submitted to score_batch() and pair counts "
    "submitted to score_pairs().",
    buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
             1000.0, 2500.0, 5000.0, 10000.0),
)


class QueryEngine:
    """Unified similarity-query facade over one graph.

    Parameters
    ----------
    graph:
        The HIN to query.
    measure:
        The semantic measure ``sem``; ``None`` drops the semantic layer and
        the engine answers plain SimRank queries instead.
    method:
        ``"mc"`` (scalable Monte-Carlo over a walk index, the default) or
        ``"iterative"`` (exact fixed point, table lookups).
    decay, num_walks, length, theta, seed:
        The five canonical knobs, validated identically to every
        underlying engine.  ``num_walks``/``length``/``seed`` only apply to
        ``method="mc"``; ``theta`` is the MC pruning threshold (``None``
        disables pruning).
    backend:
        The :class:`~repro.backends.ComputeBackend` instance that runs the
        MC scoring kernel, or ``None`` for the library kernel
        (:class:`~repro.backends.BlockedBackend`).  Every backend returns
        bit-identical scores; the tests pass their stacked-array oracle
        here.
    policy:
        MC proposal distribution (:class:`WalkPolicy`).
    workers:
        Threads for parallel walk-index construction; results are
        bit-identical to a serial build for the same seed.
    materialize_semantics:
        ``"auto"`` (default), ``True`` or ``False`` — whether to densify
        *measure* into a :class:`~repro.semantics.cache.MatrixMeasure` in
        index node order, which is what unlocks the fully vectorised batch
        path.  ``"auto"`` densifies up to ``AUTO_MATERIALIZE_LIMIT`` nodes.
    max_iterations, tolerance:
        Fixed-point controls for ``method="iterative"`` (defaults follow
        :class:`~repro.core.semsim.SemSim`).
    cache_dir:
        Root of a content-addressed :class:`~repro.store.ArtifactStore`.
        When given, construction first looks up an artifact keyed by
        (graph content, measure, canonical parameters, format version):
        a hit warm-starts the engine from memory-mapped arrays (zero copy,
        shared page cache across processes) with **bit-identical** scores;
        a miss builds normally and writes the artifact through for the
        next process.  Stale or corrupt artifacts are rebuilt with a
        warning — never served.
    walks_path:
        Path to a ``.npz`` written by :meth:`save_walks` /
        :func:`~repro.core.walk_index.save_walk_index`; loads the walk
        tensor instead of sampling (``method="mc"`` only).  The stored
        ``num_walks``/``length``/``policy`` take precedence over the
        matching constructor arguments.
    """

    def __init__(
        self,
        graph: HIN,
        measure: SemanticMeasure | None = None,
        *,
        method: str = "mc",
        decay: float = 0.6,
        num_walks: int = 150,
        length: int = 15,
        theta: float | None = 0.05,
        seed: int | np.random.Generator | None = None,
        backend: ComputeBackend | None = None,
        policy: WalkPolicy = WalkPolicy.UNIFORM,
        workers: int | None = None,
        materialize_semantics: bool | str = "auto",
        max_iterations: int | None = None,
        tolerance: float | None = None,
        cache_dir: str | Path | None = None,
        walks_path: str | Path | None = None,
        _artifact: StoredArtifact | None = None,
    ) -> None:
        if method not in ("mc", "iterative"):
            raise ConfigurationError(
                f"method must be 'mc' or 'iterative', got {method!r}"
            )
        self.graph = graph
        self.method = method
        self.decay = validate_decay(decay)
        self.num_walks = validate_num_walks(num_walks)
        self.length = validate_length(length)
        self.theta = validate_theta(theta)
        self.backend = resolve_backend(backend)
        self.backend_name = self.backend.name
        self.policy = policy
        self.workers = validate_workers(workers)
        self._max_iterations = max_iterations
        self._tolerance = tolerance
        seed_param = seed
        self._seed_key = (
            int(seed_param)
            if isinstance(seed_param, (int, np.integer))
            else None
        )
        self._store: ArtifactStore | None = None
        self.cache_key: str | None = None
        self._cache_identity: dict | None = None
        self._dynamic: DynamicWalkIndex | None = None
        # Content id of the generation this engine's own mutations start
        # from: its graph's fingerprint when built or opened (known from
        # the store when there is one), its parent's id when it is a
        # with_mutations clone.  None until first needed.
        self._origin: str | None = None

        self.walk_index: WalkIndex | None = None
        self._table: SemSim | SimRank | None = None
        self._sem_rows = _UNSET
        self._tie_rank_cache: tuple[list[Node], int, np.ndarray] | None = None
        self._latency_single = _QUERY_LATENCY.labels(method=method, mode="single")
        self._latency_batch = _QUERY_LATENCY.labels(method=method, mode="batch")

        artifact = _artifact
        if artifact is None and cache_dir is not None:
            artifact = self._cache_lookup(
                measure, materialize_semantics, cache_dir, seed_param, walks_path
            )
        if artifact is not None:
            try:
                with span("engine.restore", labels={"method": self.method}):
                    self._restore_stack(artifact)
                log_event(
                    _LOG, "engine.restore",
                    method=self.method, nodes=graph.num_nodes,
                    artifact=str(artifact.path),
                )
                return
            except (StoreError, ConfigurationError) as exc:
                if _artifact is not None:
                    raise
                if is_enabled():
                    CACHE_STALE.inc()
                warnings.warn(
                    f"cached engine artifact is unusable, rebuilding: {exc}",
                    stacklevel=2,
                )
        self.measure = self._prepare_measure(measure, materialize_semantics)
        with span(
            "engine.build", labels={"method": self.method},
            nodes=graph.num_nodes, edges=graph.num_edges,
        ):
            self._build_stack(seed_param, walks_path)
        log_event(
            _LOG, "engine.build",
            method=self.method, nodes=graph.num_nodes, edges=graph.num_edges,
        )
        if self._store is not None and self.cache_key is not None:
            self._write_through()

    def _build_stack(
        self,
        seed: int | np.random.Generator | None,
        walks_path: str | Path | None,
    ) -> None:
        """Construct the estimator stack from scratch (the cold path)."""
        if self.method == "mc":
            if walks_path is not None:
                self.walk_index = load_walk_index(self.graph, walks_path)
                self.num_walks = self.walk_index.num_walks
                self.length = self.walk_index.length
                self.policy = self.walk_index.policy
            else:
                self.walk_index = WalkIndex(
                    self.graph,
                    num_walks=self.num_walks,
                    length=self.length,
                    policy=self.policy,
                    seed=seed,
                    workers=self.workers,
                )
            self.estimator = self._mc_estimator()
            self.stats = self.estimator.stats
        else:
            if walks_path is not None:
                raise ConfigurationError(
                    "walks_path only applies to method='mc'"
                )
            iterative_kwargs = {}
            if self._max_iterations is not None:
                iterative_kwargs["max_iterations"] = self._max_iterations
            if self._tolerance is not None:
                iterative_kwargs["tolerance"] = self._tolerance
            if self.measure is None:
                self._table = SimRank(self.graph, decay=self.decay, **iterative_kwargs)
            else:
                self._table = SemSim(
                    self.graph, self.measure, decay=self.decay, **iterative_kwargs
                )
            self.estimator = self._table
            self.stats = EstimatorStats(method="iterative", estimator="table")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _mc_estimator(self) -> "MonteCarloSemSim | MonteCarloSimRank":
        """The MC estimator over :attr:`walk_index`: SemSim (Algorithm 1)
        with a measure, classical SimRank without one."""
        if self.measure is None:
            return MonteCarloSimRank(
                self.walk_index, decay=self.decay, backend=self.backend
            )
        return MonteCarloSemSim(
            self.walk_index,
            self.measure,
            decay=self.decay,
            theta=self.theta,
            backend=self.backend,
        )

    def _prepare_measure(
        self, measure: SemanticMeasure | None, materialize: bool | str
    ) -> SemanticMeasure | None:
        if measure is None:
            return None
        nodes = list(self.graph.nodes())
        if not self._will_materialize(measure, materialize, nodes):
            return measure
        if isinstance(measure, MatrixMeasure) and measure.nodes == nodes:
            return measure
        return MatrixMeasure.from_measure(measure, nodes)

    def _will_materialize(
        self,
        measure: SemanticMeasure | None,
        materialize: bool | str,
        nodes: list[Node] | None = None,
    ) -> bool:
        """Decide (without doing the work) whether *measure* densifies."""
        if materialize not in (True, False, "auto"):
            raise ConfigurationError(
                "materialize_semantics must be True, False or 'auto', "
                f"got {materialize!r}"
            )
        if measure is None:
            return False
        if nodes is None:
            nodes = list(self.graph.nodes())
        if isinstance(measure, MatrixMeasure) and measure.nodes == nodes:
            return True
        if materialize is False:
            return False
        return materialize is True or len(nodes) <= AUTO_MATERIALIZE_LIMIT

    # ------------------------------------------------------------------
    # Persistence — the preprocess-once / query-many split of Fig. 4
    # ------------------------------------------------------------------
    def _canonical_params(self, materialized: bool) -> dict:
        return canonical_params(
            method=self.method,
            decay=self.decay,
            num_walks=self.num_walks,
            length=self.length,
            theta=self.theta,
            policy=self.policy.value,
            seed=self._seed_key,
            materialized=materialized,
            max_iterations=self._max_iterations,
            tolerance=self._tolerance,
        )

    def _cache_lookup(
        self,
        measure: SemanticMeasure | None,
        materialize: bool | str,
        cache_dir: str | Path,
        seed: int | np.random.Generator | None,
        walks_path: str | Path | None,
    ) -> StoredArtifact | None:
        """Resolve ``cache_dir`` to a hit (validated artifact) or a miss.

        Configurations the artifact format cannot replay — an explicit
        ``walks_path``, a live ``Generator`` seed, a measure that stays
        lazy — skip caching with a warning instead of risking a wrong
        answer.
        """
        not_cacheable = None
        if walks_path is not None:
            not_cacheable = "walks_path already names its own artifact"
        elif isinstance(seed, np.random.Generator):
            not_cacheable = (
                "a live Generator seed has no stable content fingerprint "
                "(pass an int seed to enable caching)"
            )
        elif measure is not None and not self._will_materialize(measure, materialize):
            not_cacheable = (
                "a non-materialised measure cannot be replayed from disk "
                "(pass materialize_semantics=True to enable caching)"
            )
        if not_cacheable is not None:
            warnings.warn(f"cache_dir ignored: {not_cacheable}", stacklevel=3)
            return None
        self._store = ArtifactStore(cache_dir)
        materialized = self._will_materialize(measure, materialize)
        key, identity = engine_identity(
            self.graph, measure, self._canonical_params(materialized)
        )
        self.cache_key = key
        self._cache_identity = identity
        self._origin = identity["graph"]
        if not self._store.contains(key):
            if is_enabled():
                CACHE_MISS.inc()
            log_event(_LOG, "cache.miss", key=key[:12], method=self.method)
            return None
        try:
            artifact = self._store.get(key)
        except StoreError as exc:
            if is_enabled():
                CACHE_STALE.inc()
            log_event(_LOG, "cache.stale", key=key[:12], error=str(exc))
            warnings.warn(
                f"cached engine artifact for key {key[:12]}… is stale or "
                f"corrupt, rebuilding: {exc}",
                stacklevel=3,
            )
            return None
        if is_enabled():
            CACHE_HIT.inc()
        log_event(_LOG, "cache.hit", key=key[:12], method=self.method)
        return artifact

    def _restore_stack(self, artifact: StoredArtifact) -> None:
        """Warm-start the estimator stack from a validated artifact.

        Every array comes straight from the mapped files — the same bytes
        a cold build produced — so restored engines answer bit-identically
        to fresh ones.  The engine holds each as a plain ``ndarray`` view
        of its mapping (zero-copy, read-only): on a ``np.memmap`` every
        ``take`` or ufunc result is itself a memmap and pays Python-level
        ``__array_finalize__``/``__array_wrap__`` on every call of the
        walk-score kernel.  The compute backend is per-engine, not part
        of the artifact.
        """
        artifact = dataclasses.replace(artifact, arrays={
            name: np.asarray(array) for name, array in artifact.arrays.items()
        })
        self.measure = measure_from_artifact(artifact, self.graph)
        if self.method == "mc":
            walks = artifact.arrays.get("walks")
            offsets = artifact.arrays.get("offsets")
            if walks is None or offsets is None:
                raise StoreError(
                    f"artifact at {artifact.path} stores no walk tensor "
                    f"(was it built with method='mc'?)"
                )
            tables = None
            if all(name in artifact.arrays for name, _ in PROPOSAL_ARRAYS):
                tables = _TransitionTables.from_arrays(**{
                    slot: artifact.arrays[name] for name, slot in PROPOSAL_ARRAYS
                })
            self.walk_index = WalkIndex.from_arrays(
                self.graph,
                walks,
                offsets=offsets,
                num_walks=self.num_walks,
                length=self.length,
                policy=self.policy,
                tables=tables,
            )
            self.estimator = self._mc_estimator()
            if self.measure is not None:
                self.estimator.attach_precomputed(artifact.arrays.get("so_matrix"))
            self.stats = self.estimator.stats
        else:
            scores = artifact.arrays.get("scores")
            if scores is None:
                raise StoreError(
                    f"artifact at {artifact.path} stores no score table "
                    f"(was it built with method='iterative'?)"
                )
            nodes = list(self.graph.nodes())
            if scores.shape != (len(nodes), len(nodes)):
                raise StoreError(
                    f"stored score table shape {scores.shape} does not match "
                    f"{len(nodes)} graph nodes"
                )
            result = FixedPointResult.from_matrix(
                nodes, scores, converged=bool(artifact.meta.get("converged", True))
            )
            if self.measure is None:
                self._table = SimRank.from_result(self.graph, self.decay, result)
            else:
                self._table = SemSim.from_result(
                    self.graph, self.measure, self.decay, result
                )
            self.estimator = self._table
            self.stats = EstimatorStats(method="iterative", estimator="table")

    def _write_through(self) -> None:
        """Persist the freshly built engine under its cache key."""
        try:
            with span("engine.snapshot", labels={"method": self.method}):
                manifest, arrays, documents = snapshot_engine(
                    self, self._cache_identity
                )
            self._store.put(self.cache_key, manifest, arrays, documents)
        except (ConfigurationError, StoreError) as exc:
            warnings.warn(
                f"engine built but its artifact could not be persisted: {exc}",
                stacklevel=3,
            )

    def save(self, path: str | Path) -> Path:
        """Write this engine's precomputed state as an artifact at *path*.

        The artifact is self-contained (it embeds the graph), so
        :meth:`open` can serve from it with no other inputs.  Forces every
        lazy preprocessing table first — *save* is the preprocessing step,
        *open* is a pure memory-map.  Engines holding a semantic measure
        that was not materialised cannot be persisted
        (:class:`ConfigurationError`).
        """
        materialized = isinstance(self.measure, MatrixMeasure)
        _, identity = engine_identity(
            self.graph, self.measure, self._canonical_params(materialized)
        )
        manifest, arrays, documents = snapshot_engine(self, identity)
        return write_artifact(path, manifest, arrays, documents)

    @classmethod
    def open(
        cls,
        path: str | Path,
        *,
        backend: ComputeBackend | None = None,
    ) -> "QueryEngine":
        """Warm-start an engine from an artifact written by :meth:`save`.

        Arrays are memory-mapped, not copied: time-to-first-query is
        dominated by reading the manifest and the embedded graph, the OS
        page cache shares the array bytes across every process serving the
        same artifact, and scores are bit-identical to the engine that was
        saved.  The engine holds them as plain read-only ``ndarray`` views
        of the mapping — still no copy — so kernel results are plain
        arrays too.  Any structural problem — truncated file, version drift,
        manifest mismatch — raises :class:`~repro.store.StoreError`.

        *backend* is the kernel instance, as in the constructor.
        """
        artifact = read_artifact(path)
        graph = graph_from_artifact(artifact)
        params = artifact.meta.get("params")
        if not isinstance(params, dict) or "method" not in params:
            raise StoreError(
                f"artifact at {artifact.path} records no engine parameters"
            )
        method = params["method"]
        if method not in ("mc", "iterative"):
            raise StoreError(
                f"artifact at {artifact.path} holds a {method!r} engine, "
                "which this version no longer serves; rebuild it with "
                "'repro index build --method mc' (or iterative)"
            )
        kwargs: dict[str, object] = {
            "method": method,
            "decay": params.get("decay", 0.6),
            "theta": params.get("theta"),
            "backend": backend,
            "_artifact": artifact,
        }
        if method == "mc":
            try:
                kwargs["policy"] = WalkPolicy(params.get("policy", "uniform"))
            except ValueError:
                raise StoreError(
                    f"artifact at {artifact.path} names unknown proposal "
                    f"policy {params.get('policy')!r}"
                ) from None
            kwargs["num_walks"] = params.get("num_walks", 150)
            kwargs["length"] = params.get("length", 15)
            kwargs["seed"] = params.get("seed")
        else:
            kwargs["max_iterations"] = params.get("max_iterations")
            kwargs["tolerance"] = params.get("tolerance")
        engine = cls(graph, None, **kwargs)
        # graph_from_artifact checked this fingerprint against the graph.
        engine._origin = artifact.manifest.get("graph")
        return engine

    def save_walks(self, path: str | Path) -> None:
        """Persist just the walk tensor as a portable ``.npz``.

        Shim over :func:`~repro.core.walk_index.save_walk_index`; reload
        through the ``walks_path`` constructor argument.  Only meaningful
        for ``method="mc"``.
        """
        if self.walk_index is None:
            raise ConfigurationError(
                "save_walks requires method='mc' (a walk index)"
            )
        save_walk_index(self.walk_index, path)

    # ------------------------------------------------------------------
    # Live mutations — incremental index maintenance
    # ------------------------------------------------------------------
    @property
    def index_epoch(self) -> int:
        """Mutation epoch of the walk index (0 for a never-mutated engine)."""
        return int(getattr(self.walk_index, "epoch", 0))

    def add_edge(
        self,
        source: Node,
        target: Node,
        weight: float = DEFAULT_WEIGHT,
        label: str = DEFAULT_EDGE_LABEL,
    ) -> int:
        """Insert (or re-weight) ``source -> target`` and repair the index.

        Returns the number of walks re-stepped.  The maintained walk tensor
        stays bit-identical to a from-scratch build on the mutated graph
        under the engine's seed, and the estimator is rebuilt so subsequent
        queries score against the new weights.  With a semantic measure
        attached, both endpoints must already exist (the measure cannot be
        extended to cover new nodes incrementally).
        """
        return self._mutate([("add_edge", source, target, weight, label)])

    def set_weight(self, source: Node, target: Node, weight: float) -> int:
        """Re-weight the existing edge ``source -> target`` (label kept)."""
        return self._mutate([("set_weight", source, target, weight)])

    def remove_edge(self, source: Node, target: Node) -> int:
        """Delete ``source -> target`` and repair the index."""
        return self._mutate([("remove_edge", source, target)])

    def add_node(self, node: Node, label: str = DEFAULT_NODE_LABEL) -> int:
        """Append an isolated node with its own walk set."""
        return self._mutate([("add_node", node, label)])

    def apply_mutation(self, kind: str, *args) -> int:
        """Apply one mutation by kind name (the serve protocol's entry).

        *kind* is one of ``add_edge``, ``set_weight``, ``remove_edge``,
        ``add_node``; *args* are forwarded to the matching method.
        """
        return self._mutate([(kind, *args)])

    def with_mutations(
        self, mutations: Sequence[tuple]
    ) -> "QueryEngine":
        """Return a new engine with *mutations* applied; this one is untouched.

        Copy-on-write: the clone promotes its own
        :class:`~repro.core.dynamic.DynamicWalkIndex` around copied walk and
        offset tensors and graph, so queries in flight against this engine
        keep a consistent snapshot.  Each mutation is a ``(kind, *args)``
        tuple as accepted by :meth:`apply_mutation`.  The clone's estimator
        is built once, after the last mutation, from this engine's estimator
        (see :meth:`~repro.core.montecarlo.MonteCarloSemSim.carry_tables`).
        This is the building block of the serve layer's atomic generation
        swap.
        """
        clone = copy.copy(self)
        clone._origin = self._generation_id()
        clone._dynamic = None
        clone._mutate(mutations)
        return clone

    def mutation_lineage(self) -> dict | None:
        """Lineage of this index generation, or ``None`` if never mutated.

        Recorded into artifact manifests by
        :func:`~repro.store.engine_io.snapshot_engine`: the content id of
        the parent generation plus the hash of the mutation log that
        produced this one.  A never-mutated engine's id is its graph's
        fingerprint; a mutated one's is
        :func:`~repro.store.fingerprint.fingerprint_generation` over its
        parent's id and its log hash.  So ``parent_graph`` is the parent
        graph's fingerprint for the first generation and the parent's
        chained id for deeper ones — both content-addressed by the base
        graph and the mutation logs, and neither rehashes a graph on a swap.
        """
        if self._dynamic is None or not self._dynamic.mutation_log:
            return None
        return {
            "parent_graph": self._origin,
            "mutation_log_sha256": self._dynamic.mutation_log_hash(),
            "mutations": len(self._dynamic.mutation_log),
            "epoch": int(self._dynamic.epoch),
        }

    def _generation_id(self) -> str:
        """Content id of this engine's index generation (see mutation_lineage)."""
        if self._origin is None:
            # a cold build without a store: fingerprint once, before the
            # first mutation replaces the graph
            self._origin = fingerprint_graph(self.graph)
        if self._dynamic is None or not self._dynamic.mutation_log:
            return self._origin
        return fingerprint_generation(
            self._origin, self._dynamic.mutation_log_hash()
        )

    def persist_generation(self, store: ArtifactStore | None = None) -> str | None:
        """Strictly persist the engine's current state into *store*.

        Unlike the constructor's best-effort write-through, failures
        propagate — the serve layer's swap path requires persistence to
        succeed *before* a new generation is published.  Returns the
        content-addressed key, or ``None`` when no store is available.
        """
        store = store if store is not None else self._store
        if store is None:
            return None
        materialized = isinstance(self.measure, MatrixMeasure)
        key, identity = engine_identity(
            self.graph, self.measure, self._canonical_params(materialized)
        )
        with span("engine.snapshot", labels={"method": self.method}):
            manifest, arrays, documents = snapshot_engine(self, identity)
        store.put(key, manifest, arrays, documents)
        self._store = store
        self.cache_key = key
        self._cache_identity = identity
        return key

    def _mutate(self, mutations: Sequence[tuple]) -> int:
        """Apply ``(kind, *args)`` mutations in order; return walks re-stepped.

        The estimator is refreshed once, after the last mutation.
        """
        mutations = list(mutations)
        resampled = 0
        for kind, *args in mutations:
            resampled += self._apply_one(kind, args)
        if mutations:
            self._refresh_estimator()
        return resampled

    def _apply_one(self, kind: str, args: list) -> int:
        """Validate one mutation and apply it to the dynamic index."""
        if kind not in _MUTATION_KINDS:
            raise ConfigurationError(
                f"unknown mutation kind {kind!r} "
                f"(expected one of {sorted(_MUTATION_KINDS)})"
            )
        if self.measure is not None:
            if kind == "add_node":
                raise ConfigurationError(
                    f"cannot add node {args[0]!r}: the engine's semantic "
                    "measure does not cover it — rebuild the engine with an "
                    "extended measure"
                )
            if kind == "add_edge":
                for node in args[:2]:
                    if node not in self.graph:
                        raise ConfigurationError(
                            f"cannot create node {node!r} through a "
                            "mutation: the engine's semantic measure does "
                            "not cover it — rebuild the engine with an "
                            "extended measure"
                        )
        return getattr(self._ensure_dynamic(), kind)(*args)

    def _ensure_dynamic(self) -> DynamicWalkIndex:
        """Lazily promote the walk index to a mutable DynamicWalkIndex."""
        if self.method != "mc":
            raise ConfigurationError(
                "graph mutations require method='mc' — the iterative score "
                "table has no incremental maintenance path; rebuild instead"
            )
        if self._dynamic is None:
            if self._seed_key is None:
                raise ConfigurationError(
                    "graph mutations require an integer seed: incremental "
                    "maintenance re-derives the walk draw schedule from it"
                )
            self._generation_id()  # pins the origin before the graph moves
            self._dynamic = DynamicWalkIndex.from_walk_index(
                self.walk_index, seed=self._seed_key
            )
            self.graph = self._dynamic.graph
            self.walk_index = self._dynamic
        return self._dynamic

    def _refresh_estimator(self) -> None:
        """Rebuild the estimator against the (mutated) walk index.

        Estimators snapshot edge weights at construction; after a mutation
        the old one raises :class:`~repro.errors.StaleIndexError`, so the
        engine swaps in a fresh one recording the new epoch.  A SemSim
        estimator carries its ``SO`` over from the one it replaces, and
        the index's change record restarts, so the next refresh carries
        from this one.  ``stats`` restarts with it (the registry mirror
        keeps the running totals).
        """
        predecessor = self.estimator
        self.estimator = self._mc_estimator()
        if self.measure is not None and isinstance(predecessor, MonteCarloSemSim):
            self.estimator.carry_tables(predecessor)
        self._dynamic.restart_changes()
        self.stats = self.estimator.stats

    @classmethod
    def from_error_target(
        cls,
        graph: HIN,
        measure: SemanticMeasure | None = None,
        *,
        epsilon: float = 0.1,
        delta: float = 0.05,
        decay: float = 0.6,
        **kwargs,
    ) -> "QueryEngine":
        """Build an MC engine sized by the Prop. 4.2 ``(eps, delta)`` plan.

        ``num_walks`` and ``length`` come from
        :func:`repro.core.bounds.plan_index`; every other keyword is
        forwarded to the normal constructor.
        """
        num_walks, length = plan_index(decay, epsilon, delta, graph.num_nodes)
        return cls(
            graph,
            measure,
            method="mc",
            decay=decay,
            num_walks=num_walks,
            length=length,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def score(self, u: Node, v: Node) -> float:
        """Return ``sim(u, v)`` under the engine's configuration."""
        start = time.perf_counter()
        if self._table is not None:
            self.stats.add(queries=1)
            value = self._table.similarity(u, v)
        else:
            value = self.estimator.similarity(u, v)
        if is_enabled():
            self._latency_single.observe(time.perf_counter() - start)
        return value

    @property
    def nodes(self) -> list[Node]:
        """The graph's nodes by position — the order every position names.

        The walk index (kept current by mutations), a materialised ``sem``
        and the iterative table all share it.
        """
        if self._table is not None:
            return self._table.result.nodes
        return self.walk_index.index.nodes

    @property
    def position_map(self) -> dict[Node, int]:
        """``node -> position`` over :attr:`nodes`."""
        if self._table is not None:
            return self._table._position
        return self.walk_index.index.position

    def node_positions(self, nodes: Sequence[Node]) -> np.ndarray:
        """Positions of *nodes* as one int64 array.

        Raises :class:`~repro.errors.NodeNotFoundError` for a node the
        graph does not hold.
        """
        position = self.position_map
        try:
            return np.fromiter(
                (position[node] for node in nodes), dtype=np.int64,
                count=len(nodes),
            )
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None

    def _position(self, node: Node) -> int:
        try:
            return self.position_map[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def score_positions(self, pos_u, positions) -> np.ndarray:
        """Return ``sim`` of the pairs ``(pos_u[i], positions[i])`` by position.

        *pos_u* is one int shared by every pair, or one int per pair;
        positions index :attr:`nodes`.  A shared source returns exactly
        the floats of :meth:`score_batch`, per-pair sources those of
        :meth:`score_pairs` (so every entry equals :meth:`score` of its
        pair), with the same stats deltas.  The MC engines score every
        pair in one vectorised pass and the iterative engine gathers from
        its table.
        """
        start = time.perf_counter()
        pos_u, positions = pair_positions(pos_u, positions)
        if self._table is not None:
            scores = self._table_gather(pos_u, positions)
        else:
            scores = self.estimator.score_positions(pos_u, positions)
        if is_enabled():
            _BATCH_CANDIDATES.observe(positions.size)
            self._latency_batch.observe(time.perf_counter() - start)
        return scores

    def score_batch(self, u: Node, candidates: Sequence[Node]) -> np.ndarray:
        """Return ``sim(u, v)`` for every candidate in one vectorised pass."""
        candidates = list(candidates)
        return self.score_positions(
            self._position(u), self.node_positions(candidates)
        )

    def score_pairs(self, us: Sequence[Node], vs: Sequence[Node]) -> np.ndarray:
        """Return ``sim(us[i], vs[i])`` for pairs from any mix of sources.

        Every entry equals :meth:`score` of its pair (see
        :meth:`score_positions`).
        """
        us, vs = list(us), list(vs)
        if len(us) != len(vs):
            raise ConfigurationError(
                f"score_pairs needs one source per pair, got {len(us)} "
                f"sources for {len(vs)} pairs"
            )
        return self.score_positions(
            self.node_positions(us), self.node_positions(vs)
        )

    def _table_gather(
        self, pos_u: int | np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Iterative-table scores of ``(pos_u[i], positions[i])``."""
        m = positions.size
        self.stats.add(
            queries=m, batch_queries=1, batch_pairs=m, vectorized_pairs=m,
        )
        return self._table.result.matrix[pos_u, positions].astype(np.float64)

    def single_source(
        self, u: Node, candidates: Sequence[Node] | None = None
    ) -> dict[Node, float]:
        """Return ``{v: sim(u, v)}`` for every candidate (default: all)."""
        if candidates is None:
            candidates = list(self.graph.nodes())
        else:
            candidates = list(candidates)
        scores = self.score_batch(u, candidates)
        return {node: float(value) for node, value in zip(candidates, scores)}

    def top_k(
        self,
        u: Node,
        k: int,
        candidates: Sequence[Node] | None = None,
    ) -> list[tuple[Node, float]]:
        """Return the *k* nodes most similar to *u*, best first.

        The by-name form of :meth:`top_k_positions`: the same nodes, order
        and floats as :func:`~repro.core.topk.top_k_similar` over this
        engine's scores and measure.
        """
        positions = (
            None if candidates is None
            else self.node_positions(list(candidates))
        )
        nodes = self.nodes
        return [
            (nodes[position], value)
            for position, value in self.top_k_positions(
                self._position(u), k, positions
            )
        ]

    def top_k_positions(
        self, pos_u: int, k: int, positions=None
    ) -> list[tuple[int, float]]:
        """Return the *k* positions most similar to *pos_u*, best first.

        Candidates are *positions* (default: every node) minus *pos_u*.
        With a semantic measure attached they are scanned in decreasing
        ``sem`` order and the Prop. 2.5 bound stops the scan early
        (:func:`~repro.core.topk.top_k_scan`); without one every candidate
        is scored.  Blocks of candidates are scored through
        :meth:`score_positions`, and ties break by ``str(node)``.
        """
        pos_u = int(pos_u)
        if positions is None:
            positions = np.arange(len(self.nodes), dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)
        pool = positions[positions != pos_u]
        return top_k_scan(
            pos_u, pool, k, self.score_positions, self._tie_ranks(),
            bound=self._sem_bounds(pos_u, pool),
        )

    def _sem_bounds(self, pos_u: int, pool: np.ndarray) -> np.ndarray | None:
        """``sem(u, v)`` for every candidate of *pool* — the Prop. 2.5 bound.

        One gather from a ``sem`` matrix in node order; otherwise the
        measure's own per-pair floats.  ``None`` without a measure.
        """
        measure = self.measure
        if measure is None:
            return None
        if self._sem_rows is _UNSET:
            self._sem_rows = (
                measure.matrix
                if isinstance(measure, MatrixMeasure)
                and measure.nodes == self.nodes
                else None
            )
        if self._sem_rows is not None:
            return self._sem_rows[pos_u, pool]
        nodes = self.nodes
        query = nodes[pos_u]
        similarity = measure.similarity
        return np.fromiter(
            (similarity(query, nodes[p]) for p in pool.tolist()),
            dtype=np.float64, count=pool.size,
        )

    def _tie_ranks(self) -> np.ndarray:
        """Each position's rank in the ``str(node)`` order, once per node set."""
        nodes = self.nodes
        cached = self._tie_rank_cache
        if cached is None or cached[0] is not nodes or cached[1] != len(nodes):
            cached = (nodes, len(nodes), str_ranks(nodes))
            self._tie_rank_cache = cached
        return cached[2]

    def join(
        self,
        min_score: float,
        restrict_to: set[Node] | None = None,
    ) -> list[tuple[Node, Node, float]]:
        """Return all unordered pairs scoring above *min_score*, best first."""
        if self._table is not None:
            return self._join_from_table(min_score, restrict_to)
        return similarity_join(self.estimator, min_score, restrict_to=restrict_to)

    def _join_from_table(
        self, min_score: float, restrict_to: set[Node] | None
    ) -> list[tuple[Node, Node, float]]:
        if not 0 < min_score <= 1:
            raise ConfigurationError(
                f"min_score must lie in (0, 1], got {min_score!r}"
            )
        table = self._table
        matrix = table.result.matrix
        nodes = table.result.nodes
        allowed = None
        if restrict_to is not None:
            allowed = {table._position[node] for node in restrict_to}
        rows, cols = np.nonzero(np.triu(matrix > min_score, k=1))
        results = []
        for i, j in zip(rows, cols):
            if allowed is not None and (int(i) not in allowed or int(j) not in allowed):
                continue
            results.append((nodes[int(i)], nodes[int(j)], float(matrix[i, j])))
        results.sort(key=lambda row: (-row[2], str(row[0]), str(row[1])))
        return results

    def candidate_pairs(self, restrict_to: set[Node] | None = None):
        """Yield the non-zero-score candidate pairs of the MC walk index."""
        if self.walk_index is None:
            raise ConfigurationError(
                "candidate_pairs requires method='mc' (a walk index)"
            )
        return candidate_pairs(self.walk_index, restrict_to=restrict_to)

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero this engine's work counters in place."""
        self.stats.reset()

    def __repr__(self) -> str:
        index = repr(
            self.walk_index if self.walk_index is not None else self._table
        )
        return (
            f"QueryEngine(method={self.method!r}, decay={self.decay}, "
            f"theta={self.theta}, backend={self.backend_name!r}, index={index})"
        )
