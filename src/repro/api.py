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
import time
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.backends import (
    BackendConfig,
    BackendError,
    BackendUnavailableError,
    ComputeBackend,
    UnknownBackendError,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.core.bounds import plan_index
from repro.core.dynamic import DynamicWalkIndex
from repro.core.iterative import FixedPointResult
from repro.core.join import candidate_pairs, similarity_join
from repro.core.montecarlo import EstimatorStats, MonteCarloSemSim, MonteCarloSimRank
from repro.core.params import (
    validate_decay,
    validate_length,
    validate_num_walks,
    validate_theta,
    validate_workers,
)
from repro.core.semsim import SemSim
from repro.core.simrank import SimRank
from repro.core.single_source import batch_similarity
from repro.core.topk import top_k_similar
from repro.core.walk_index import (
    WalkIndex,
    WalkPolicy,
    _TransitionTables,
    load_walk_index,
    save_walk_index,
)
from repro.errors import ConfigurationError
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
from repro.store.fingerprint import fingerprint_graph

__all__ = [
    "QueryEngine",
    "EstimatorStats",
    "WalkPolicy",
    "batch_similarity",
    "similarity_join",
    "top_k_similar",
    # compute-backend seam (re-exported so API users need one import)
    "BackendConfig",
    "BackendError",
    "BackendUnavailableError",
    "ComputeBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
]

#: Above this node count ``materialize_semantics="auto"`` stops densifying
#: the semantic measure (the n×n matrix would dominate memory).
AUTO_MATERIALIZE_LIMIT = 4096

_LOG = get_logger("api")

#: Mutation kinds, each a method of both the engine and DynamicWalkIndex.
_MUTATION_KINDS = ("add_edge", "set_weight", "remove_edge", "add_node")

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
    backend, backend_config:
        Compute backend for the MC scoring hot path: a registered backend
        name (``"numpy"``, ``"blocked"``, or any third-party
        registration), a ready :class:`~repro.backends.ComputeBackend`
        instance, or ``None`` for the default.  Selection precedence:
        explicit argument > the ``REPRO_BACKEND`` environment variable >
        ``"numpy"``.  *backend_config* is a
        :class:`~repro.backends.BackendConfig` of tuning knobs, only valid
        when *backend* is not already an instance.  Exact backends
        (``numpy``, ``blocked``) return bit-identical scores; inexact
        ones document a tolerance.
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
    pair_index:
        Optional SLING-style ``SO`` cache forwarded to the MC estimator.
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
        backend: str | ComputeBackend | None = None,
        backend_config: BackendConfig | None = None,
        policy: WalkPolicy = WalkPolicy.UNIFORM,
        workers: int | None = None,
        materialize_semantics: bool | str = "auto",
        pair_index=None,
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
        self.backend = resolve_backend(backend, backend_config)
        self.backend_name = self.backend.name
        self.policy = policy
        self.workers = validate_workers(workers)
        self.pair_index = pair_index
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
        self._parent_graph: str | None = None

        self.walk_index: WalkIndex | None = None
        self._table: SemSim | SimRank | None = None
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
            if self.measure is None:
                self.estimator = MonteCarloSimRank(
                    self.walk_index, decay=self.decay, backend=self.backend
                )
            else:
                self.estimator = MonteCarloSemSim(
                    self.walk_index,
                    self.measure,
                    decay=self.decay,
                    theta=self.theta,
                    pair_index=self.pair_index,
                    backend=self.backend,
                )
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

        Configurations the artifact format cannot replay — an external
        ``pair_index``, an explicit ``walks_path``, a live ``Generator``
        seed, a measure that stays lazy — skip caching with a warning
        instead of risking a wrong answer.
        """
        not_cacheable = None
        if self.pair_index is not None:
            not_cacheable = "an external pair_index is not part of artifacts"
        elif walks_path is not None:
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
        to fresh ones.  The compute backend is per-engine, not part of the
        artifact: the same artifact serves under any backend.
        """
        self.measure = measure_from_artifact(artifact, self.graph)
        if self.method == "mc":
            walks = artifact.arrays.get("walks")
            if walks is None:
                raise StoreError(
                    f"artifact at {artifact.path} stores no walk tensor "
                    f"(was it built with method='mc'?)"
                )
            tables = None
            if all(name in artifact.arrays for name, _ in PROPOSAL_ARRAYS):
                tables = _TransitionTables.from_arrays(
                    *(artifact.arrays[name] for name, _ in PROPOSAL_ARRAYS)
                )
            self.walk_index = WalkIndex.from_arrays(
                self.graph,
                walks,
                num_walks=self.num_walks,
                length=self.length,
                policy=self.policy,
                tables=tables,
            )
            if self.measure is None:
                self.estimator = MonteCarloSimRank(
                    self.walk_index, decay=self.decay, backend=self.backend
                )
            else:
                self.estimator = MonteCarloSemSim(
                    self.walk_index,
                    self.measure,
                    decay=self.decay,
                    theta=self.theta,
                    backend=self.backend,
                )
                self.estimator.attach_precomputed(
                    so_matrix=artifact.arrays.get("so_matrix"),
                    step_weights=artifact.arrays.get("step_weights"),
                    step_q=artifact.arrays.get("step_q"),
                )
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
        *open* is a pure memory-map.  Engines holding an external
        ``pair_index``, or a semantic measure that was not materialised,
        cannot be persisted (:class:`ConfigurationError`).
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
        backend: str | ComputeBackend | None = None,
        backend_config: BackendConfig | None = None,
    ) -> "QueryEngine":
        """Warm-start an engine from an artifact written by :meth:`save`.

        Arrays are memory-mapped, not copied: time-to-first-query is
        dominated by reading the manifest and the embedded graph, the OS
        page cache shares the array bytes across every process serving the
        same artifact, and scores are bit-identical to the engine that was
        saved.  Any structural problem — truncated file, version drift,
        manifest mismatch — raises :class:`~repro.store.StoreError`.

        *backend*/*backend_config* select the compute backend exactly as in
        the constructor — artifacts are backend-agnostic.
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
            "backend_config": backend_config,
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
        return cls(graph, None, **kwargs)

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
        :class:`~repro.core.dynamic.DynamicWalkIndex` around a copied walk
        tensor and graph, so queries in flight against this engine keep a
        consistent snapshot.  Each mutation is a ``(kind, *args)`` tuple as
        accepted by :meth:`apply_mutation`.  The clone's estimator is built
        once, after the last mutation, from this engine's estimator (see
        :meth:`~repro.core.montecarlo.MonteCarloSemSim.carry_tables`).
        This is the building block of the serve layer's atomic generation
        swap.
        """
        clone = copy.copy(self)
        clone._dynamic = None
        clone._parent_graph = None
        clone._mutate(mutations)
        return clone

    def mutation_lineage(self) -> dict | None:
        """Lineage of this index generation, or ``None`` if never mutated.

        Recorded into artifact manifests by
        :func:`~repro.store.engine_io.snapshot_engine`: the fingerprint of
        the parent generation's graph plus the hash of the mutation log
        that produced this one — a content-addressable chain of index
        generations.
        """
        if self._dynamic is None or not self._dynamic.mutation_log:
            return None
        return {
            "parent_graph": self._parent_graph,
            "mutation_log_sha256": self._dynamic.mutation_log_hash(),
            "mutations": len(self._dynamic.mutation_log),
            "epoch": int(self._dynamic.epoch),
        }

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
        if self.pair_index is not None:
            raise ConfigurationError(
                "graph mutations cannot be applied with an external "
                "pair_index attached (its SO snapshot would go stale)"
            )
        if self._dynamic is None:
            if self._seed_key is None:
                raise ConfigurationError(
                    "graph mutations require an integer seed: incremental "
                    "maintenance re-derives the walk draw schedule from it"
                )
            self._parent_graph = fingerprint_graph(self.graph)
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
        estimator carries its tables over from the one it replaces, and
        the index's change record restarts, so the next refresh carries
        from this one.  ``stats`` restarts with it (the registry mirror
        keeps the running totals).
        """
        predecessor = self.estimator
        if self.measure is None:
            self.estimator = MonteCarloSimRank(
                self.walk_index, decay=self.decay, backend=self.backend
            )
        else:
            self.estimator = MonteCarloSemSim(
                self.walk_index,
                self.measure,
                decay=self.decay,
                theta=self.theta,
                backend=self.backend,
            )
            if isinstance(predecessor, MonteCarloSemSim):
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

    def score_batch(self, u: Node, candidates: Sequence[Node]) -> np.ndarray:
        """Return ``sim(u, v)`` for every candidate in one vectorised pass."""
        start = time.perf_counter()
        candidates = list(candidates)
        if self._table is not None:
            scores = self._table_gather([u], candidates)
        else:
            scores = self.estimator.similarity_batch(u, candidates)
        if is_enabled():
            _BATCH_CANDIDATES.observe(len(candidates))
            self._latency_batch.observe(time.perf_counter() - start)
        return scores

    def score_pairs(self, us: Sequence[Node], vs: Sequence[Node]) -> np.ndarray:
        """Return ``sim(us[i], vs[i])`` for pairs from any mix of sources.

        Every entry equals :meth:`score` of its pair.  The MC SemSim
        engine scores all pairs in one vectorised pass
        (:meth:`~repro.core.montecarlo.MonteCarloSemSim.similarity_pairs`),
        the iterative engine with one table gather, and the MC SimRank
        engine (no measure) pair by pair.
        """
        start = time.perf_counter()
        us, vs = list(us), list(vs)
        if len(us) != len(vs):
            raise ConfigurationError(
                f"score_pairs needs one source per pair, got {len(us)} "
                f"sources for {len(vs)} pairs"
            )
        if self._table is not None:
            scores = self._table_gather(us, vs)
        elif isinstance(self.estimator, MonteCarloSemSim):
            scores = self.estimator.similarity_pairs(us, vs)
        else:
            similarity = self.estimator.similarity
            scores = np.array(
                [similarity(u, v) for u, v in zip(us, vs)], dtype=np.float64
            )
        if is_enabled():
            _BATCH_CANDIDATES.observe(len(vs))
            self._latency_batch.observe(time.perf_counter() - start)
        return scores

    def _table_gather(self, us: list[Node], vs: list[Node]) -> np.ndarray:
        """Iterative-table scores of ``(us[i], vs[i])``; one *us* entry is
        shared by every pair."""
        self.stats.add(
            queries=len(vs), batch_queries=1, batch_pairs=len(vs),
            vectorized_pairs=len(vs),
        )
        position = self._table._position
        rows = np.fromiter(
            (position[u] for u in us), dtype=np.int64, count=len(us)
        )
        cols = np.fromiter(
            (position[v] for v in vs), dtype=np.int64, count=len(vs)
        )
        return self._table.result.matrix[rows, cols].astype(np.float64)

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
        use_semantic_bound: bool = True,
        batch_size: int = 256,
    ) -> list[tuple[Node, float]]:
        """Return the *k* nodes most similar to *u*, best first.

        With a semantic measure attached, candidates are scanned in
        decreasing ``sem`` order and the Prop. 2.5 bound stops the scan
        early; scoring runs through the batched path either way, in
        blocks of *batch_size* candidates (identical results whatever the
        block length — only the overhead/pruning trade-off moves).
        """
        if candidates is None:
            candidates = list(self.graph.nodes())
        sem_bounds = None
        if use_semantic_bound and isinstance(self.measure, MatrixMeasure):
            # One vectorised gather instead of len(candidates) scalar
            # lookups; the floats are the same matrix elements, so the
            # bound ordering (and thus the result) is unchanged.
            candidates = list(candidates)
            sem_bounds = dict(
                zip(candidates, self.measure.similarities(u, candidates))
            )
        return top_k_similar(
            u,
            candidates,
            k,
            measure=self.measure,
            use_semantic_bound=use_semantic_bound,
            batch_score=self.score_batch,
            batch_size=batch_size,
            sem_bounds=sem_bounds,
        )

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
