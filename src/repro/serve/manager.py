"""Thread-safe ownership of the serving engine, with graceful degradation.

:class:`IndexManager` fronts :class:`~repro.api.QueryEngine` construction
for the serving layer.  Its contract:

* **Acquisition is cheap.**  After the first activation, ``acquire()`` is
  one attribute read — the active engine is published as one immutable
  :class:`_EngineState` swapped atomically (CPython attribute stores are
  atomic), so readers never lock.
* **I/O failures are retried, then quarantined.**  Opening the primary
  index (an artifact directory, a walk-tensor ``.npz``, or a cache-backed
  build) runs under a :class:`~repro.serve.retry.RetryPolicy`; persistent
  failure records into the :class:`~repro.serve.breaker.CircuitBreaker`,
  and once the breaker opens, later acquisitions skip the disk entirely.
* **Loss degrades, never breaks.**  When the primary cannot be opened and
  a graph is available, the manager serves from the exact iterative
  fixed-point solver (Section 2.3) — slower to build, but correct and
  disk-free — while a rebuild of the primary runs in the background (or
  on explicit :meth:`probe` calls when ``background_rebuild=False``).
  Every response served this way is flagged ``degraded``.
* **Recovery is automatic.**  A degraded manager re-probes the primary
  whenever the breaker admits it (closed, or half-open after cooldown);
  a successful rebuild swaps the healthy engine in and closes the
  circuit.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.api import QueryEngine
from repro.errors import ConfigurationError
from repro.hin.graph import HIN
from repro.obs.logging import get_logger, log_event
from repro.obs.registry import is_enabled
from repro.obs.trace import span
from repro.semantics.base import SemanticMeasure
from repro.serve.breaker import CircuitBreaker
from repro.serve.errors import IndexUnavailableError, MutationRejectedError
from repro.serve.metrics import (
    INDEX_GENERATION,
    INDEX_SWAP_SECONDS,
    MUTATIONS_APPLIED,
    SERVE_REBUILDS,
)
from repro.serve.retry import RETRYABLE, RetryPolicy, call_with_retry
from repro.store.artifacts import ArtifactStore

_LOG = get_logger("serve.manager")


@dataclass(frozen=True)
class _EngineState:
    """One published serving configuration (immutable, swapped whole)."""

    engine: QueryEngine
    degraded: bool
    generation: int


@dataclass(slots=True)
class Acquisition:
    """What one ``acquire()`` call handed out."""

    engine: QueryEngine
    degraded: bool
    retries: int


class IndexManager:
    """Own, quarantine, degrade and rebuild the engine behind a service.

    Parameters
    ----------
    graph, measure:
        The model to serve.  Required for the degraded fallback, the
        exact iterative engine built from them; may be omitted when
        *index_path* names a self-contained artifact — but then no
        degradation is possible and persistent index loss raises
        :class:`~repro.serve.errors.IndexUnavailableError`.
    index_path:
        Serve from a prebuilt ``repro index build`` artifact
        (:meth:`QueryEngine.open`).
    walks_path, cache_dir, engine_kwargs:
        Forwarded to the :class:`~repro.api.QueryEngine` constructor for
        the primary build when *index_path* is not given.
    retry, breaker:
        The I/O retry policy and the quarantine breaker; defaults are
        production-flavoured (3 retries, threshold 3, 30 s cooldown).
    clock, sleep:
        Injectable time sources (see
        :class:`~repro.testing.faults.VirtualClock`); every wait and every
        cooldown in the manager goes through these.
    background_rebuild:
        ``True`` (default) rebuilds the primary on a daemon thread while
        degraded responses flow; ``False`` makes probes synchronous inside
        :meth:`acquire` / :meth:`probe` — the deterministic-test mode.
    """

    def __init__(
        self,
        graph: HIN | None = None,
        measure: SemanticMeasure | None = None,
        *,
        index_path: str | Path | None = None,
        walks_path: str | Path | None = None,
        cache_dir: str | Path | None = None,
        engine_kwargs: dict | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        background_rebuild: bool = True,
    ) -> None:
        if graph is None and index_path is None:
            raise ConfigurationError(
                "IndexManager needs a graph to build from, an index_path "
                "to open, or both (both enables degraded fallback)"
            )
        self.graph = graph
        self.measure = measure
        self.index_path = Path(index_path) if index_path is not None else None
        self.walks_path = Path(walks_path) if walks_path is not None else None
        self.cache_dir = cache_dir
        self.engine_kwargs = dict(engine_kwargs or {})
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = (
            breaker if breaker is not None
            else CircuitBreaker("index", clock=clock)
        )
        self.clock = clock
        self.sleep = sleep
        self.background_rebuild = background_rebuild

        self._state: _EngineState | None = None
        self._acquisition: Acquisition | None = None  # cached fast-path handout
        self._lock = threading.Lock()          # guards activation + swap
        self._rebuild_lock = threading.Lock()  # one rebuild at a time
        self._mutation_lock = threading.Lock()  # serialises live updates
        self._rebuild_in_flight = False
        self._generation = 0
        self._mutations_applied = 0
        self._last_error: BaseException | None = None

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def acquire(self, deadline: float | None = None) -> Acquisition:
        """Return the current engine (activating or probing as needed).

        The healthy fast path is lock-free and allocation-free: one
        attribute read of a cached :class:`Acquisition`, one branch.  A
        degraded state additionally asks the breaker whether a recovery
        probe is due; *deadline* (absolute, in the manager's clock
        domain) bounds any retry backoff performed on this call.
        """
        acquisition = self._acquisition
        if acquisition is not None:
            if acquisition.degraded:
                self._maybe_probe(deadline)
                return self._acquisition  # a probe may have swapped it
            return acquisition
        with self._lock:
            if self._state is None:
                retries = self._activate(deadline)
            else:
                retries = 0
            state = self._state
        return Acquisition(state.engine, state.degraded, retries)

    def engine(self) -> QueryEngine:
        """The current engine (mostly for benchmarks and tests)."""
        return self.acquire().engine

    @property
    def degraded(self) -> bool:
        state = self._state
        return state.degraded if state is not None else False

    @property
    def generation(self) -> int:
        """Bumps on every engine swap (activation, degradation, recovery)."""
        state = self._state
        return state.generation if state is not None else 0

    def health(self) -> dict:
        """One JSON-ready snapshot of the serving state."""
        state = self._state
        return {
            "activated": state is not None,
            "degraded": state.degraded if state is not None else False,
            "method": state.engine.method if state is not None else None,
            "generation": state.generation if state is not None else 0,
            "index_epoch": (
                int(getattr(state.engine.walk_index, "epoch", 0))
                if state is not None else 0
            ),
            "mutations_applied": self._mutations_applied,
            "circuit": self.breaker.state.value,
            "rebuild_in_flight": self._rebuild_in_flight,
            "last_error": str(self._last_error) if self._last_error else None,
        }

    # ------------------------------------------------------------------
    # Live updates — apply-incremental, persist, atomic swap
    # ------------------------------------------------------------------
    def apply_mutations(self, mutations, *, persist: bool = True) -> dict:
        """Apply *mutations* as one new generation and swap it in atomically.

        Copy-on-write: the next generation is built with
        :meth:`QueryEngine.with_mutations`, so the serving engine — and any
        acquisition already handed to an in-flight query — is never touched.
        When *persist* is true and a store is reachable (the engine's own
        cache store, or one rooted at ``cache_dir``), the new generation is
        written **before** publication; a failed write raises
        :class:`~repro.store.StoreError` and leaves the old generation
        serving.  The retired generation is dropped by reference once the
        last in-flight query releases it.

        Each mutation is a ``(kind, *args)`` tuple (``add_edge``,
        ``set_weight``, ``remove_edge``, ``add_node``).  Validation errors
        (unknown node, bad weight, non-mc engine, ...) propagate without
        touching the published state or the circuit breaker.
        """
        mutations = list(mutations)
        with self._mutation_lock:
            acquisition = self.acquire()
            if acquisition.degraded:
                raise MutationRejectedError(
                    "cannot mutate a degraded serving stack: the iterative "
                    "fallback has no incremental maintenance path"
                )
            engine = acquisition.engine
            started = self.clock()
            with span("serve.apply_mutations", count=len(mutations)):
                next_engine = engine.with_mutations(mutations)
                artifact_key = None
                if persist:
                    store = self._mutation_store(next_engine)
                    if store is not None:
                        try:
                            artifact_key = next_engine.persist_generation(store)
                        except Exception as exc:
                            self._last_error = exc
                            log_event(
                                _LOG, "serve.mutation_persist_failed",
                                error=str(exc),
                            )
                            raise
                with self._lock:
                    self._publish(next_engine, degraded=False)
            elapsed = self.clock() - started
            self._mutations_applied += len(mutations)
            if is_enabled():
                for mutation in mutations:
                    MUTATIONS_APPLIED.labels(kind=str(mutation[0])).inc()
                INDEX_SWAP_SECONDS.observe(max(0.0, elapsed))
            log_event(
                _LOG, "serve.mutations_applied",
                count=len(mutations), generation=self._generation,
                epoch=next_engine.index_epoch, artifact=artifact_key,
            )
            return {
                "applied": len(mutations),
                "resampled": (
                    int(next_engine._dynamic.walks_resampled)
                    if next_engine._dynamic is not None else 0
                ),
                "generation": self._generation,
                "epoch": next_engine.index_epoch,
                "lineage": next_engine.mutation_lineage(),
                "artifact": artifact_key,
                "swap_seconds": max(0.0, elapsed),
            }

    def _mutation_store(self, engine: QueryEngine) -> ArtifactStore | None:
        """The store new generations persist into (``None`` disables it)."""
        store = getattr(engine, "_store", None)
        if store is not None:
            return store
        if self.cache_dir is not None:
            return ArtifactStore(self.cache_dir)
        return None

    # ------------------------------------------------------------------
    # Activation, degradation, recovery
    # ------------------------------------------------------------------
    def _open_primary(self) -> QueryEngine:
        """One attempt at the configured primary engine (may raise)."""
        if self.index_path is not None:
            return QueryEngine.open(self.index_path, **self._open_kwargs())
        return QueryEngine(
            self.graph,
            self.measure,
            walks_path=self.walks_path,
            cache_dir=self.cache_dir,
            **self.engine_kwargs,
        )

    def _rebuild_primary(self) -> QueryEngine:
        """One rebuild-from-scratch attempt.

        A lost or corrupt walk tensor is *resampled* from the graph (the
        stored file is what failed — reopening it cannot help) and then
        saved back over ``walks_path``, repairing the on-disk primary so
        a process restart recovers too.  If the disk cannot take that
        write the rebuild counts as failed and the index stays
        quarantined.  With only an ``index_path`` the artifact is
        reopened instead, covering the repaired-in-place case.
        """
        if self.graph is None:
            return QueryEngine.open(self.index_path, **self._open_kwargs())
        engine = QueryEngine(
            self.graph,
            self.measure,
            cache_dir=self.cache_dir,
            **self.engine_kwargs,
        )
        if self.walks_path is not None and engine.method == "mc":
            engine.save_walks(self.walks_path)
        return engine

    def _open_kwargs(self) -> dict:
        """Engine kwargs that apply to the artifact-open path.

        Artifacts are backend-agnostic, so backend selection (the only
        per-engine, non-persisted knob) rides through to ``open``.
        """
        return {
            key: value
            for key, value in self.engine_kwargs.items()
            if key in ("backend", "backend_config") and value is not None
        }

    def _fallback_engine(self) -> QueryEngine:
        """The disk-free degraded engine: the exact iterative solver.

        Every degraded answer is the paper's exact measure (the Eq. 2
        fixed point), built from the graph in O(N²) memory.
        """
        if self.graph is None:
            raise IndexUnavailableError(
                f"primary index is unavailable ({self._last_error}) and no "
                f"graph was provided for a degraded fallback"
            )
        kwargs = {
            key: value
            for key, value in self.engine_kwargs.items()
            if key in ("decay", "max_iterations", "tolerance")
        }
        return QueryEngine(
            self.graph, self.measure, method="iterative", **kwargs
        )

    def _publish(self, engine: QueryEngine, degraded: bool) -> None:
        self._generation += 1
        self._state = _EngineState(engine, degraded, self._generation)
        # the cached handout every post-activation acquire() returns;
        # retries are a per-activation detail, so the steady state is 0
        self._acquisition = Acquisition(engine, degraded, 0)
        if is_enabled():
            INDEX_GENERATION.set(float(self._generation))

    def _activate(self, deadline: float | None) -> int:
        """First acquisition: open the primary or degrade. Holds ``_lock``."""
        retries = 0

        def count_retry(_attempt: int, _exc: BaseException) -> None:
            nonlocal retries
            retries += 1

        if self.breaker.allow():
            try:
                with span("serve.open_primary"):
                    engine = call_with_retry(
                        self._open_primary,
                        policy=self.retry,
                        operation="open_primary",
                        sleep=self.sleep,
                        clock=self.clock,
                        deadline=deadline,
                        on_retry=count_retry,
                    )
                self.breaker.record_success()
                self._publish(engine, degraded=False)
                log_event(_LOG, "serve.primary_ready", method=engine.method)
                return retries
            except RETRYABLE as exc:
                self._last_error = exc
                self.breaker.record_failure()
                log_event(
                    _LOG, "serve.primary_failed",
                    error=str(exc), retries=retries,
                )
        self._publish(self._fallback_engine(), degraded=True)
        log_event(_LOG, "serve.degraded", error=str(self._last_error))
        if self.background_rebuild:
            self._spawn_rebuild()
        return retries

    def _maybe_probe(self, deadline: float | None) -> None:
        """While degraded: attempt recovery whenever the breaker admits it."""
        if self._rebuild_in_flight or not self.breaker.allow():
            return
        if self.background_rebuild:
            self._spawn_rebuild(breaker_admitted=True)
        else:
            self._rebuild_once(deadline, breaker_admitted=True)

    def probe(self, deadline: float | None = None) -> bool:
        """Synchronously attempt recovery now; return whether it healed.

        Honours the breaker: a quarantined index inside its cooldown is
        not probed (returns ``False`` without touching the disk).
        """
        state = self._state
        if state is None:
            return not self.acquire(deadline).degraded
        if not state.degraded:
            return True
        if not self.breaker.allow():
            return False
        return self._rebuild_once(deadline, breaker_admitted=True)

    def _spawn_rebuild(self, breaker_admitted: bool = False) -> None:
        thread = threading.Thread(
            target=self._rebuild_once,
            args=(None, breaker_admitted),
            name="repro-serve-rebuild",
            daemon=True,
        )
        thread.start()

    def _rebuild_once(
        self, deadline: float | None, breaker_admitted: bool = False
    ) -> bool:
        """One guarded rebuild attempt; swaps the healthy engine in on success.

        *breaker_admitted* marks that the caller already consumed an
        ``allow()`` slot (a half-open probe); otherwise one is requested
        here so background rebuilds respect quarantine too.
        """
        if not self._rebuild_lock.acquire(blocking=False):
            if breaker_admitted:
                self.breaker.abandon_probe()
            return False
        self._rebuild_in_flight = True
        try:
            if not breaker_admitted and not self.breaker.allow():
                return False
            try:
                with span("serve.rebuild"):
                    engine = call_with_retry(
                        self._rebuild_primary,
                        policy=self.retry,
                        operation="rebuild",
                        sleep=self.sleep,
                        clock=self.clock,
                        deadline=deadline,
                    )
            except RETRYABLE as exc:
                self._last_error = exc
                self.breaker.record_failure()
                if is_enabled():
                    SERVE_REBUILDS.labels(outcome="failed").inc()
                log_event(_LOG, "serve.rebuild_failed", error=str(exc))
                return False
            self.breaker.record_success()
            with self._lock:
                self._publish(engine, degraded=False)
            self._last_error = None
            if is_enabled():
                SERVE_REBUILDS.labels(outcome="ok").inc()
            log_event(_LOG, "serve.rebuilt", method=engine.method)
            return True
        finally:
            self._rebuild_in_flight = False
            self._rebuild_lock.release()

    def __repr__(self) -> str:
        state = self._state
        status = (
            "unactivated" if state is None
            else ("degraded" if state.degraded else "healthy")
        )
        return (
            f"IndexManager({status}, circuit={self.breaker.state.value}, "
            f"generation={self.generation})"
        )
