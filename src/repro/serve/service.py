"""The request-facing serving facade: deadlines, outcomes, degraded flags.

:class:`QueryService` wraps an :class:`~repro.serve.manager.IndexManager`
with per-request semantics:

* **deadlines** — a request carries an optional ``deadline_ms`` budget
  (default set at construction).  Engine-acquisition retries stop backing
  off once the budget would be blown, and a request that finishes late
  raises :class:`~repro.serve.errors.DeadlineExceeded` instead of
  returning silently-slow results.
* **responses, not bare floats** — every answer rides in a
  :class:`QueryResponse` / :class:`BatchResponse` / :class:`TopKResponse`
  carrying the ``degraded`` flag (the paper-exact iterative fallback is
  serving because the primary index is quarantined), the retry count the
  request paid, and the engine method that answered.
* **observability** — outcomes land in ``serve_requests_total{outcome=}``
  and degraded answers additionally bump ``degraded_queries_total``; the
  scores themselves are whatever :class:`~repro.api.QueryEngine` computes,
  bit-identical to calling it directly.

The happy path is deliberately thin — two clock reads, one lock-free
acquisition, the engine call, one counter — and is held to ≤ 3% median
overhead over a bare engine by ``benchmarks/bench_serve_overhead.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import NodeNotFoundError
from repro.hin.graph import Node
from repro.obs.registry import is_enabled
from repro.serve.errors import DeadlineExceeded
from repro.serve.manager import Acquisition, IndexManager
from repro.serve.metrics import DEGRADED_QUERIES, SERVE_REQUESTS

_UNSET = object()


def _annotations(response) -> dict:
    """The opt-in observability fields (``repro serve --timings``).

    Absent by default so the protocol output stays byte-stable; when the
    runtime annotates, responses carry the router-assigned ``trace_id``
    (join key into span traces and structured logs) and the per-request
    latency breakdown in microseconds.
    """
    extra: dict = {}
    if response.trace_id is not None:
        extra["trace_id"] = response.trace_id
    if response.timings is not None:
        extra["timings"] = {
            key: round(float(value), 1)
            for key, value in response.timings.items()
        }
    return extra


@dataclass(slots=True)
class QueryResponse:
    """One scored pair, annotated with how it was served."""

    u: Node
    v: Node
    value: float
    degraded: bool
    retries: int
    method: str
    elapsed_ms: float
    trace_id: str | None = None
    timings: dict | None = None

    @property
    def outcome(self) -> str:
        return "degraded" if self.degraded else "ok"

    def as_dict(self) -> dict:
        """JSON-ready rendering (what ``repro serve`` prints per request)."""
        return {
            "u": str(self.u), "v": str(self.v),
            "value": self.value, "degraded": self.degraded,
            "retries": self.retries, "method": self.method,
            "elapsed_ms": round(self.elapsed_ms, 3),
            **_annotations(self),
        }


@dataclass(slots=True)
class BatchResponse:
    """One vectorised single-source answer."""

    u: Node
    candidates: tuple[Node, ...]
    values: np.ndarray = field(repr=False)
    degraded: bool
    retries: int
    method: str
    elapsed_ms: float
    trace_id: str | None = None
    timings: dict | None = None

    def as_dict(self) -> dict:
        """JSON-ready rendering (what ``repro serve`` prints per BATCH)."""
        return {
            "u": str(self.u),
            "candidates": [str(c) for c in self.candidates],
            "values": [float(v) for v in self.values],
            "degraded": self.degraded, "retries": self.retries,
            "method": self.method, "elapsed_ms": round(self.elapsed_ms, 3),
            **_annotations(self),
        }


@dataclass(slots=True)
class TopKResponse:
    """One top-k search answer."""

    u: Node
    k: int
    results: tuple[tuple[Node, float], ...]
    degraded: bool
    retries: int
    method: str
    elapsed_ms: float
    trace_id: str | None = None
    timings: dict | None = None

    def as_dict(self) -> dict:
        return {
            "u": str(self.u), "k": self.k,
            "results": [[str(node), score] for node, score in self.results],
            "degraded": self.degraded, "retries": self.retries,
            "method": self.method, "elapsed_ms": round(self.elapsed_ms, 3),
            **_annotations(self),
        }


class QueryService:
    """Deadline-aware, degradation-annotating front over one manager."""

    def __init__(
        self,
        manager: IndexManager,
        *,
        deadline_ms: float | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self.manager = manager
        self.deadline_ms = deadline_ms
        # Default to the manager's clock so one VirtualClock drives both
        # the breaker cooldowns and the request deadlines in tests.
        self._clock = clock if clock is not None else manager.clock
        if self._clock is None:  # pragma: no cover — manager always has one
            self._clock = time.monotonic
        # pre-resolved metric children: labels() costs a dict + lock per
        # call, which the <= 3% happy-path overhead budget cannot afford
        self._count_ok = SERVE_REQUESTS.labels(outcome="ok")
        self._count_degraded = SERVE_REQUESTS.labels(outcome="degraded")
        self._count_deadline = SERVE_REQUESTS.labels(
            outcome="deadline_exceeded"
        )
        self._count_error = SERVE_REQUESTS.labels(outcome="error")
        # bound methods shave one attribute hop off the hot path
        self._inc_ok = self._count_ok.inc
        self._inc_degraded = self._count_degraded.inc

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def _begin(self, deadline_ms) -> tuple[float, float | None, float | None]:
        if deadline_ms is _UNSET:
            deadline_ms = self.deadline_ms
        start = self._clock()
        deadline = None if deadline_ms is None else start + deadline_ms / 1000.0
        return start, deadline, deadline_ms

    def _acquire(self, deadline: float | None) -> Acquisition:
        return self.manager.acquire(deadline)

    def _finish(
        self, start: float, deadline: float | None, deadline_ms: float | None,
        acquisition: Acquisition,
    ) -> float:
        """Close out one request; returns elapsed ms or raises on deadline."""
        now = self._clock()
        elapsed_ms = max(0.0, (now - start) * 1000.0)  # max(): clock skew
        if deadline is not None and now > deadline:
            if is_enabled():
                self._count_deadline.inc()
            raise DeadlineExceeded(deadline_ms, elapsed_ms)
        if is_enabled():
            if acquisition.degraded:
                DEGRADED_QUERIES.inc()
                self._count_degraded.inc()
            else:
                self._count_ok.inc()
        return elapsed_ms

    def _check_nodes(self, engine, nodes: Sequence[Node]) -> None:
        for node in nodes:
            if node not in engine.graph:
                if is_enabled():
                    self._count_error.inc()
                raise NodeNotFoundError(node)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, u: Node, v: Node, *, deadline_ms=_UNSET) -> QueryResponse:
        """Score one pair within the request deadline.

        This is the hot path: the body is deliberately inlined (no
        ``_begin``/``_finish`` helpers) and allocation-light so the
        wrapper stays inside the <= 3% overhead ceiling enforced by
        ``benchmarks/bench_serve_overhead.py``.
        """
        if deadline_ms is _UNSET:
            deadline_ms = self.deadline_ms
        clock = self._clock
        start = clock()
        deadline = None if deadline_ms is None else start + deadline_ms / 1000.0
        # healthy steady state: read the manager's cached handout without
        # paying the acquire() call; anything else takes the full path
        acquisition = self.manager._acquisition
        if acquisition is None or acquisition.degraded:
            acquisition = self.manager.acquire(deadline)
        engine = acquisition.engine
        graph = engine.graph
        if u not in graph or v not in graph:
            self._check_nodes(engine, (u, v))  # raises for the missing one
        value = engine.score(u, v)
        now = clock()
        elapsed_ms = (now - start) * 1000.0
        if elapsed_ms < 0.0:  # clock skew
            elapsed_ms = 0.0
        if deadline is not None and now > deadline:
            if is_enabled():
                self._count_deadline.inc()
            raise DeadlineExceeded(deadline_ms, elapsed_ms)
        degraded = acquisition.degraded
        if is_enabled():
            if degraded:
                DEGRADED_QUERIES.inc()
                self._inc_degraded()
            else:
                self._inc_ok()
        return QueryResponse(
            u, v, float(value), degraded, acquisition.retries,
            engine.method, elapsed_ms,
        )

    def batch(
        self, u: Node, candidates: Sequence[Node], *, deadline_ms=_UNSET
    ) -> BatchResponse:
        """Score one candidate set through the vectorised path."""
        start, deadline, budget_ms = self._begin(deadline_ms)
        acquisition = self._acquire(deadline)
        candidates = tuple(candidates)
        self._check_nodes(acquisition.engine, (u, *candidates))
        values = acquisition.engine.score_batch(u, list(candidates))
        elapsed_ms = self._finish(start, deadline, budget_ms, acquisition)
        return BatchResponse(
            u=u, candidates=candidates, values=values,
            degraded=acquisition.degraded, retries=acquisition.retries,
            method=acquisition.engine.method, elapsed_ms=elapsed_ms,
        )

    def top_k(
        self,
        u: Node,
        k: int,
        candidates: Sequence[Node] | None = None,
        *,
        deadline_ms=_UNSET,
    ) -> TopKResponse:
        """Top-k similarity search within the request deadline."""
        start, deadline, budget_ms = self._begin(deadline_ms)
        acquisition = self._acquire(deadline)
        self._check_nodes(acquisition.engine, (u,))
        results = acquisition.engine.top_k(u, k, candidates=candidates)
        elapsed_ms = self._finish(start, deadline, budget_ms, acquisition)
        return TopKResponse(
            u=u, k=k, results=tuple(results),
            degraded=acquisition.degraded, retries=acquisition.retries,
            method=acquisition.engine.method, elapsed_ms=elapsed_ms,
        )

    def backend_name(self) -> str | None:
        """The compute-backend name of the currently handed-out engine.

        ``None`` before the first acquisition — the backend is an engine
        property, so there is nothing to report until one exists.
        """
        acquisition = self.manager._acquisition
        if acquisition is None:
            return None
        return getattr(acquisition.engine, "backend_name", None)

    def health(self) -> dict:
        """The manager's health snapshot plus service-level settings."""
        payload = self.manager.health()
        payload["deadline_ms"] = self.deadline_ms
        payload["backend"] = self.backend_name()
        return payload

    def __repr__(self) -> str:
        return (
            f"QueryService(deadline_ms={self.deadline_ms}, "
            f"manager={self.manager!r})"
        )
