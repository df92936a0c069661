"""The responses every served request is answered with.

:class:`~repro.sched.runtime.ServingRuntime` builds one
:class:`QueryResponse` / :class:`BatchResponse` / :class:`TopKResponse`
per answered request.  Each carries the ``degraded`` flag (the
paper-exact iterative fallback answered because the primary index is
quarantined, or a shard was lost), the retry count the request paid, the
method that answered and the elapsed milliseconds; the scores are
whatever :class:`~repro.api.QueryEngine` computes, bit-identical to
calling it directly.  ``as_dict`` is what ``repro serve`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hin.graph import Node


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
