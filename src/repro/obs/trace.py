"""Structured timing spans over the hot preprocessing and query paths.

A *span* is a context manager that measures one named unit of work:

>>> from repro.obs.trace import span
>>> with span("walk_index.build", nodes=100, workers=4) as sp:
...     pass  # the work
>>> sp.wall_seconds >= 0 and sp.cpu_seconds >= 0
True

On exit — **including exit by exception** — a span

* records wall-clock (``perf_counter``) and CPU (``process_time``) time;
* feeds the histogram named after it (``walk_index.build`` observes into
  ``walk_index_build_seconds`` in the process registry), so every spanned
  phase automatically has a latency distribution;
* appends one JSON line to the installed trace writer (opt-in, see
  :func:`set_trace_writer` / :func:`trace_to`) carrying the timings, the
  free-form attributes, the nesting depth and the parent span name.

Nesting is tracked per thread: spans opened inside another span on the
same thread record their depth and parent; worker-pool threads (e.g. the
sharded walk-index build) start their own stacks at depth 0.

Request-scoped trace context
----------------------------
:func:`trace_scope` activates a ``contextvars``-based trace context —
a ``trace_id`` naming one logical request end-to-end and the
``span_id`` of the innermost open span.  While a context is active,
every span drawn inside it (on the same thread, or on any thread/process
that re-activates the same ids) carries ``trace_id``/``span_id``/
``parent_span_id`` in its JSON trace line, and :func:`current_trace_id`
lets structured log records stamp the same id.  The sharded serving
stack uses exactly this: the router stamps a trace id at admission,
re-activates it on the dispatching worker thread, ships
``(trace_id, span_id)`` in every pipe message, and the shard worker
re-roots its spans under the router's span — one slow query becomes one
reconstructable tree across processes.  Outside a scope, span ids are
not even generated, so the preprocessing paths pay nothing.

When recording is paused (:func:`repro.obs.registry.set_enabled`), spans
still run their body and still time themselves, but skip the histogram
observation and the trace line — the measurement window of
``bench_obs_overhead.py``.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import re
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS,
    get_registry,
    is_enabled,
)

__all__ = [
    "Span",
    "span",
    "current_span",
    "set_trace_writer",
    "trace_to",
    "histogram_name_for",
    "trace_scope",
    "current_trace_id",
    "current_span_id",
    "new_trace_id",
]

_stack_local = threading.local()

# (span name, label items) -> histogram child: a recorded span pays for
# the family lookup and label validation once per series, not per span.
# Families are never unregistered (clear_values zeroes them in place), so
# a cached child stays the registry's own.
_SPAN_CELLS: dict[tuple, object] = {}

# (trace_id, span_id) of the active request context, or None.  A
# ContextVar survives contextvars-aware executors; plain threads (the
# worker pool, shard processes) re-activate it explicitly via
# trace_scope(), which is how the ids cross the pipe.
_trace_var: contextvars.ContextVar[tuple[str, str | None] | None] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)

# Process-unique prefix + atomic counter: cheap (no per-request urandom
# syscall) and unique across the router and its forked shard workers.
_ID_PREFIX = os.urandom(4).hex()
_id_counter = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique 16-hex-char trace id (prefix + sequence)."""
    return f"{_ID_PREFIX}{next(_id_counter) & 0xFFFFFFFF:08x}"


def new_span_id() -> str:
    """A process-unique 12-hex-char span id."""
    return f"{_ID_PREFIX[:4]}{next(_id_counter) & 0xFFFFFFFF:08x}"


def current_trace_id() -> str | None:
    """The active request's trace id, or ``None`` outside a scope."""
    context = _trace_var.get()
    return context[0] if context is not None else None


def current_span_id() -> str | None:
    """The innermost active span id in this context, or ``None``."""
    context = _trace_var.get()
    return context[1] if context is not None else None


@contextmanager
def trace_scope(
    trace_id: str | None = None, parent_span_id: str | None = None
) -> Iterator[str]:
    """Activate a trace context; yields the (possibly generated) trace id.

    With no arguments a fresh ``trace_id`` is minted — the admission
    side.  Re-activating with an existing ``(trace_id, parent_span_id)``
    pair — a worker thread picking up a queued request, a shard process
    handling a pipe message — re-roots spans opened inside the scope
    under that parent.
    """
    resolved = trace_id if trace_id is not None else new_trace_id()
    token = _trace_var.set((resolved, parent_span_id))
    try:
        yield resolved
    finally:
        _trace_var.reset(token)

_writer: IO[str] | None = None
_writer_owned = False
_writer_lock = threading.Lock()

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _stack() -> list["Span"]:
    stack = getattr(_stack_local, "spans", None)
    if stack is None:
        stack = []
        _stack_local.spans = stack
    return stack


def histogram_name_for(span_name: str) -> str:
    """The registry histogram a span feeds: ``a.b-c`` -> ``a_b_c_seconds``."""
    return _INVALID_METRIC_CHARS.sub("_", span_name) + "_seconds"


def current_span() -> "Span | None":
    """Return the innermost open span on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


class Span:
    """One timed, optionally traced, unit of work (use via :func:`span`)."""

    __slots__ = (
        "name", "attrs", "labels", "record",
        "wall_seconds", "cpu_seconds", "status", "error",
        "depth", "parent_name",
        "trace_id", "span_id", "parent_span_id",
        "_start_ts", "_wall0", "_cpu0", "_context_token",
    )

    def __init__(
        self,
        name: str,
        attrs: dict[str, object],
        labels: dict[str, str] | None,
        record: bool,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.labels = labels
        self.record = record
        self.wall_seconds: float | None = None
        self.cpu_seconds: float | None = None
        self.status: str | None = None
        self.error: str | None = None
        self.depth = 0
        self.parent_name: str | None = None
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_span_id: str | None = None
        self._context_token = None

    def __enter__(self) -> "Span":
        stack = _stack()
        self.depth = len(stack)
        self.parent_name = stack[-1].name if stack else None
        stack.append(self)
        context = _trace_var.get()
        if context is not None:
            # inside a request scope: join the trace and become the
            # innermost span for anything opened in our dynamic extent
            self.trace_id, self.parent_span_id = context
            self.span_id = new_span_id()
            self._context_token = _trace_var.set((self.trace_id, self.span_id))
        self._start_ts = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_seconds = time.perf_counter() - self._wall0
        self.cpu_seconds = time.process_time() - self._cpu0
        if self._context_token is not None:
            _trace_var.reset(self._context_token)
            self._context_token = None
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is None:
            self.status = "ok"
        else:
            self.status = "error"
            self.error = f"{exc_type.__name__}: {exc}"
        if is_enabled():
            if self.record:
                self._observe()
            self._write_trace_line()
        return False  # never swallow the exception

    def _observe(self) -> None:
        labels = self.labels or {}
        key = (self.name, tuple(labels.items()))
        cell = _SPAN_CELLS.get(key)
        if cell is None:
            histogram = get_registry().histogram(
                histogram_name_for(self.name),
                help=f"Wall-clock seconds of {self.name!r} spans.",
                labelnames=sorted(labels),
                buckets=DEFAULT_TIME_BUCKETS,
            )
            cell = histogram.labels(**labels)
            _SPAN_CELLS[key] = cell
        cell.observe(self.wall_seconds)

    def _write_trace_line(self) -> None:
        writer = _writer
        if writer is None:
            return
        payload: dict[str, object] = {
            "ts": round(self._start_ts, 6),
            "span": self.name,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "depth": self.depth,
            "status": self.status,
        }
        if self.parent_name is not None:
            payload["parent"] = self.parent_name
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
            payload["span_id"] = self.span_id
            if self.parent_span_id is not None:
                payload["parent_span_id"] = self.parent_span_id
        if self.error is not None:
            payload["error"] = self.error
        if self.labels:
            payload["labels"] = self.labels
        if self.attrs:
            payload["attrs"] = {
                key: value for key, value in self.attrs.items()
            }
        line = json.dumps(payload, sort_keys=True, default=str)
        with _writer_lock:
            if _writer is writer:  # not swapped out underneath us
                writer.write(line + "\n")

    def __repr__(self) -> str:
        timing = (
            f"wall={self.wall_seconds:.6f}s" if self.wall_seconds is not None
            else "open"
        )
        return f"Span({self.name!r}, {timing}, status={self.status})"


def span(
    name: str,
    *,
    labels: dict[str, str] | None = None,
    record: bool = True,
    **attrs: object,
) -> Span:
    """Open a timing span named *name*.

    Parameters
    ----------
    name:
        Dotted phase name (``"walk_index.build"``); the fed histogram is
        :func:`histogram_name_for` of it.
    labels:
        Optional registry labels for the histogram series.  Keep the value
        set small and bounded — labels are time-series cardinality, use
        ``**attrs`` for free-form context instead.
    record:
        ``False`` skips the histogram (the span still times itself and
        still writes a trace line).
    attrs:
        Free-form attributes copied into the JSON trace line only.
    """
    return Span(name, attrs, labels, record)


def set_trace_writer(target: str | Path | IO[str] | None) -> None:
    """Install (or clear, with ``None``) the process JSON-lines trace sink.

    *target* may be a path — opened for append, closed when replaced — or
    any open text file object (kept open; the caller owns it).
    """
    global _writer, _writer_owned
    with _writer_lock:
        if _writer is not None and _writer_owned:
            try:
                _writer.close()
            except OSError:
                pass
        if target is None:
            _writer, _writer_owned = None, False
        elif isinstance(target, (str, Path)):
            _writer = open(target, "a", encoding="utf-8")
            _writer_owned = True
        else:
            _writer, _writer_owned = target, False


@contextmanager
def trace_to(target: str | Path | IO[str]) -> Iterator[None]:
    """Scope a trace writer: installed on entry, restored on exit.

    The previously installed writer (if any) is left untouched and comes
    back when the context closes.
    """
    global _writer, _writer_owned
    own = isinstance(target, (str, Path))
    handle = open(target, "a", encoding="utf-8") if own else target
    with _writer_lock:
        previous, previous_owned = _writer, _writer_owned
        _writer, _writer_owned = handle, own
    try:
        yield
    finally:
        with _writer_lock:
            _writer, _writer_owned = previous, previous_owned
        if own:
            try:
                handle.close()
            except OSError:
                pass
