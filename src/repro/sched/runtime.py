"""The concurrent serving runtime: queue -> coalescer -> worker pool.

:class:`ServingRuntime` is the scheduling layer between a transport (the
``repro serve`` line protocol, a test harness, a future RPC front) and
the resilient :class:`~repro.serve.QueryService` stack:

* **admission control** — submissions past the queue-depth watermark are
  rejected immediately with :class:`~repro.sched.errors.Overloaded`
  (counted in ``serve_requests_total{outcome="rejected"}``); admitted
  requests whose deadline lapses while queued are answered with
  :class:`~repro.serve.DeadlineExceeded` at dispatch — every admitted
  request gets exactly one answer, never a silent drop;
* **dynamic micro-batching** — a worker popping the queue lingers up to
  ``max_wait_us`` for the batch to fill to ``max_batch``; every
  single-pair request in the batch, whatever its source, is merged into
  **one** per-pair-source ``score_positions`` call (bit-identical to
  scalar ``score`` — the guarantee this scheduler is built on), and
  ``BATCH``/``TOPK`` requests ride the same micro-batch through the
  vectorised paths back to back.  Each request's nodes are resolved to
  positions once, here; the engine takes positions from there on;
* **workers** — plain threads by default (the numpy gathers under
  ``score_batch`` release the GIL) behind the
  :class:`~repro.sched.pool.WorkerPool` factory seam.

Resilience still comes from PR 4: every dispatch group goes through
``manager.acquire()`` (retries, circuit breaker, degraded fallback), and
every logical response carries the ``degraded`` flag and retry count of
the acquisition that answered it.

The submission API is future-based (``submit_score`` et al. return
:class:`concurrent.futures.Future` resolving to the same
``QueryResponse``/``BatchResponse``/``TopKResponse`` objects
:class:`QueryService` returns); ``score``/``batch``/``top_k`` are the
blocking conveniences.  Scores are **bit-identical** to calling the
engine sequentially, whatever the interleaving — property-tested in
``tests/properties/test_coalescer_identity.py``.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Sequence

import numpy as np

from repro.errors import NodeNotFoundError
from repro.hin.graph import Node
from repro.obs.logging import get_logger, log_event
from repro.obs.registry import is_enabled
from repro.obs.trace import new_trace_id, span, trace_scope
from repro.sched.errors import Overloaded, RuntimeClosed
from repro.sched.metrics import (
    BATCH_SIZE,
    COALESCED,
    EXPIRED,
    QUEUE_WAIT,
    WORKER_BUSY_SECONDS,
    WORKERS_BUSY,
)
from repro.sched.pool import ThreadFactory, WorkerPool
from repro.sched.queue import AdmissionQueue
from repro.sched.request import (
    KIND_BATCH,
    KIND_SCORE,
    KIND_TOPK,
    DispatchGroup,
    ScheduledRequest,
    plan_groups,
)
from repro.serve.errors import DeadlineExceeded
from repro.serve.metrics import DEGRADED_QUERIES, SERVE_REQUESTS
from repro.serve.service import (
    BatchResponse,
    QueryResponse,
    QueryService,
    TopKResponse,
)

_LOG = get_logger("sched.runtime")
_UNSET = object()


def _deliver(future: Future, result=None, exc: BaseException | None = None) -> None:
    """Complete *future*, tolerating a submitter-side cancel."""
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)
    except InvalidStateError:  # pragma: no cover — cancelled by submitter
        pass


class ServingRuntime:
    """Concurrent scheduler over one :class:`QueryService`.

    Parameters
    ----------
    service:
        The resilient serving stack to dispatch through.
    workers:
        Worker threads pulling micro-batches (>= 1).
    max_batch:
        Most logical requests one worker dispatches per wake-up.
    max_wait_us:
        How long (microseconds) a leader worker lingers for its batch to
        fill once at least one request is in hand.  ``0`` dispatches
        whatever is immediately available — the deterministic-test mode.
    queue_depth:
        Admission watermark: submissions while this many requests are
        queued are rejected with :class:`Overloaded`.
    clock:
        Injectable time source for deadlines, queue-wait accounting and
        the batching window (defaults to the service's clock, so one
        ``VirtualClock`` can drive breaker, deadlines and scheduler).
    autostart:
        Start the workers in the constructor.  Pass ``False`` to submit
        against a cold queue first (deterministic admission tests), then
        call :meth:`start`.
    thread_factory:
        Forwarded to :class:`WorkerPool` — the executor seam.
    timings:
        Annotate every response with its router-assigned ``trace_id``
        and a ``{queue_us, scatter_us, kernel_us, merge_us}`` latency
        breakdown (the ``repro serve --timings`` flag).  Off by default
        so the protocol output stays byte-stable.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        workers: int = 1,
        max_batch: int = 32,
        max_wait_us: float = 0.0,
        queue_depth: int = 1024,
        clock: Callable[[], float] | None = None,
        autostart: bool = True,
        thread_factory: ThreadFactory | None = None,
        timings: bool = False,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        if max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {max_wait_us!r}")
        self.service = service
        self.max_batch = max_batch
        self.max_wait_us = max_wait_us
        self._max_wait = max_wait_us / 1e6
        self._clock = clock if clock is not None else service._clock
        if self._clock is None:  # pragma: no cover — service always has one
            self._clock = time.monotonic
        self.timings = bool(timings)
        self._queue = AdmissionQueue(queue_depth, self._clock)
        self._pool = WorkerPool(
            workers, self._worker_loop, thread_factory=thread_factory
        )
        self._seq = 0
        self._closed = False
        # pre-resolved metric children, mirroring QueryService's rationale
        self._count_ok = SERVE_REQUESTS.labels(outcome="ok")
        self._count_degraded = SERVE_REQUESTS.labels(outcome="degraded")
        self._count_deadline = SERVE_REQUESTS.labels(outcome="deadline_exceeded")
        self._count_error = SERVE_REQUESTS.labels(outcome="error")
        self._count_rejected = SERVE_REQUESTS.labels(outcome="rejected")
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._closed:
            raise RuntimeClosed("cannot start a closed runtime")
        self._pool.start()

    def close(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop admission and shut the workers down.

        With ``drain=True`` (the graceful path) every already-admitted
        request is dispatched before the workers exit — by the workers
        themselves, or inline on this thread when the pool was never
        started.  With ``drain=False`` queued requests are completed
        exceptionally with :class:`RuntimeClosed`.  Returns whether every
        worker exited within *timeout*.
        """
        if self._closed:
            return self._pool.join(0.0) if self._pool.started else True
        self._closed = True
        self._queue.close()
        if not drain:
            for request in self._queue.drain_now():
                if is_enabled():
                    self._count_rejected.inc()
                _deliver(
                    request.future,
                    exc=RuntimeClosed("request dropped: runtime closed without drain"),
                )
        elif not self._pool.started:
            # no workers were ever spawned: drain inline so the graceful
            # contract (every admitted request is answered) still holds
            while True:
                batch = self._queue.take(self.max_batch, 0.0)
                if batch is None:
                    break
                self._dispatch(batch)
        joined = self._pool.join(timeout) if self._pool.started else True
        log_event(
            _LOG, "sched.closed",
            drained=drain, workers_exited=joined,
        )
        return joined

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown: finish everything admitted, then stop."""
        return self.close(drain=True, timeout=timeout)

    def __enter__(self) -> "ServingRuntime":
        self.start()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close(drain=True)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queue_depth(self) -> int:
        """Requests currently admitted and waiting."""
        return len(self._queue)

    def health(self) -> dict:
        """The service's health snapshot plus the scheduler's view."""
        payload = self.service.health()
        payload.update(
            workers=self._pool.num_workers,
            workers_alive=self._pool.alive,
            queue_depth=len(self._queue),
            queue_watermark=self._queue.watermark,
            max_batch=self.max_batch,
            max_wait_us=self.max_wait_us,
            runtime_closed=self._closed,
        )
        return payload

    # ------------------------------------------------------------------
    # Live mutations
    # ------------------------------------------------------------------
    def apply_mutations(self, mutations) -> dict:
        """Synchronously apply *mutations* through the manager's swap path.

        Runs on the caller's thread (the serve protocol applies mutations
        in submission order, so queries submitted after a mutation line are
        guaranteed to see the new generation); queries already in flight
        keep the acquisition they grabbed and finish against the old
        generation — every request is answered exactly once, from one
        consistent generation.
        """
        if self._closed:
            raise RuntimeClosed("runtime is closed")
        return self.service.manager.apply_mutations(mutations)

    # ------------------------------------------------------------------
    # Submission (admission control happens here)
    # ------------------------------------------------------------------
    def _admit(self, request: ScheduledRequest) -> Future:
        try:
            self._queue.offer(request)
        except (Overloaded, RuntimeClosed):
            if is_enabled():
                self._count_rejected.inc()
            raise
        return request.future

    def _new_request(self, kind: str, u: Node, deadline_ms, **fields) -> ScheduledRequest:
        if deadline_ms is _UNSET:
            deadline_ms = self.service.deadline_ms
        now = self._clock()
        deadline = None if deadline_ms is None else now + deadline_ms / 1000.0
        self._seq += 1
        return ScheduledRequest(
            kind=kind, u=u, seq=self._seq, enqueued_at=now,
            deadline=deadline, deadline_ms=deadline_ms,
            trace_id=new_trace_id(), **fields,
        )

    def submit_score(self, u: Node, v: Node, *, deadline_ms=_UNSET) -> Future:
        """Admit one pair query; resolves to a :class:`QueryResponse`."""
        return self._admit(self._new_request(KIND_SCORE, u, deadline_ms, v=v))

    def submit_batch(
        self, u: Node, candidates: Sequence[Node], *, deadline_ms=_UNSET
    ) -> Future:
        """Admit one single-source batch; resolves to a :class:`BatchResponse`."""
        return self._admit(self._new_request(
            KIND_BATCH, u, deadline_ms, candidates=tuple(candidates),
        ))

    def submit_topk(
        self,
        u: Node,
        k: int,
        candidates: Sequence[Node] | None = None,
        *,
        deadline_ms=_UNSET,
    ) -> Future:
        """Admit one top-k search; resolves to a :class:`TopKResponse`."""
        return self._admit(self._new_request(
            KIND_TOPK, u, deadline_ms,
            candidates=tuple(candidates) if candidates is not None else None,
            k=k,
        ))

    # Blocking conveniences (submit + wait) -----------------------------
    def score(self, u: Node, v: Node, *, deadline_ms=_UNSET) -> QueryResponse:
        return self.submit_score(u, v, deadline_ms=deadline_ms).result()

    def batch(
        self, u: Node, candidates: Sequence[Node], *, deadline_ms=_UNSET
    ) -> BatchResponse:
        return self.submit_batch(u, candidates, deadline_ms=deadline_ms).result()

    def top_k(
        self,
        u: Node,
        k: int,
        candidates: Sequence[Node] | None = None,
        *,
        deadline_ms=_UNSET,
    ) -> TopKResponse:
        return self.submit_topk(
            u, k, candidates, deadline_ms=deadline_ms,
        ).result()

    # ------------------------------------------------------------------
    # Dispatch (runs on workers)
    # ------------------------------------------------------------------
    def _worker_loop(self, _index: int) -> None:
        queue = self._queue
        while True:
            batch = queue.take(self.max_batch, self._max_wait)
            if batch is None:
                return
            recording = is_enabled()
            if recording:
                WORKERS_BUSY.inc()
            started = self._clock()
            try:
                self._dispatch(batch)
            finally:
                ended = self._clock()
                if recording:
                    WORKERS_BUSY.dec()
                    WORKER_BUSY_SECONDS.inc(max(0.0, ended - started))

    def _dispatch(self, batch: list[ScheduledRequest]) -> None:
        """Answer one popped micro-batch; never lets an exception escape."""
        now = self._clock()
        recording = is_enabled()
        if recording:
            BATCH_SIZE.observe(len(batch))
            QUEUE_WAIT.observe_many(
                [max(0.0, now - request.enqueued_at) for request in batch]
            )
        live: list[ScheduledRequest] = []
        for request in batch:
            request.dispatched_at = now
            if request.expired(now):
                # deadline-aware drop: answered, counted, never silent
                if recording:
                    EXPIRED.inc()
                self._finish_deadline(request, now)
            else:
                live.append(request)
        for group in plan_groups(live):
            try:
                # One group is one engine/scatter call, so it runs under
                # ONE trace: the group leader's.  Coalesced followers'
                # responses point at the same tree — the scatter that
                # actually answered them.
                with trace_scope(group.requests[0].trace_id):
                    with span(
                        "sched.dispatch",
                        labels={"kind": group.kind},
                        requests=len(group.requests),
                    ):
                        self._execute_group(group)
            except BaseException as exc:  # noqa: BLE001 — worker must survive
                for request in group.requests:
                    if not request.future.done():
                        self._finish_error(request, exc)

    def _execute_group(self, group: DispatchGroup) -> None:
        acquisition = self.service.manager.acquire()
        engine = acquisition.engine
        position = engine.position_map
        if group.kind == KIND_SCORE:
            self._execute_score_group(group, acquisition, engine, position)
            return
        request = group.requests[0]
        pos_u = position.get(request.u)
        if pos_u is None:
            self._finish_error(request, NodeNotFoundError(request.u))
        elif group.kind == KIND_BATCH:
            self._execute_batch(request, acquisition, engine, pos_u)
        elif group.kind == KIND_TOPK:
            self._execute_topk(request, acquisition, engine, pos_u)
        else:  # pragma: no cover — submission API cannot build other kinds
            raise ValueError(f"unknown request kind {group.kind!r}")

    def _execute_score_group(self, group, acquisition, engine, position) -> None:
        live: list[ScheduledRequest] = []
        sources: list[int] = []
        targets: list[int] = []
        for request in group.requests:
            # an unknown node fails only its own request
            pos_u = position.get(request.u)
            pos_v = position.get(request.v)
            if pos_u is None:
                self._finish_error(request, NodeNotFoundError(request.u))
            elif pos_v is None:
                self._finish_error(request, NodeNotFoundError(request.v))
            else:
                live.append(request)
                sources.append(pos_u)
                targets.append(pos_v)
        if not live:
            return
        kernel_started = self._clock() if self.timings else 0.0
        # one vectorised call answers every pair of the micro-batch,
        # bit-identical to per-pair score()
        values = engine.score_positions(
            np.asarray(sources, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
        )
        if len(live) > 1 and is_enabled():
            COALESCED.inc(len(live))
        end = self._clock()
        kernel_us = (end - kernel_started) * 1e6 if self.timings else 0.0
        trace_id = group.requests[0].trace_id
        method = engine.method
        degraded = acquisition.degraded
        answered = 0
        for request, value in zip(live, values.tolist()):
            # outcome counters are bumped once per group below, so the
            # per-request loop stays free of registry traffic
            elapsed_ms = self._finalize(request, end, degraded, count=False)
            if elapsed_ms is None:
                continue
            answered += 1
            _deliver(request.future, self._annotate(QueryResponse(
                request.u, request.v, value, degraded,
                acquisition.retries, method, elapsed_ms,
            ), request, trace_id, kernel_us=kernel_us))
        if answered and is_enabled():
            if degraded:
                DEGRADED_QUERIES.inc(answered)
                self._count_degraded.inc(answered)
            else:
                self._count_ok.inc(answered)

    def _execute_batch(self, request, acquisition, engine, pos_u) -> None:
        # an unknown candidate raises NodeNotFoundError, answered by _dispatch
        positions = engine.node_positions(request.candidates)
        kernel_started = self._clock() if self.timings else 0.0
        values = engine.score_positions(pos_u, positions)
        end = self._clock()
        elapsed_ms = self._finalize(request, end, acquisition.degraded)
        if elapsed_ms is None:
            return
        _deliver(request.future, self._annotate(BatchResponse(
            u=request.u, candidates=request.candidates, values=values,
            degraded=acquisition.degraded, retries=acquisition.retries,
            method=engine.method, elapsed_ms=elapsed_ms,
        ), request, kernel_us=(end - kernel_started) * 1e6 if self.timings else 0.0))

    def _execute_topk(self, request, acquisition, engine, pos_u) -> None:
        positions = None
        if request.candidates is not None:
            positions = engine.node_positions(request.candidates)
        kernel_started = self._clock() if self.timings else 0.0
        nodes = engine.nodes
        results = tuple(
            (nodes[p], value)
            for p, value in engine.top_k_positions(pos_u, request.k, positions)
        )
        end = self._clock()
        elapsed_ms = self._finalize(request, end, acquisition.degraded)
        if elapsed_ms is None:
            return
        _deliver(request.future, self._annotate(TopKResponse(
            u=request.u, k=request.k, results=results,
            degraded=acquisition.degraded, retries=acquisition.retries,
            method=engine.method, elapsed_ms=elapsed_ms,
        ), request, kernel_us=(end - kernel_started) * 1e6 if self.timings else 0.0))

    def _annotate(
        self,
        response,
        request: ScheduledRequest,
        trace_id: str | None = None,
        *,
        kernel_us: float = 0.0,
        scatter_us: float = 0.0,
        merge_us: float = 0.0,
    ):
        """Attach trace id + latency breakdown in ``--timings`` mode.

        No-op otherwise, keeping protocol output byte-stable.  *trace_id*
        is the **execution** trace — for a coalesced group the leader's,
        i.e. the dispatch that actually answered this request; it
        defaults to the request's own id for singleton groups.
        """
        if not self.timings:
            return response
        response.trace_id = trace_id if trace_id is not None else request.trace_id
        queue_us = 0.0
        if request.dispatched_at is not None:
            queue_us = max(
                0.0, (request.dispatched_at - request.enqueued_at) * 1e6
            )
        response.timings = {
            "queue_us": queue_us,
            "scatter_us": scatter_us,
            "kernel_us": kernel_us,
            "merge_us": merge_us,
        }
        return response

    # ------------------------------------------------------------------
    # Completion accounting
    # ------------------------------------------------------------------
    def _finalize(
        self,
        request: ScheduledRequest,
        end: float,
        degraded: bool,
        count: bool = True,
    ) -> float | None:
        """Outcome accounting shared by every kind.

        Returns the request's elapsed milliseconds (admission to now,
        queue wait included — the number the deadline is judged against),
        or ``None`` after answering a blown deadline.  *degraded* is the
        acquisition's flag, so the counter always matches the flag the
        response carries even if a rebuild lands mid-batch.  With
        ``count=False`` the ok/degraded counters are left to the caller
        (the coalesced score path bumps them once per group); blown
        deadlines are always counted here.
        """
        elapsed_ms = max(0.0, (end - request.enqueued_at) * 1000.0)
        if request.deadline is not None and end > request.deadline:
            if is_enabled():
                self._count_deadline.inc()
            _deliver(request.future, exc=DeadlineExceeded(
                request.deadline_ms, elapsed_ms,
            ))
            return None
        if count and is_enabled():
            if degraded:
                DEGRADED_QUERIES.inc()
                self._count_degraded.inc()
            else:
                self._count_ok.inc()
        return elapsed_ms

    def _finish_deadline(self, request: ScheduledRequest, now: float) -> None:
        elapsed_ms = max(0.0, (now - request.enqueued_at) * 1000.0)
        if is_enabled():
            self._count_deadline.inc()
        _deliver(request.future, exc=DeadlineExceeded(
            request.deadline_ms, elapsed_ms,
        ))

    def _finish_error(self, request: ScheduledRequest, exc: BaseException) -> None:
        if is_enabled():
            self._count_error.inc()
        _deliver(request.future, exc=exc)

    def __repr__(self) -> str:
        status = "closed" if self._closed else (
            "running" if self._pool.started else "cold"
        )
        return (
            f"ServingRuntime({status}, workers={self._pool.num_workers}, "
            f"queue={len(self._queue)}/{self._queue.watermark}, "
            f"max_batch={self.max_batch}, max_wait_us={self.max_wait_us})"
        )
