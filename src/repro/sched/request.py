"""The unit of scheduling: one logical request with its future.

A :class:`ScheduledRequest` is what admission control accepts, the queue
holds, the coalescer groups and a worker answers.  It carries everything
needed to serve the request far from the submitting thread:

* the query itself (*kind* + operands),
* the **absolute deadline** in the runtime's clock domain (computed once
  at submission so queue time counts against the budget),
* the admission timestamp (queue-wait accounting),
* a :class:`concurrent.futures.Future` the submitter holds the other end
  of,
* a monotonically increasing *seq* that makes every schedule decision
  deterministic (FIFO pop order, coalescing group order, tie-breaks), and
* the router-assigned ``trace_id`` stamped at admission — the id every
  span and structured log record emitted for this request carries, all
  the way into the shard worker processes.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Sequence

from repro.hin.graph import Node

#: The request kinds the scheduler understands.
KIND_SCORE = "score"
KIND_BATCH = "batch"
KIND_TOPK = "topk"


@dataclass(slots=True)
class ScheduledRequest:
    """One admitted query plus its scheduling envelope."""

    kind: str
    u: Node
    seq: int
    enqueued_at: float
    v: Node | None = None
    candidates: tuple[Node, ...] | None = None
    k: int | None = None
    deadline: float | None = None       # absolute, runtime clock domain
    deadline_ms: float | None = None    # original budget (error messages)
    trace_id: str | None = None         # assigned at admission
    dispatched_at: float | None = None  # set when a worker pops the batch
    future: Future = field(default_factory=Future)

    def expired(self, now: float) -> bool:
        """Whether the deadline passed before *now* (no deadline: never)."""
        return self.deadline is not None and now > self.deadline


@dataclass(slots=True)
class DispatchGroup:
    """One engine call's worth of coalesced requests.

    For the ``score`` group, ``requests[i]`` is answered by pair *i* of
    one per-pair-source ``score_positions`` call; other kinds are
    singleton groups executed as-is.  Groups preserve admission order:
    requests within a group are sorted by *seq*, and groups are
    dispatched in order of their earliest member.
    """

    kind: str
    requests: list[ScheduledRequest]

    @property
    def first_seq(self) -> int:
        return self.requests[0].seq

    def __len__(self) -> int:
        return len(self.requests)


def plan_groups(requests: Sequence[ScheduledRequest]) -> list[DispatchGroup]:
    """Partition one micro-batch into dispatch groups, deterministically.

    Every single-pair request merges into one ``score`` group, whatever
    its source and its place in the batch: each pair's score reads only
    its own walk rows, so one per-pair-source ``score_positions`` call
    answers them all bit-identically to scalar ``score``.  ``batch`` and ``topk`` requests
    are already vectorised and stay singleton groups.  The output order
    is by each group's first admission *seq*, so the same set of requests
    always produces the same dispatch plan regardless of which worker
    picked them up.
    """
    pairs: DispatchGroup | None = None
    groups: list[DispatchGroup] = []
    for request in sorted(requests, key=lambda r: r.seq):
        if request.kind != KIND_SCORE:
            groups.append(DispatchGroup(request.kind, [request]))
        elif pairs is None:
            pairs = DispatchGroup(KIND_SCORE, [request])
            groups.append(pairs)
        else:
            pairs.requests.append(request)
    return groups
