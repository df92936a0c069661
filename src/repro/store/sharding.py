"""Node-range sharding of persisted MC engines — the store half.

A *shard plan* cuts the node axis ``[0, n)`` into contiguous ranges.
Shards need no artifacts of their own: every shard worker opens the one
parent index read-only (``QueryEngine.open``), so the router and all
workers share its memory-mapped pages through the OS page cache, and
each worker answers only for candidates inside its range (see
:mod:`repro.sched.shard_worker`).

Only ``method="mc"`` artifacts shard — the iterative engine is a dense
``(n, n)`` score table with no per-node working set to split.
:func:`validate_shard_set` is the one start-up check.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.store.artifacts import StoredArtifact, StoreError


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous node-range partition of ``[0, num_nodes)``.

    Boundaries are half-open ``(lo, hi)`` ranges, ascending, gapless and
    non-empty — validated at construction, so every node position has
    exactly one :meth:`owner`.
    """

    num_nodes: int
    boundaries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise StoreError(f"shard plan needs num_nodes >= 1, got {self.num_nodes}")
        if not self.boundaries:
            raise StoreError("shard plan needs at least one shard")
        cursor = 0
        for index, (lo, hi) in enumerate(self.boundaries):
            if lo != cursor:
                raise StoreError(
                    f"shard {index} starts at {lo}, expected {cursor} — "
                    "ranges must be contiguous and ascending"
                )
            if hi <= lo:
                raise StoreError(f"shard {index} range [{lo}, {hi}) is empty")
            cursor = hi
        if cursor != self.num_nodes:
            raise StoreError(
                f"shard ranges cover [0, {cursor}) but the index has "
                f"{self.num_nodes} nodes"
            )
        # owner() bisects on the range starts; precompute once.
        object.__setattr__(self, "_starts", tuple(lo for lo, _ in self.boundaries))

    @classmethod
    def even(cls, num_nodes: int, num_shards: int) -> "ShardPlan":
        """Near-equal contiguous split (first ``n % s`` shards one longer)."""
        if num_shards < 1:
            raise StoreError(f"num_shards must be >= 1, got {num_shards}")
        if num_shards > num_nodes:
            raise StoreError(
                f"cannot cut {num_nodes} nodes into {num_shards} non-empty shards"
            )
        base, extra = divmod(num_nodes, num_shards)
        boundaries = []
        lo = 0
        for index in range(num_shards):
            hi = lo + base + (1 if index < extra else 0)
            boundaries.append((lo, hi))
            lo = hi
        return cls(num_nodes, tuple(boundaries))

    @classmethod
    def from_boundaries(cls, num_nodes: int, boundaries) -> "ShardPlan":
        """Build a (possibly uneven) plan from explicit ``(lo, hi)`` pairs."""
        return cls(num_nodes, tuple((int(lo), int(hi)) for lo, hi in boundaries))

    @property
    def num_shards(self) -> int:
        return len(self.boundaries)

    def owner(self, position: int) -> int:
        """Index of the shard whose range contains node *position*."""
        if not 0 <= position < self.num_nodes:
            raise StoreError(
                f"node position {position} outside [0, {self.num_nodes})"
            )
        return bisect_right(self._starts, position) - 1


def validate_shard_set(index: StoredArtifact, plan: ShardPlan) -> None:
    """Raise :class:`StoreError` unless *plan* can serve *index* by range.

    The index must be a ``method="mc"`` artifact with a walk tensor, and
    the plan must cover exactly its node axis.
    """
    params = index.meta.get("params") if isinstance(index.meta, dict) else None
    method = params.get("method") if isinstance(params, dict) else None
    if method != "mc":
        raise StoreError(
            f"only method='mc' artifacts shard by node range, got "
            f"method={method!r} — the iterative score table has no "
            "per-node working set to split"
        )
    walks = index.arrays.get("walks")
    if walks is None:
        raise StoreError(f"artifact at {index.path} stores no walk tensor")
    if plan.num_nodes != walks.shape[0]:
        raise StoreError(
            f"shard plan covers {plan.num_nodes} nodes but the index at "
            f"{index.path} has {walks.shape[0]}"
        )
