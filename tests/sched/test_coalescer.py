"""Unit tests for the coalescer's dispatch planning (pure, no threads)."""

from repro.sched import DispatchGroup, ScheduledRequest, plan_groups
from repro.sched.request import KIND_BATCH, KIND_SCORE, KIND_TOPK


def score(seq: int, u: str, v: str = "x") -> ScheduledRequest:
    return ScheduledRequest(kind=KIND_SCORE, u=u, v=v, seq=seq, enqueued_at=0.0)


def batch(seq: int, u: str) -> ScheduledRequest:
    return ScheduledRequest(
        kind=KIND_BATCH, u=u, candidates=("x", "y"), seq=seq, enqueued_at=0.0
    )


def topk(seq: int, u: str) -> ScheduledRequest:
    return ScheduledRequest(kind=KIND_TOPK, u=u, k=3, seq=seq, enqueued_at=0.0)


class TestPlanGroups:
    def test_same_source_scores_merge(self):
        groups = plan_groups([score(1, "a", "p"), score(2, "a", "q")])
        assert len(groups) == 1
        assert groups[0].kind == KIND_SCORE
        assert [r.seq for r in groups[0].requests] == [1, 2]

    def test_all_scores_merge_whatever_their_source(self):
        # one pair group per micro-batch: sources and interleaving are moot
        groups = plan_groups([score(1, "a"), score(2, "b"), score(3, "a")])
        assert len(groups) == 1
        assert [(r.u, r.seq) for r in groups[0].requests] == [
            ("a", 1), ("b", 2), ("a", 3),
        ]

    def test_batch_and_topk_never_merge(self):
        groups = plan_groups([batch(1, "a"), batch(2, "a"), topk(3, "a")])
        assert len(groups) == 3
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_groups_ordered_by_first_seq(self):
        groups = plan_groups(
            [score(5, "b"), batch(3, "a"), score(2, "a"), topk(7, "b")]
        )
        assert [(g.kind, g.first_seq) for g in groups] == [
            (KIND_SCORE, 2), (KIND_BATCH, 3), (KIND_TOPK, 7),
        ]
        assert [r.seq for r in groups[0].requests] == [2, 5]

    def test_plan_is_deterministic_under_input_permutation(self):
        requests = [score(1, "a"), score(2, "b"), score(3, "a"), topk(4, "a")]
        forward = plan_groups(requests)
        backward = plan_groups(list(reversed(requests)))
        key = lambda gs: [(g.kind, [r.seq for r in g.requests]) for g in gs]
        assert key(forward) == key(backward)

    def test_empty_plan(self):
        assert plan_groups([]) == []

    def test_group_len_and_first_seq(self):
        group = DispatchGroup(KIND_SCORE, [score(3, "a"), score(4, "b")])
        assert len(group) == 2
        assert group.first_seq == 3
