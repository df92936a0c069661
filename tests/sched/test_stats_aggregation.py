"""Cross-process metrics aggregation: the router's worker-registry pulls.

Deterministic tests drive :meth:`ShardedRuntime.pull_worker_stats`
against scripted stats replies (no timing in the arrangement at all) and
against :class:`ThreadShardWorker` (the shared-registry seam the router
must *skip*).  The real multi-process acceptance test — shard-labelled
``kernel_seconds`` bucket counts equal to the sum of each worker
process's own observations — is ``concurrency``-marked at the bottom.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.sched import ShardedRuntime, ThreadShardWorker
from repro.sched.shard_worker import OP_SHUTDOWN, OP_STATS

from tests.sched.test_sharded_runtime import (  # noqa: F401 — fixtures
    MC_KWARGS,
    make_sharded,
    mc_service,
    sharded_model,
)

FAKE_WORKER_PID = os.getpid() + 1_000_000  # never this process


def stub_snapshot(value, *, ts=1.0, family="stub_events_total", labels=None):
    """A minimal structurally-valid snapshot carrying one counter sample."""
    return {
        "version": 1,
        "ts": ts,
        "pid": FAKE_WORKER_PID,
        "families": {
            family: {
                "kind": "counter",
                "help": "scripted",
                "labelnames": sorted(labels or ()),
                "samples": [{"labels": dict(labels or {}), "value": value}],
            }
        },
    }


class _ScriptedStatsWorker:
    """Answers the ready handshake, then stats ops from a per-shard script.

    ``script[shard]`` is a list of reply fragments; each stats op pops the
    next one and merges it over ``{"id": ..., "pid": FAKE_WORKER_PID}``.
    Anything else (shutdown, EOF) ends the loop.
    """

    scripts: dict[int, list[dict]] = {}

    def __init__(self, path, config):
        self.shard = config["shard"]
        self.conn, child = multiprocessing.Pipe(duplex=True)

        def _run():
            child.send({"op": "ready", "shard": self.shard})
            try:
                while True:
                    message = child.recv()
                    if not isinstance(message, dict):
                        break
                    if message.get("op") == OP_SHUTDOWN:
                        break
                    if message.get("op") == OP_STATS:
                        reply = {
                            "id": message.get("id"),
                            "pid": FAKE_WORKER_PID,
                        }
                        reply.update(self.scripts[self.shard].pop(0))
                        child.send(reply)
            except (EOFError, OSError):
                pass
            finally:
                try:
                    child.close()
                except OSError:
                    pass

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()

    @property
    def alive(self):
        return self.thread.is_alive()

    def shutdown(self, timeout=5.0):
        try:
            self.conn.send({"op": OP_SHUTDOWN})
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.thread.join(timeout)
        try:
            self.conn.close()
        except OSError:
            pass


@pytest.fixture
def scripted(make_sharded):
    """Build a started 2-shard runtime whose stats replies are scripted."""

    def factory(scripts):
        _ScriptedStatsWorker.scripts = {
            shard: list(replies) for shard, replies in scripts.items()
        }
        runtime = make_sharded(2, worker_factory=_ScriptedStatsWorker)
        runtime.start()
        return runtime

    yield factory
    _ScriptedStatsWorker.scripts = {}


def shard_samples(snapshot, family):
    """``{shard label: value}`` of one family's samples in *snapshot*."""
    entry = snapshot["families"].get(family, {"samples": []})
    return {
        s["labels"].get("shard"): s["value"] for s in entry["samples"]
    }


class TestDeltaFolding:
    def test_deltas_fold_under_shard_label(self, scripted, metrics_delta):
        runtime = scripted({
            0: [{"snapshot": stub_snapshot(5.0, ts=1.0)},
                {"snapshot": stub_snapshot(8.0, ts=2.0)}],
            1: [{"snapshot": stub_snapshot(2.0, ts=1.0)},
                {"snapshot": stub_snapshot(2.0, ts=2.0)}],
        })
        assert runtime.pull_worker_stats(timeout=5.0) == 2
        assert runtime.pull_worker_stats(timeout=5.0) == 2
        merged = runtime.merged_snapshot(pull=False)
        # second pull folded only the +3 growth: 8 total, never 5 + 8
        assert shard_samples(merged, "stub_events_total") == {
            "0": 8.0, "1": 2.0,
        }
        assert metrics_delta()["counters"][
            'shard_stats_pulls_total{outcome="ok"}'
        ] == 4

    def test_worker_restart_readds_instead_of_double_counting(self, scripted):
        runtime = scripted({
            0: [{"snapshot": stub_snapshot(5.0, ts=1.0)},
                # shrunk: the worker restarted and re-counted from zero
                {"snapshot": stub_snapshot(2.0, ts=2.0)}],
            1: [{"snapshot": stub_snapshot(0.0, ts=1.0)},
                {"snapshot": stub_snapshot(0.0, ts=2.0)}],
        })
        runtime.pull_worker_stats(timeout=5.0)
        runtime.pull_worker_stats(timeout=5.0)
        merged = runtime.merged_snapshot(pull=False)
        # 5 before the restart + 2 after it: the work both lives did
        assert shard_samples(merged, "stub_events_total")["0"] == 7.0

    def test_error_reply_counted_not_folded(self, scripted, metrics_delta):
        runtime = scripted({
            0: [{"error": "boom", "kind": "RuntimeError"}],
            1: [{"snapshot": stub_snapshot(4.0)}],
        })
        assert runtime.pull_worker_stats(timeout=5.0) == 1
        merged = runtime.merged_snapshot(pull=False)
        assert shard_samples(merged, "stub_events_total") == {"1": 4.0}
        delta = metrics_delta()["counters"]
        assert delta['shard_stats_pulls_total{outcome="error"}'] == 1
        assert delta['shard_stats_pulls_total{outcome="ok"}'] == 1

    def test_label_collision_leaves_accumulator_intact(
        self, scripted, metrics_delta
    ):
        poisoned = stub_snapshot(
            3.0, family="poisoned_total", labels={"shard": "9"}
        )
        runtime = scripted({
            0: [{"snapshot": stub_snapshot(1.0)},
                {"snapshot": poisoned}],
            1: [{"snapshot": stub_snapshot(2.0)},
                {"snapshot": stub_snapshot(6.0, ts=2.0)}],
        })
        assert runtime.pull_worker_stats(timeout=5.0) == 2
        # shard 0's second snapshot carries a conflicting shard label:
        # that fold fails atomically, shard 1's still lands
        assert runtime.pull_worker_stats(timeout=5.0) == 1
        merged = runtime.merged_snapshot(pull=False)
        assert "poisoned_total" not in merged["families"]
        assert shard_samples(merged, "stub_events_total") == {
            "0": 1.0, "1": 6.0,
        }
        assert metrics_delta()["counters"][
            'shard_stats_pulls_total{outcome="error"}'
        ] == 1

    def test_health_reports_aggregation_state(self, scripted):
        runtime = scripted({
            0: [{"snapshot": stub_snapshot(1.0)}],
            1: [{"snapshot": stub_snapshot(1.0)}],
        })
        payload = runtime.health()
        # stats_interval=None: health() must not pull implicitly
        assert payload["metrics_aggregation"] == {
            "interval_s": None, "shards_polled": 0,
        }
        runtime.pull_worker_stats(timeout=5.0)
        payload = runtime.health()
        assert payload["metrics_aggregation"]["shards_polled"] == 2


class TestThreadWorkerSkip:
    def test_same_pid_snapshot_skipped(self, make_sharded, metrics_delta):
        """A thread-hosted worker shares this registry — folding it would
        count every sample twice, so the router must skip by pid."""
        runtime = make_sharded(2)  # ThreadShardWorker
        runtime.start()
        assert runtime.pull_worker_stats(timeout=5.0) == 0
        with runtime._stats_lock:
            assert runtime._worker_acc["families"] == {}
        delta = metrics_delta()["counters"]
        assert delta['shard_stats_pulls_total{outcome="skipped"}'] == 2
        assert 'shard_stats_pulls_total{outcome="ok"}' not in delta

    def test_merged_snapshot_still_carries_router_series(self, make_sharded):
        runtime = make_sharded(2)
        runtime.start()
        runtime.pull_worker_stats(timeout=5.0)
        merged = runtime.merged_snapshot(pull=False)
        assert "serve_requests_total" in merged["families"]


@pytest.mark.concurrency
class TestMultiprocessAggregation:
    def test_worker_kernel_counts_fold_exactly(
        self, mc_service, sharded_model, nodes, metrics_delta
    ):
        """Acceptance: aggregated ``kernel_seconds{shard=...}`` bucket
        counts equal the sum of each worker process's own observations.

        Every batch over all nodes scatters to both shards, so after N
        batches each forked worker has observed exactly N kernel calls —
        numbers the router can only know by actually pulling and folding
        worker registries (its own process never ran those kernels)."""
        *_, parent, plans = sharded_model
        n_batches = 4
        runtime = ShardedRuntime(
            mc_service(),
            parent,
            plans[2],
            stats_interval=3600.0,  # explicit pulls only, but drain pulls
            max_wait_us=0.0,
        )
        try:
            futures = [
                runtime.submit_batch(source, list(nodes))
                for source in nodes[:n_batches]
            ]
            for future in futures:
                assert len(future.result(timeout=30).values) > 0
        finally:
            runtime.close(drain=True, timeout=30)
        merged = runtime.merged_snapshot(pull=False)
        entry = merged["families"]["kernel_seconds"]
        by_shard = {}
        for sample in entry["samples"]:
            shard = sample["labels"].get("shard")
            if shard is not None:
                by_shard[shard] = sample
        assert set(by_shard) == {"0", "1"}
        for sample in by_shard.values():
            assert sample["count"] == n_batches
            assert sum(sample["counts"]) == sample["count"]
        # the router's own registry never saw those kernels: without the
        # fold the aggregated view would miss all worker work
        delta = metrics_delta()["counters"]
        assert delta['shard_stats_pulls_total{outcome="ok"}'] >= 2

    def test_worker_spans_carry_router_trace_ids(
        self, mc_service, sharded_model, nodes, tmp_path
    ):
        """Every worker-side span of a scatter joins the router's trace."""
        import json

        from repro.obs.trace import trace_to

        *_, parent, plans = sharded_model
        trace_path = tmp_path / "trace.jsonl"
        runtime = ShardedRuntime(
            mc_service(),
            parent,
            plans[2],
            stats_interval=None,
            timings=True,
            max_wait_us=0.0,
        )
        try:
            with trace_to(trace_path):
                future = runtime.submit_batch(nodes[0], list(nodes))
                response = future.result(timeout=30)
        finally:
            runtime.close(drain=True, timeout=30)
        assert response.trace_id
        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        dispatch = [l for l in lines if l["span"] == "sched.dispatch"]
        assert dispatch and all(
            l["trace_id"] == response.trace_id for l in dispatch
        )
        # worker processes write to their own trace sinks (another file
        # descriptor), but the router-side spans of this request all
        # carry the admission-time id
        for line in lines:
            if line.get("trace_id") and line["span"].startswith("sched."):
                assert line["trace_id"] == response.trace_id
