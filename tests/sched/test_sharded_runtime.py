"""ShardedRuntime: routing, scatter-gather parity, per-shard isolation.

Deterministic tests drive the worker loop on in-process threads
(:class:`ThreadShardWorker` — the same ``shard_worker_main`` code the
forked workers run) with ``autostart=False`` + ``close(drain=True)``, so
there is no process-spawn or interleaving noise in the arrangement.  The
real multi-process path is exercised by the ``concurrency``-marked tests
at the bottom — the CI multiprocess smoke job runs exactly those.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.api import QueryEngine
from repro.errors import NodeNotFoundError
from repro.obs.registry import get_registry, snapshot_delta
from repro.sched import ServingRuntime, ShardedRuntime, ThreadShardWorker
from repro.sched.sharded import ShardFailure
from repro.serve import CircuitBreaker
from repro.store import ShardPlan

from tests.backends.numpy_ref import KERNELS
from tests.sched.conftest import ENGINE_KWARGS

MC_KWARGS = dict(ENGINE_KWARGS, method="mc")


@pytest.fixture(scope="module")
def sharded_model(tmp_path_factory):
    """One mc engine, its saved parent artifact, and 1/2/3-shard plans."""
    from tests.conftest import random_hin_with_measure

    graph, measure = random_hin_with_measure(11, num_entities=8, extra_edges=10)
    engine = QueryEngine(graph, measure, **MC_KWARGS)
    root = tmp_path_factory.mktemp("sharded")
    parent = root / "parent"
    engine.save(parent)
    plans = {
        count: ShardPlan.even(graph.num_nodes, count) for count in (1, 2, 3)
    }
    return graph, measure, engine, parent, plans


@pytest.fixture
def mc_manager(make_manager):
    def factory(**overrides):
        return make_manager(engine_kwargs=dict(MC_KWARGS), **overrides)
    return factory


@pytest.fixture
def make_sharded(mc_manager, sharded_model):
    """Factory for sharded runtimes over the module's parent artifact."""
    *_, parent, plans = sharded_model
    created = []

    def factory(count=3, manager=None, **kwargs):
        if manager is None:
            manager = mc_manager()
        kwargs.setdefault("worker_factory", ThreadShardWorker)
        kwargs.setdefault("autostart", False)
        # no background stats puller, no implicit pulls on health/drain:
        # fault-double workers never answer and must not be waited on
        kwargs.setdefault("stats_interval", None)
        runtime = ShardedRuntime(manager, parent, plans[count], **kwargs)
        created.append(runtime)
        return runtime

    yield factory
    for runtime in created:
        runtime.close(drain=True, timeout=10)


class _DeadWorker:
    """A worker whose pipe is already at EOF — start() must fail."""

    def __init__(self):
        self.conn, child = multiprocessing.Pipe()
        child.close()
        self.alive = False

    def shutdown(self, timeout=5.0):
        try:
            self.conn.close()
        except OSError:
            pass


class _BlackholeWorker:
    """Handshakes, then swallows every request without answering."""

    def __init__(self, path, config):
        self.conn, child = multiprocessing.Pipe()

        def _run():
            child.send({"op": "ready"})
            try:
                while True:
                    child.recv()
            except (EOFError, OSError):
                pass

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()

    @property
    def alive(self):
        return self.thread.is_alive()

    def shutdown(self, timeout=5.0):
        try:
            self.conn.close()
        except OSError:
            pass


def _quarantining_breakers(clock):
    """One failure quarantines; the virtual clock never half-opens."""
    return lambda index: CircuitBreaker(
        name=f"shard-{index}", failure_threshold=1, cooldown=600.0, clock=clock,
    )


class TestScatterGatherParity:
    def test_single_pair_routes_to_owner_and_matches(
        self, make_sharded, sharded_model, nodes
    ):
        _, _, engine, _, _ = sharded_model
        runtime = make_sharded(3)
        u = nodes[0]
        futures = [(v, runtime.submit_score(u, v)) for v in nodes]
        runtime.close(drain=True)
        for v, future in futures:
            response = future.result(timeout=5)
            assert response.value == engine.score(u, v)
            assert not response.degraded
            assert response.method == "mc"

    def test_batch_scatter_is_bit_identical(
        self, make_sharded, sharded_model, nodes
    ):
        _, _, engine, _, _ = sharded_model
        runtime = make_sharded(3)
        u = nodes[1]
        future = runtime.submit_batch(u, nodes)
        runtime.close(drain=True)
        response = future.result(timeout=5)
        np.testing.assert_array_equal(
            np.asarray(response.values), engine.score_batch(u, nodes)
        )
        assert not response.degraded

    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_topk_merge_is_bit_identical(
        self, make_sharded, sharded_model, nodes, k
    ):
        _, _, engine, _, _ = sharded_model
        runtime = make_sharded(3)
        u = nodes[2]
        future = runtime.submit_topk(u, k)
        runtime.close(drain=True)
        assert list(future.result(timeout=5).results) == engine.top_k(u, k)

    def test_topk_with_explicit_candidates(
        self, make_sharded, sharded_model, nodes
    ):
        _, _, engine, _, _ = sharded_model
        runtime = make_sharded(2)
        u, candidates = nodes[0], nodes[3:9]
        future = runtime.submit_topk(u, 4, candidates)
        runtime.close(drain=True)
        assert list(future.result(timeout=5).results) == engine.top_k(
            u, 4, candidates=candidates
        )

    def test_coalesced_same_source_group_scatters_once(
        self, make_sharded, sharded_model, nodes, metrics_delta
    ):
        _, _, engine, _, _ = sharded_model
        runtime = make_sharded(3, max_batch=16)
        u = nodes[0]
        futures = [runtime.submit_score(u, v) for v in nodes[1:6]]
        runtime.close(drain=True)
        for v, future in zip(nodes[1:6], futures):
            assert future.result(timeout=5).value == engine.score(u, v)
        delta = metrics_delta()
        assert delta["counters"]["sched_coalesced_requests_total"] == 5
        # one scatter for the whole coalesced group, not one per request
        assert delta["histograms"]["shard_scatter_fanout_count"] == 1
        assert delta["histograms"]["shard_merge_seconds_count"] == 1

    def test_mixed_source_pairs_scatter_once(
        self, make_sharded, sharded_model, nodes, metrics_delta
    ):
        _, _, engine, _, _ = sharded_model
        runtime = make_sharded(3, max_batch=16)
        pairs = [(nodes[i % 4], nodes[(3 * i + 1) % len(nodes)])
                 for i in range(8)]
        futures = [runtime.submit_score(u, v) for u, v in pairs]
        runtime.close(drain=True)
        for (u, v), future in zip(pairs, futures):
            assert future.result(timeout=5).value == engine.score(u, v)
        delta = metrics_delta()
        assert delta["counters"]["sched_coalesced_requests_total"] == 8
        # four sources, one scatter: each pair goes to its candidate's shard
        assert delta["histograms"]["shard_scatter_fanout_count"] == 1

    def test_unknown_nodes_answered_with_not_found(self, make_sharded, nodes):
        runtime = make_sharded(2)
        f_bad_u = runtime.submit_score("ghost", nodes[0])
        f_bad_v = runtime.submit_score(nodes[0], "ghost")
        f_bad_topk = runtime.submit_topk("ghost", 2)
        runtime.close(drain=True)
        for future in (f_bad_u, f_bad_v, f_bad_topk):
            with pytest.raises(NodeNotFoundError):
                future.result(timeout=5)

    def test_ok_outcomes_counted_per_shard(
        self, make_sharded, nodes, metrics_delta
    ):
        runtime = make_sharded(3)
        future = runtime.submit_batch(nodes[0], nodes)
        runtime.close(drain=True)
        future.result(timeout=5)
        counters = metrics_delta()["counters"]
        for shard in range(3):
            assert counters[
                f'shard_requests_total{{outcome="ok",shard="{shard}"}}'
            ] == 1


class TestBackendParity:
    """Sharded identity must hold for every kernel, not just the oracle.

    One shard worker serves several *distinct* sources in turn, including
    sources outside its own range, and must score each from its own walk
    rows.
    """

    @pytest.mark.parametrize("backend", ["numpy", "blocked"])
    def test_distinct_sources_through_one_slot_stay_bit_identical(
        self, make_sharded, sharded_model, nodes, backend
    ):
        _, _, engine, _, _ = sharded_model
        runtime = make_sharded(2, backend=KERNELS[backend]())
        sources = nodes[:5] + [nodes[0]]  # revisit after other sources
        futures = [(u, runtime.submit_batch(u, nodes)) for u in sources]
        runtime.close(drain=True)
        for u, future in futures:
            np.testing.assert_array_equal(
                np.asarray(future.result(timeout=5).values),
                engine.score_batch(u, nodes),
            )


class TestFaultIsolation:
    def test_one_broken_shard_degrades_only_its_range(
        self, make_sharded, sharded_model, nodes, clock, metrics_delta
    ):
        _, _, engine, _, _ = sharded_model
        broken = 1

        def factory(path, config):
            if config["shard"] == broken:
                return _DeadWorker()
            return ThreadShardWorker(path, config)

        runtime = make_sharded(
            3,
            worker_factory=factory,
            breaker_factory=_quarantining_breakers(clock),
        )
        plan = runtime.plan
        lo, hi = plan.boundaries[broken]
        position = {node: i for i, node in enumerate(sorted_nodes(runtime))}
        futures = [(v, runtime.submit_score(nodes[0], v)) for v in nodes]
        runtime.close(drain=True)
        degraded_ranges = []
        for v, future in futures:
            response = future.result(timeout=5)
            # degraded or not, the fallback engine has the same walks —
            # the value never changes, only the fidelity flag
            assert response.value == engine.score(nodes[0], v)
            degraded_ranges.append((position[v], response.degraded))
        for pos_v, was_degraded in degraded_ranges:
            assert was_degraded == (lo <= pos_v < hi), (pos_v, lo, hi)
        health = runtime.health()
        quarantined = [s["shard"] for s in health["shards"] if s["quarantined"]]
        assert quarantined == [broken]
        delta = metrics_delta()
        assert delta["gauges"][f'shard_quarantined{{shard="{broken}"}}'] == 1.0
        counters = delta["counters"]
        assert any(
            key.startswith("shard_requests_total")
            and f'shard="{broken}"' in key
            and ('outcome="error"' in key or 'outcome="quarantined"' in key)
            for key in counters
        )

    def test_broken_shard_topk_still_merges_exactly(
        self, make_sharded, sharded_model, nodes, clock
    ):
        _, _, engine, _, _ = sharded_model

        def factory(path, config):
            if config["shard"] == 0:
                return _DeadWorker()
            return ThreadShardWorker(path, config)

        runtime = make_sharded(
            3,
            worker_factory=factory,
            breaker_factory=_quarantining_breakers(clock),
        )
        future = runtime.submit_topk(nodes[0], 5)
        runtime.close(drain=True)
        response = future.result(timeout=5)
        assert response.degraded
        # fallback covers the broken range with the same index: the merged
        # list is still exactly the unsharded answer
        assert list(response.results) == engine.top_k(nodes[0], 5)

    def test_shard_timeout_falls_back_degraded(
        self, make_sharded, sharded_model, nodes, clock, metrics_delta
    ):
        _, _, engine, _, _ = sharded_model

        def factory(path, config):
            if config["shard"] == 2:
                return _BlackholeWorker(path, config)
            return ThreadShardWorker(path, config)

        runtime = make_sharded(
            3,
            worker_factory=factory,
            breaker_factory=_quarantining_breakers(clock),
            shard_timeout=0.05,
        )
        future = runtime.submit_batch(nodes[0], nodes)
        runtime.close(drain=True)
        response = future.result(timeout=10)
        assert response.degraded
        np.testing.assert_array_equal(
            np.asarray(response.values), engine.score_batch(nodes[0], nodes)
        )
        counters = metrics_delta()["counters"]
        assert counters['shard_requests_total{outcome="timeout",shard="2"}'] == 1

    def test_request_deadline_exhaustion_does_not_trip_breaker(
        self, make_sharded, sharded_model, nodes, clock, metrics_delta
    ):
        _, _, engine, _, _ = sharded_model

        def factory(path, config):
            if config["shard"] == 1:
                return _BlackholeWorker(path, config)
            return ThreadShardWorker(path, config)

        # shard_timeout (the liveness bound) is far away; only the
        # request's own 50 ms budget can expire in the gather
        runtime = make_sharded(
            2,
            worker_factory=factory,
            breaker_factory=_quarantining_breakers(clock),
            shard_timeout=30.0,
        )
        future = runtime.submit_batch(nodes[0], nodes, deadline_ms=50)
        runtime.close(drain=True)
        response = future.result(timeout=10)
        # the unanswered range still comes back degraded from the fallback
        assert response.degraded
        np.testing.assert_array_equal(
            np.asarray(response.values), engine.score_batch(nodes[0], nodes)
        )
        # but budget exhaustion is not a liveness signal: the one-failure
        # breaker must NOT have quarantined the shard
        assert not any(s["quarantined"] for s in runtime.health()["shards"])
        counters = metrics_delta()["counters"]
        assert counters['shard_requests_total{outcome="deadline",shard="1"}'] == 1
        assert not any(
            'outcome="timeout"' in key
            for key in counters
            if key.startswith("shard_requests_total")
        )

    def test_start_failure_quarantines_instead_of_crashing(
        self, make_sharded, nodes, clock
    ):
        def factory(path, config):
            if config["shard"] == 0:
                return _DeadWorker()
            return ThreadShardWorker(path, config)

        runtime = make_sharded(
            2,
            worker_factory=factory,
            breaker_factory=_quarantining_breakers(clock),
            autostart=True,
            workers=1,
        )
        response = runtime.batch(nodes[0], nodes)
        assert response.degraded
        runtime.close(drain=True)

    def test_submit_to_dead_client_raises_shard_failure(self, sharded_model):
        *_, parent, _ = sharded_model
        from repro.sched.sharded import ShardClient
        client = ShardClient(
            0, 0, 4, parent, {}, lambda path, config: _DeadWorker()
        )
        with pytest.raises(ShardFailure):
            client.start()
        with pytest.raises(ShardFailure):
            client.submit("batch", pos_u=0, positions=[0])


class TestLifecycle:
    def test_health_reports_every_shard(self, make_sharded):
        runtime = make_sharded(3, autostart=True, workers=1)
        health = runtime.health()
        assert [s["shard"] for s in health["shards"]] == [0, 1, 2]
        assert all(s["running"] for s in health["shards"])
        runtime.close(drain=True)
        health = runtime.health()
        assert not any(s["running"] for s in health["shards"])

    def test_close_is_idempotent(self, make_sharded):
        runtime = make_sharded(2, autostart=True, workers=1)
        assert runtime.close(drain=True)
        assert runtime.close(drain=True)

    def test_mismatched_shard_count_rejected(self, mc_manager, sharded_model):
        graph, *_, parent, _ = sharded_model
        from repro.store import StoreError
        started = []

        def factory(path, config):
            started.append(config["shard"])
            return ThreadShardWorker(path, config)

        with pytest.raises(StoreError, match="nodes"):
            ShardedRuntime(
                mc_manager(), parent, ShardPlan.even(graph.num_nodes + 1, 2),
                worker_factory=factory,
            )
        assert started == []


#: The θ of the engine TestOneRequestPath serves: pairs whose ``sem`` falls
#: below it score 0 without a walk.
THETA = 0.3

#: Counters both runtimes must move identically for one session.
_REQUEST_COUNTERS = (
    "serve_requests_total", "degraded_queries_total",
    "sched_coalesced_requests_total",
)


@pytest.fixture(scope="module")
def gated_index(sharded_model, tmp_path_factory):
    """The module's model saved as a θ-gated mc artifact."""
    graph, measure, *_ = sharded_model
    path = tmp_path_factory.mktemp("gated") / "parent"
    QueryEngine(graph, measure, theta=THETA, **MC_KWARGS).save(path)
    return path


def _requests(nodes, measure):
    """One session: pairs from three sources (identity, θ-gated and
    unknown nodes among them), BATCH, and TOPK with and without
    candidates, unknown nodes included."""
    u0, u1, u2 = nodes[:3]
    gated = [
        (u, v) for u in (u0, u1) for v in nodes
        if u != v and measure.similarity(u, v) < THETA
    ]
    assert len(gated) >= 2, "the session must hold theta-gated pairs"
    pairs = (
        [(u0, v) for v in nodes] + [(u1, v) for v in nodes[:4]]
        + [(u2, u2)] + gated[:3] + [("ghost", u0), (u0, "ghost")]
    )
    return (
        [("score", u, v) for u, v in pairs]
        + [("batch", u1, tuple(nodes)), ("batch", u1, (u0, "ghost"))]
        + [
            ("topk", u2, 3, None), ("topk", u2, len(nodes), None),
            ("topk", u0, 4, tuple(nodes[3:9])), ("topk", "ghost", 2, None),
        ]
    )


def _run(runtime, requests):
    """Answer *requests* in one micro-batch; each as its JSON fields
    without ``elapsed_ms``, or its error; plus the counter deltas."""
    before = get_registry().snapshot()
    futures = []
    for kind, u, *rest in requests:
        if kind == "score":
            futures.append(runtime.submit_score(u, rest[0]))
        elif kind == "batch":
            futures.append(runtime.submit_batch(u, rest[0]))
        else:
            futures.append(runtime.submit_topk(u, *rest))
    runtime.close(drain=True)
    delta = snapshot_delta(before, get_registry().snapshot())["counters"]
    answers = []
    for future in futures:
        try:
            fields = future.result(timeout=5).as_dict()
        except NodeNotFoundError as exc:
            answers.append(("error", str(exc)))
            continue
        del fields["elapsed_ms"]
        answers.append(fields)
    counters = {
        key: value for key, value in delta.items()
        if key.startswith(_REQUEST_COUNTERS)
    }
    return answers, counters


class TestOneRequestPath:
    """Sharded answers are the unsharded runtime's, field for field."""

    def _unsharded(self, make_manager, requests):
        runtime = ServingRuntime(
            make_manager(engine_kwargs=dict(MC_KWARGS, theta=THETA)),
            autostart=False, max_batch=64,
        )
        return _run(runtime, requests)

    def _sharded(self, make_manager, clock, gated_index, requests, factory):
        runtime = ShardedRuntime(
            make_manager(engine_kwargs=dict(MC_KWARGS, theta=THETA)),
            gated_index, 3, worker_factory=factory, autostart=False,
            max_batch=64, stats_interval=None,
            breaker_factory=_quarantining_breakers(clock),
        )
        try:
            return runtime, _run(runtime, requests)
        finally:
            runtime.close(drain=True, timeout=10)

    def test_every_field_matches_the_unsharded_runtime(
        self, make_manager, clock, gated_index, sharded_model, nodes
    ):
        requests = _requests(nodes, sharded_model[1])
        want, want_counters = self._unsharded(make_manager, requests)
        _, (got, got_counters) = self._sharded(
            make_manager, clock, gated_index, requests, ThreadShardWorker
        )
        assert got == want
        assert got_counters == want_counters
        live_pairs = [
            r for r in requests if r[0] == "score" and "ghost" not in r
        ]
        assert want_counters["sched_coalesced_requests_total"] == len(
            live_pairs
        )
        assert sum(isinstance(answer, tuple) for answer in want) == 4
        assert not any(
            answer["degraded"] for answer in want if isinstance(answer, dict)
        )

    def test_broken_shard_pairs_carry_the_fallback_fields(
        self, make_manager, clock, gated_index, sharded_model, nodes
    ):
        broken = 1

        def factory(path, config):
            if config["shard"] == broken:
                return _DeadWorker()
            return ThreadShardWorker(path, config)

        requests = _requests(nodes, sharded_model[1])
        want, _ = self._unsharded(make_manager, requests)
        runtime, (got, counters) = self._sharded(
            make_manager, clock, gated_index, requests, factory
        )
        lo, hi = runtime.plan.boundaries[broken]
        position = {node: i for i, node in enumerate(sorted_nodes(runtime))}

        def touches_broken(request):
            kind, _, *rest = request
            if kind == "score":
                touched = rest[:1]
            elif kind == "batch":
                touched = rest[0]
            elif rest[1] is None:
                return True  # a TOPK over every node asks every shard
            else:
                touched = rest[1]
            return any(lo <= position.get(v, -1) < hi for v in touched)

        flags = []
        for request, answer, plain in zip(requests, got, want):
            if not isinstance(plain, dict):
                assert answer == plain
                continue
            expected = dict(plain, degraded=touches_broken(request))
            flags.append((request[0], expected["degraded"]))
            # the fallback stack answers the broken range from the same
            # walks: only the flag moves, retries and method are its own
            assert answer == expected
        # the one micro-batch of pairs held both healthy and degraded pairs
        assert {flag for kind, flag in flags if kind == "score"} == {
            True, False,
        }
        assert counters["degraded_queries_total"] == sum(
            flag for _, flag in flags
        )

    def test_shard_answers_carry_their_own_label_under_a_degraded_fallback(
        self, make_manager, clock, sharded_model, nodes, tmp_path
    ):
        """Healthy shards answer as the mc index they serve (``retries: 0``,
        ``method: "mc"``) even while the fallback manager is degraded to
        the iterative table; the broken shard's pairs carry the fallback's
        label."""
        _, _, engine, parent, plans = sharded_model
        manager = make_manager(
            engine_kwargs=dict(MC_KWARGS),
            index_path=tmp_path / "missing-primary",
        )
        fallback = manager.acquire()
        assert fallback.degraded and fallback.engine.method == "iterative"
        broken = 1

        def factory(path, config):
            if config["shard"] == broken:
                return _DeadWorker()
            return ThreadShardWorker(path, config)

        runtime = ShardedRuntime(
            manager, parent, plans[2], worker_factory=factory,
            autostart=False, max_batch=64, stats_interval=None,
            breaker_factory=_quarantining_breakers(clock),
        )
        lo, hi = runtime.plan.boundaries[broken]
        position = {node: i for i, node in enumerate(sorted_nodes(runtime))}
        healthy = [v for v in nodes if not lo <= position[v] < hi]
        u = nodes[0]
        pairs = [(v, runtime.submit_score(u, v)) for v in nodes]
        batch = runtime.submit_batch(u, healthy)
        topk = runtime.submit_topk(u, 3, healthy)
        topk_all = runtime.submit_topk(u, 3)
        runtime.close(drain=True)

        mc = {"degraded": False, "retries": 0, "method": "mc"}
        iterative = {"degraded": True, "retries": 0, "method": "iterative"}

        def label(response):
            return {
                "degraded": response.degraded,
                "retries": response.retries,
                "method": response.method,
            }

        for v, future in pairs:
            response = future.result(timeout=5)
            if lo <= position[v] < hi:
                assert label(response) == iterative
                assert response.value == fallback.engine.score(u, v)
            else:
                assert label(response) == mc
                assert response.value == engine.score(u, v)
        response = batch.result(timeout=5)
        assert label(response) == mc
        np.testing.assert_array_equal(
            np.asarray(response.values), engine.score_batch(u, healthy)
        )
        response = topk.result(timeout=5)
        assert label(response) == mc
        assert list(response.results) == engine.top_k(u, 3, candidates=healthy)
        assert label(topk_all.result(timeout=5)) == iterative


def sorted_nodes(runtime):
    """The served engine's node order (= the artifact's position order)."""
    return runtime.manager.acquire().engine.nodes


@pytest.mark.concurrency
class TestMultiProcess:
    """The real forked-worker path — the CI multiprocess smoke job."""

    def test_process_workers_serve_bit_identical(
        self, mc_manager, sharded_model, nodes
    ):
        _, _, engine, parent, plans = sharded_model
        runtime = ShardedRuntime(
            mc_manager(), parent, plans[2], workers=2,
        )
        try:
            u = nodes[0]
            assert runtime.score(u, nodes[1]).value == engine.score(u, nodes[1])
            response = runtime.batch(u, nodes)
            np.testing.assert_array_equal(
                np.asarray(response.values), engine.score_batch(u, nodes)
            )
            assert list(runtime.top_k(u, 5).results) == engine.top_k(u, 5)
            health = runtime.health()
            assert all(s["running"] for s in health["shards"])
        finally:
            assert runtime.close(drain=True, timeout=30)

    def test_concurrent_submissions_across_processes(
        self, mc_manager, sharded_model, nodes
    ):
        _, _, engine, parent, plans = sharded_model
        runtime = ShardedRuntime(
            mc_manager(), parent, plans[3], workers=4, max_batch=8,
        )
        try:
            futures = [
                runtime.submit_score(nodes[i % 3], nodes[(i * 5) % len(nodes)])
                for i in range(60)
            ]
            for i, future in enumerate(futures):
                u = nodes[i % 3]
                v = nodes[(i * 5) % len(nodes)]
                assert future.result(timeout=30).value == engine.score(u, v)
        finally:
            assert runtime.close(drain=True, timeout=30)
