"""Deterministic runtime tests: no thread interleaving in the arrangement.

The pattern throughout: ``autostart=False`` admits requests against a
cold queue (submission-time behavior — admission control — is then fully
deterministic), and ``close(drain=True)`` dispatches everything inline on
the test thread.  Thread-stress coverage lives in ``test_concurrency.py``.
"""

import pytest

from repro.errors import NodeNotFoundError
from repro.sched import Overloaded, RuntimeClosed
from repro.serve import DeadlineExceeded


class TestDispatchParity:
    def test_score_matches_sequential_service(self, make_service, make_runtime, nodes):
        service = make_service()
        runtime = make_runtime(service, workers=2, max_batch=8)
        u, rest = nodes[0], nodes[1:5]
        expected = [service.query(u, v).value for v in rest]
        got = [runtime.score(u, v).value for v in rest]
        assert got == expected

    def test_coalesced_group_matches_sequential(
        self, make_service, make_runtime, nodes, metrics_delta
    ):
        service = make_service()
        runtime = make_runtime(service, autostart=False, max_batch=8)
        u, rest = nodes[0], nodes[1:5]
        expected = [service.query(u, v).value for v in rest]
        futures = [runtime.submit_score(u, v) for v in rest]
        runtime.close(drain=True)
        assert [f.result().value for f in futures] == expected
        # all four rode one score_positions call
        delta = metrics_delta()
        assert delta["counters"]["sched_coalesced_requests_total"] == 4
        assert delta["histograms"]["sched_batch_size_count"] == 1

    def test_mixed_kinds_in_one_batch(self, make_service, make_runtime, nodes):
        service = make_service()
        runtime = make_runtime(service, autostart=False, max_batch=8)
        u, v = nodes[0], nodes[1]
        candidates = nodes[1:5]
        f_score = runtime.submit_score(u, v)
        f_batch = runtime.submit_batch(u, candidates)
        f_topk = runtime.submit_topk(u, 3)
        runtime.close(drain=True)
        assert f_score.result().value == service.query(u, v).value
        expected_batch = service.batch(u, candidates)
        assert list(f_batch.result().values) == list(expected_batch.values)
        assert f_topk.result().results == service.top_k(u, 3).results

    def test_responses_count_serve_outcomes(
        self, make_service, make_runtime, nodes, metrics_delta
    ):
        runtime = make_runtime(make_service(), autostart=False)
        futures = [runtime.submit_score(nodes[0], v) for v in nodes[1:4]]
        runtime.close(drain=True)
        for future in futures:
            assert not future.result().degraded
        delta = metrics_delta()
        assert delta["counters"]['serve_requests_total{outcome="ok"}'] == 3


class TestDegradation:
    def test_degraded_service_flags_and_counts_responses(
        self, make_service, make_runtime, nodes, walks_file, clock, metrics_delta
    ):
        from repro.testing import FaultInjector, FaultRule

        service = make_service(walks_path=walks_file)
        with FaultInjector([FaultRule("walks.load")], clock=clock):
            runtime = make_runtime(service, autostart=False)
            futures = [runtime.submit_score(nodes[0], v) for v in nodes[1:3]]
            runtime.close(drain=True)
        for future in futures:
            response = future.result(timeout=1)
            assert response.degraded
            assert response.method == "iterative"  # the exact fallback
        delta = metrics_delta()
        assert delta["counters"]["degraded_queries_total"] == 2
        assert delta["counters"]['serve_requests_total{outcome="degraded"}'] == 2


class TestAdmissionControl:
    def test_overload_is_deterministic_and_counted(
        self, make_service, make_runtime, nodes, metrics_delta
    ):
        runtime = make_runtime(make_service(), autostart=False, queue_depth=3)
        admitted = [runtime.submit_score(nodes[0], v) for v in nodes[1:4]]
        with pytest.raises(Overloaded) as excinfo:
            runtime.submit_score(nodes[0], nodes[4])
        assert excinfo.value.depth == 3
        delta = metrics_delta()
        assert delta["counters"]['serve_requests_total{outcome="rejected"}'] == 1
        assert delta["counters"]['sched_rejected_total{reason="overloaded"}'] == 1
        # every admitted request is still answered on drain
        runtime.close(drain=True)
        assert all(f.result() is not None for f in admitted)

    def test_submit_after_close_is_rejected(self, make_service, make_runtime, nodes):
        runtime = make_runtime(make_service(), autostart=False)
        runtime.close(drain=True)
        with pytest.raises(RuntimeClosed):
            runtime.submit_score(nodes[0], nodes[1])

    def test_close_without_drain_answers_with_runtime_closed(
        self, make_service, make_runtime, nodes, metrics_delta
    ):
        runtime = make_runtime(make_service(), autostart=False)
        futures = [runtime.submit_score(nodes[0], v) for v in nodes[1:4]]
        runtime.close(drain=False)
        for future in futures:
            with pytest.raises(RuntimeClosed):
                future.result(timeout=1)
        delta = metrics_delta()
        assert delta["counters"]['serve_requests_total{outcome="rejected"}'] == 3


class TestDeadlines:
    def test_request_expired_in_queue_gets_deadline_exceeded(
        self, make_service, make_runtime, nodes, clock, metrics_delta
    ):
        runtime = make_runtime(make_service(), autostart=False)
        future = runtime.submit_score(nodes[0], nodes[1], deadline_ms=10)
        fresh = runtime.submit_score(nodes[0], nodes[2], deadline_ms=60_000)
        clock.advance(1.0)  # blow the first deadline while queued
        runtime.close(drain=True)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=1)
        assert fresh.result(timeout=1).value == pytest.approx(
            fresh.result().value
        )
        delta = metrics_delta()
        assert delta["counters"]["sched_expired_total"] == 1
        assert (
            delta["counters"]['serve_requests_total{outcome="deadline_exceeded"}']
            == 1
        )

    def test_default_deadline_comes_from_the_service(
        self, make_service, make_runtime, nodes, clock
    ):
        runtime = make_runtime(
            make_service(deadline_ms=10), autostart=False
        )
        future = runtime.submit_score(nodes[0], nodes[1])
        clock.advance(1.0)
        runtime.close(drain=True)
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=1)

    def test_no_deadline_never_expires(
        self, make_service, make_runtime, nodes, clock
    ):
        runtime = make_runtime(make_service(), autostart=False)
        future = runtime.submit_score(nodes[0], nodes[1], deadline_ms=None)
        clock.advance(1e6)
        runtime.close(drain=True)
        assert future.result(timeout=1).value >= 0.0


class TestErrors:
    def test_unknown_node_completes_exceptionally(
        self, make_service, make_runtime, nodes, metrics_delta
    ):
        runtime = make_runtime(make_service(), autostart=False)
        bad = runtime.submit_score(nodes[0], "ghost")
        good = runtime.submit_score(nodes[0], nodes[1])
        runtime.close(drain=True)
        with pytest.raises(NodeNotFoundError):
            bad.result(timeout=1)
        assert good.result(timeout=1).value >= 0.0
        assert metrics_delta()["counters"][
            'serve_requests_total{outcome="error"}'
        ] == 1

    def test_unknown_source_fails_the_whole_group(
        self, make_service, make_runtime, nodes
    ):
        runtime = make_runtime(make_service(), autostart=False)
        futures = [runtime.submit_score("ghost", v) for v in nodes[1:3]]
        runtime.close(drain=True)
        for future in futures:
            with pytest.raises(NodeNotFoundError):
                future.result(timeout=1)

    def test_unknown_node_fails_only_its_own_pair(
        self, make_service, make_runtime, nodes
    ):
        # one micro-batch, one pair group: ghosts on either side fail
        # alone while their group-mates from other sources are answered
        service = make_service()
        runtime = make_runtime(service, autostart=False)
        pairs = [
            (nodes[0], nodes[1]), ("ghost", nodes[1]), (nodes[2], nodes[0]),
            (nodes[1], "ghost"), (nodes[1], nodes[1]),
        ]
        futures = [runtime.submit_score(u, v) for u, v in pairs]
        runtime.close(drain=True)
        engine = service.manager.acquire().engine
        for (u, v), future in zip(pairs, futures):
            if "ghost" in (u, v):
                with pytest.raises(NodeNotFoundError, match="ghost"):
                    future.result(timeout=1)
            else:
                assert future.result(timeout=1).value == engine.score(u, v)

    def test_worker_survives_engine_exceptions(
        self, make_service, make_runtime, nodes, monkeypatch
    ):
        service = make_service()
        runtime = make_runtime(service, workers=1, max_batch=1)
        engine = service.manager.acquire().engine
        original = engine.score_positions
        calls = {"n": 0}

        def flaky(pos_u, positions):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return original(pos_u, positions)

        monkeypatch.setattr(engine, "score_positions", flaky)
        first = runtime.submit_score(nodes[0], nodes[1])
        with pytest.raises(RuntimeError, match="injected"):
            first.result(timeout=5)
        # the worker thread is still alive and serving
        assert runtime.score(nodes[0], nodes[1]).value == engine.score(
            nodes[0], nodes[1]
        )


class TestLifecycle:
    def test_validates_configuration(self, make_service):
        from repro.sched import ServingRuntime

        service = make_service()
        with pytest.raises(ValueError):
            ServingRuntime(service, max_batch=0, autostart=False)
        with pytest.raises(ValueError):
            ServingRuntime(service, max_wait_us=-1, autostart=False)
        with pytest.raises(ValueError):
            ServingRuntime(service, workers=0, autostart=False)

    def test_drain_with_live_workers(self, make_service, make_runtime, nodes):
        runtime = make_runtime(make_service(), workers=2, max_batch=4)
        futures = [
            runtime.submit_score(nodes[0], v) for v in nodes[1:6]
        ]
        assert runtime.drain(timeout=10)
        assert all(f.done() for f in futures)
        assert runtime.closed

    def test_context_manager_drains(self, make_service, nodes):
        from repro.sched import ServingRuntime

        service = make_service()
        with ServingRuntime(service, workers=1, autostart=False) as runtime:
            future = runtime.submit_score(nodes[0], nodes[1])
        assert future.result(timeout=1).value >= 0.0
        assert runtime.closed

    def test_start_after_close_is_rejected(self, make_service, make_runtime):
        runtime = make_runtime(make_service(), autostart=False)
        runtime.close()
        with pytest.raises(RuntimeClosed):
            runtime.start()

    def test_health_extends_the_service_snapshot(
        self, make_service, make_runtime
    ):
        runtime = make_runtime(
            make_service(), workers=2, max_batch=16, queue_depth=99,
            autostart=False,
        )
        payload = runtime.health()
        assert payload["workers"] == 2
        assert payload["queue_watermark"] == 99
        assert payload["max_batch"] == 16
        assert payload["runtime_closed"] is False
        assert "circuit" in payload  # the manager's fields ride along

    def test_repr_smoke(self, make_service, make_runtime):
        runtime = make_runtime(make_service(), autostart=False)
        assert "cold" in repr(runtime)
        runtime.close(drain=True)
        assert "closed" in repr(runtime)
