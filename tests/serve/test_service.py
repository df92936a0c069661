"""Request semantics through the serving runtime: deadlines, responses,
metrics, and the manager contract underneath."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import QueryEngine
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.obs.registry import disabled
from repro.serve import DeadlineExceeded, IndexManager, IndexUnavailableError
from tests.serve.conftest import ENGINE_KWARGS


class TestHappyPath:
    def test_query_matches_direct_engine_exactly(self, make_runtime, model):
        graph, measure = model
        runtime = make_runtime()
        direct = QueryEngine(graph, measure, **ENGINE_KWARGS)
        for u, v in [("e0", "e1"), ("e2", "e5"), ("e3", "e3")]:
            assert runtime.score(u, v).value == direct.score(u, v)

    def test_response_carries_serving_metadata(self, make_runtime):
        response = make_runtime().score("e0", "e1")
        assert not response.degraded
        assert response.retries == 0
        assert response.method == "mc"
        assert response.outcome == "ok"
        assert response.elapsed_ms >= 0.0
        payload = response.as_dict()
        assert payload["u"] == "e0" and payload["degraded"] is False

    def test_batch_matches_direct_engine(self, make_runtime, model):
        graph, measure = model
        runtime = make_runtime()
        direct = QueryEngine(graph, measure, **ENGINE_KWARGS)
        candidates = ["e1", "e2", "e3"]
        response = runtime.batch("e0", candidates)
        np.testing.assert_array_equal(
            response.values, direct.score_batch("e0", candidates)
        )
        assert response.candidates == tuple(candidates)

    def test_top_k_matches_direct_engine(self, make_runtime, model):
        graph, measure = model
        runtime = make_runtime()
        direct = QueryEngine(graph, measure, **ENGINE_KWARGS)
        response = runtime.top_k("e0", 3)
        assert list(response.results) == direct.top_k("e0", 3)
        assert response.k == 3

    def test_ok_outcome_counted(self, make_runtime, metrics_delta):
        make_runtime().score("e0", "e1")
        delta = metrics_delta()
        assert delta["counters"]['serve_requests_total{outcome="ok"}'] == 1
        assert "degraded_queries_total" not in delta["counters"]

    def test_disabled_registry_records_nothing(self, make_runtime, metrics_delta):
        with disabled():
            make_runtime().score("e0", "e1")
        assert metrics_delta() == {}


class TestDeadlines:
    def test_slow_request_raises_deadline_exceeded(
        self, make_runtime, clock, metrics_delta
    ):
        runtime = make_runtime(deadline_ms=100.0)
        original = runtime.manager._open_primary

        def slow_open():
            clock.advance(0.5)  # 500 ms of virtual work
            return original()

        runtime.manager._open_primary = slow_open
        with pytest.raises(DeadlineExceeded) as excinfo:
            runtime.score("e0", "e1")
        assert excinfo.value.deadline_ms == 100.0
        assert excinfo.value.elapsed_ms >= 500.0
        delta = metrics_delta()
        assert delta["counters"][
            'serve_requests_total{outcome="deadline_exceeded"}'
        ] == 1

    def test_per_call_override_beats_the_default(self, make_runtime, clock):
        runtime = make_runtime(deadline_ms=100.0)
        original = runtime.manager._open_primary

        def slow_open():
            clock.advance(0.5)
            return original()

        runtime.manager._open_primary = slow_open
        response = runtime.score("e0", "e1", deadline_ms=1000.0)
        assert response.value is not None

    def test_none_override_disables_the_deadline(self, make_runtime, clock):
        runtime = make_runtime(deadline_ms=1.0)
        original = runtime.manager._open_primary

        def slow_open():
            clock.advance(5.0)
            return original()

        runtime.manager._open_primary = slow_open
        assert runtime.score("e0", "e1", deadline_ms=None).value is not None

    def test_fast_request_passes_its_deadline(self, make_runtime):
        response = make_runtime(deadline_ms=60_000.0).score("e0", "e1")
        assert not response.degraded


class TestValidation:
    def test_unknown_node_raises_not_found(self, make_runtime, metrics_delta):
        runtime = make_runtime()
        with pytest.raises(NodeNotFoundError):
            runtime.score("e0", "ghost")
        with pytest.raises(NodeNotFoundError):
            runtime.score("ghost", "e0")
        delta = metrics_delta()
        assert delta["counters"]['serve_requests_total{outcome="error"}'] == 2

    def test_unknown_node_checked_on_iterative_fallback_too(
        self, make_runtime, tmp_path
    ):
        # the iterative path's raw engine raises KeyError for unknown
        # nodes; the runtime must translate that into NodeNotFoundError
        # even while degraded
        runtime = make_runtime(
            walks_path=tmp_path / "missing-dir" / "nope.npz"
        )
        with pytest.raises(NodeNotFoundError):
            runtime.score("ghost", "e0")

    def test_batch_validates_every_candidate(self, make_runtime):
        with pytest.raises(NodeNotFoundError):
            make_runtime().batch("e0", ["e1", "ghost"])

    def test_top_k_validates_the_source(self, make_runtime):
        with pytest.raises(NodeNotFoundError):
            make_runtime().top_k("ghost", 3)


class TestManagerContract:
    def test_manager_requires_graph_or_index_path(self):
        with pytest.raises(ConfigurationError):
            IndexManager()

    def test_index_only_manager_cannot_degrade(self, tmp_path, clock):
        manager = IndexManager(
            index_path=tmp_path / "never-written",
            clock=clock,
            sleep=clock.sleep,
            background_rebuild=False,
        )
        with pytest.raises((IndexUnavailableError, FileNotFoundError)):
            manager.acquire()

    def test_generation_bumps_on_swap(self, make_manager):
        manager = make_manager()
        assert manager.generation == 0
        manager.acquire()
        assert manager.generation == 1

    def test_acquire_is_idempotent_and_lock_free_after_activation(
        self, make_manager
    ):
        manager = make_manager()
        first = manager.acquire()
        second = manager.acquire()
        assert first.engine is second.engine
        assert second.retries == 0

    def test_health_snapshot_shape(self, make_runtime):
        runtime = make_runtime(deadline_ms=250.0)
        health = runtime.health()
        assert health["activated"] is False
        assert health["backend"] is None  # no engine handed out yet
        runtime.score("e0", "e1")
        health = runtime.health()
        assert health["activated"] is True
        assert health["degraded"] is False
        assert health["method"] == "mc"
        assert health["circuit"] == "closed"
        assert health["deadline_ms"] == 250.0
        assert health["backend"] == "blocked"  # the library kernel

    def test_repr_is_informative(self, make_runtime):
        runtime = make_runtime()
        assert "unactivated" in repr(runtime.manager)
        runtime.score("e0", "e1")
        assert "healthy" in repr(runtime.manager)
