"""Shared fixtures for the scheduler suite.

Deterministic tests run with ``max_wait_us=0`` (no real batching window)
and, where scheduling decisions matter, ``autostart=False`` so requests
are admitted against a cold queue and dispatched inline by
``close(drain=True)`` — no thread interleaving in the arrangement at all.
The thread-stress tests live in ``test_concurrency.py`` and are marked
``concurrency``.
"""

from __future__ import annotations

import pytest

from tests.conftest import random_hin_with_measure
from repro.obs.registry import get_registry, snapshot_delta
from repro.sched import ServingRuntime
from repro.serve import CircuitBreaker, IndexManager, RetryPolicy
from repro.testing import VirtualClock

#: Small-but-nontrivial engine settings shared by every sched test.
ENGINE_KWARGS = dict(num_walks=20, length=6, seed=3)


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def model():
    """One deterministic 8-entity HIN + Lin measure."""
    return random_hin_with_measure(11, num_entities=8, extra_edges=10)


@pytest.fixture
def nodes(model):
    """The model's nodes in a deterministic order."""
    graph, _ = model
    return sorted(graph.nodes(), key=str)


@pytest.fixture
def walks_file(tmp_path, model):
    """A valid saved walk tensor for the fixture model."""
    from repro.api import QueryEngine

    graph, measure = model
    engine = QueryEngine(graph, measure, **ENGINE_KWARGS)
    path = tmp_path / "walks.npz"
    engine.save_walks(path)
    return path


@pytest.fixture
def make_manager(model, clock):
    """Factory for a fresh deterministic manager (kwargs -> the manager)."""
    graph, measure = model

    def factory(**manager_overrides) -> IndexManager:
        kwargs = dict(
            engine_kwargs=dict(ENGINE_KWARGS),
            retry=RetryPolicy(max_retries=2, seed=1),
            breaker=CircuitBreaker(
                clock=clock, failure_threshold=1, cooldown=10.0
            ),
            clock=clock,
            sleep=clock.sleep,
            background_rebuild=False,
        )
        kwargs.update(manager_overrides)
        return IndexManager(graph, measure, **kwargs)

    return factory


@pytest.fixture
def make_runtime(make_manager):
    """Factory for runtimes (over a fresh manager unless one is given);
    everything created is drained on teardown."""
    created: list[ServingRuntime] = []

    def factory(manager=None, **kwargs) -> ServingRuntime:
        if manager is None:
            manager = make_manager()
        runtime = ServingRuntime(manager, **kwargs)
        created.append(runtime)
        return runtime

    yield factory
    for runtime in created:
        runtime.close(drain=True, timeout=10)


@pytest.fixture
def metrics_delta():
    """Callable returning the registry growth since the test started."""
    registry = get_registry()
    before = registry.snapshot()

    def delta() -> dict:
        return snapshot_delta(before, registry.snapshot())

    return delta
