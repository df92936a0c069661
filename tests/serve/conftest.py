"""Shared fixtures for the serving-layer fault campaign.

Everything here is deterministic and sleep-free: time is a
:class:`~repro.testing.faults.VirtualClock`, retry jitter is seeded, and
engines are tiny (8 entities, 20 walks) so the whole suite runs in
seconds.
"""

from __future__ import annotations

import pytest

from tests.conftest import random_hin_with_measure
from repro.api import QueryEngine
from repro.obs.registry import get_registry, snapshot_delta
from repro.sched import ServingRuntime
from repro.serve import CircuitBreaker, IndexManager, RetryPolicy
from repro.testing import VirtualClock

#: Small-but-nontrivial engine settings shared by every serve test.
ENGINE_KWARGS = dict(num_walks=20, length=6, seed=3)


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def model():
    """One deterministic 8-entity HIN + Lin measure."""
    return random_hin_with_measure(11, num_entities=8, extra_edges=10)


@pytest.fixture
def walks_file(tmp_path, model):
    """A valid saved walk tensor for the fixture model."""
    graph, measure = model
    engine = QueryEngine(graph, measure, **ENGINE_KWARGS)
    path = tmp_path / "walks.npz"
    engine.save_walks(path)
    return path


@pytest.fixture
def artifact_dir(tmp_path, model):
    """A valid saved engine artifact for the fixture model."""
    graph, measure = model
    engine = QueryEngine(graph, measure, **ENGINE_KWARGS)
    return engine.save(tmp_path / "artifact")


@pytest.fixture
def make_manager(model, clock):
    """Factory for managers wired to the virtual clock (no real sleeps)."""
    graph, measure = model

    def factory(**overrides) -> IndexManager:
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
        kwargs.update(overrides)
        return IndexManager(graph, measure, **kwargs)

    return factory


@pytest.fixture
def make_runtime(make_manager):
    """Factory for a one-worker runtime over a fresh manager (kwargs -> the
    manager); every runtime created is drained on teardown.

    The runtime runs on the manager's virtual clock, so one clock drives
    the breaker, the retry backoff and the request deadlines.
    """
    created: list[ServingRuntime] = []

    def factory(deadline_ms=None, **manager_overrides) -> ServingRuntime:
        runtime = ServingRuntime(
            make_manager(**manager_overrides), deadline_ms=deadline_ms
        )
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
