"""Live graph mutations through the serving stack.

Covers the full update path: :meth:`IndexManager.apply_mutations`
(copy-on-write clone, persist-before-publish, atomic swap, retired
generations kept alive by in-flight acquisitions), the runtime
passthrough, the sharded runtime's clean rejection, the ``UPDATE`` /
``DELEDGE`` protocol lines, and — under the ``concurrency`` marker —
queries in flight during a swap being answered exactly once from a
consistent generation.

Deterministic arrangements follow the suite's conventions: virtual
clock, ``background_rebuild=False``, fault injection through the store
seam (:mod:`repro.testing.faults`), tiny engines.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.api import QueryEngine
from repro.errors import ConfigurationError, EdgeNotFoundError
from repro.serve import MutationRejectedError
from repro.testing import FaultInjector, FaultRule

from tests.serve.conftest import ENGINE_KWARGS

#: One edge re-weight plus one insert between existing entities — legal
#: under a semantic measure (no new nodes) and guaranteed applicable on
#: the fixture model regardless of which random edges it drew.
MUTATIONS = [
    ("add_edge", "e0", "e1", 2.5),
    ("add_edge", "e2", "e3", 1.5),
]


def expected_engine(manager):
    """A cold rebuild of whatever graph the manager currently serves."""
    engine = manager.acquire().engine
    return QueryEngine(
        engine.graph.copy(), manager.measure, **ENGINE_KWARGS
    )


class TestManagerApplyMutations:
    def test_swap_bumps_generation_and_epoch(self, make_manager):
        manager = make_manager()
        generation = manager.acquire().engine is not None and manager._generation
        result = manager.apply_mutations(MUTATIONS)
        assert result["applied"] == 2
        assert result["generation"] == generation + 1
        assert result["epoch"] == 2
        assert result["lineage"]["mutations"] == 2
        health = manager.health()
        assert health["index_epoch"] == 2
        assert health["mutations_applied"] == 2

    def test_post_swap_scores_bit_identical_to_cold_rebuild(
        self, make_manager
    ):
        manager = make_manager()
        candidates = ["e4", "e5", "e6"]
        # build the serving generation's tables, so the swap carries them
        manager.acquire().engine.score_batch("e0", candidates)
        manager.apply_mutations(MUTATIONS + [("remove_edge", "e0", "e1")])
        live = manager.acquire().engine
        cold = expected_engine(manager)
        for u in ("e0", "e1", "e2", "e3"):
            for v in candidates:
                assert live.score(u, v) == cold.score(u, v)
            assert np.array_equal(
                live.score_batch(u, candidates), cold.score_batch(u, candidates)
            )

    def test_inflight_acquisition_keeps_its_generation(self, make_manager):
        manager = make_manager()
        before = manager.acquire()
        baseline = before.engine.score("e0", "e1")
        manager.apply_mutations(MUTATIONS)
        # the retired engine is untouched: an in-flight query holding it
        # still answers from its own consistent snapshot
        assert before.engine.score("e0", "e1") == baseline
        assert manager.acquire().engine is not before.engine

    def test_validation_error_leaves_published_state_alone(
        self, make_manager
    ):
        manager = make_manager()
        engine = manager.acquire().engine
        generation = manager._generation
        with pytest.raises(EdgeNotFoundError):
            manager.apply_mutations([("set_weight", "e0", "no-such", 2.0)])
        with pytest.raises(ConfigurationError):
            # a semantic measure cannot be extended to unseen nodes
            manager.apply_mutations([("add_node", "brand-new")])
        assert manager._generation == generation
        assert manager.acquire().engine is engine
        assert manager.health()["mutations_applied"] == 0

    def test_degraded_stack_rejects_mutations(
        self, make_manager, walks_file, clock
    ):
        manager = make_manager(walks_path=walks_file)
        with FaultInjector([FaultRule("walks.load")], clock=clock):
            acquisition = manager.acquire()
        assert acquisition.degraded
        with pytest.raises(MutationRejectedError):
            manager.apply_mutations(MUTATIONS)

    def test_persist_writes_lineage_into_store(self, make_manager, tmp_path):
        from repro.store import ArtifactStore, read_artifact

        manager = make_manager(cache_dir=tmp_path / "store")
        result = manager.apply_mutations(MUTATIONS)
        assert result["artifact"] is not None
        store = ArtifactStore(tmp_path / "store")
        artifact = read_artifact(store.path_for(result["artifact"]))
        lineage = artifact.manifest["lineage"]
        assert lineage["mutations"] == 2
        assert lineage["epoch"] == 2
        assert lineage["mutation_log_sha256"]
        assert lineage["parent_graph"]

    def test_persist_failure_leaves_old_generation_serving(
        self, make_manager, tmp_path, clock
    ):
        manager = make_manager(cache_dir=tmp_path / "store")
        before = manager.acquire()
        baseline = before.engine.score("e0", "e1")
        generation = manager._generation
        with pytest.raises(OSError):
            with FaultInjector([FaultRule("artifact.write")], clock=clock):
                manager.apply_mutations(MUTATIONS)
        assert manager._generation == generation
        after = manager.acquire()
        assert after.engine is before.engine
        assert after.engine.score("e0", "e1") == baseline
        health = manager.health()
        assert health["mutations_applied"] == 0
        assert "injected I/O error" in str(health["last_error"])

    def test_swap_metrics(self, make_manager, metrics_delta):
        manager = make_manager()
        manager.apply_mutations(MUTATIONS + [("remove_edge", "e2", "e3")])
        delta = metrics_delta()
        assert delta["counters"][
            'mutations_applied_total{kind="add_edge"}'
        ] == 2
        assert delta["counters"][
            'mutations_applied_total{kind="remove_edge"}'
        ] == 1
        assert delta["gauges"]["index_generation"] == manager._generation
        assert delta["histograms"]["index_swap_seconds_count"] == 1


class TestRuntimePassthrough:
    def test_queries_after_mutation_see_the_new_generation(
        self, make_service
    ):
        from repro.sched import ServingRuntime

        service = make_service()
        with ServingRuntime(service, workers=1, autostart=False) as runtime:
            result = runtime.apply_mutations(MUTATIONS)
            assert result["applied"] == 2
            future = runtime.submit_score("e0", "e1")
            runtime.close(drain=True)
            cold = expected_engine(service.manager)
            assert future.result().value == cold.score("e0", "e1")

    def test_closed_runtime_refuses(self, make_service):
        from repro.sched import ServingRuntime
        from repro.sched.errors import RuntimeClosed

        runtime = ServingRuntime(make_service(), workers=1, autostart=False)
        runtime.close(drain=True)
        with pytest.raises(RuntimeClosed):
            runtime.apply_mutations(MUTATIONS)


class TestShardedRejection:
    @pytest.fixture
    def sharded(self, tmp_path, model, make_service):
        from repro.sched import ShardedRuntime, ThreadShardWorker

        graph, measure = model
        engine = QueryEngine(graph, measure, method="mc", **ENGINE_KWARGS)
        parent = tmp_path / "parent"
        engine.save(parent)
        service = make_service(engine_kwargs=dict(ENGINE_KWARGS, method="mc"))
        runtime = ShardedRuntime(
            service, parent, 2,
            worker_factory=ThreadShardWorker,
            autostart=False, stats_interval=None,
        )
        yield runtime
        runtime.close(drain=True, timeout=10)

    def test_mutations_rejected_cleanly(self, sharded):
        with pytest.raises(MutationRejectedError) as excinfo:
            sharded.apply_mutations(MUTATIONS)
        assert excinfo.value.head_epoch == 0
        assert excinfo.value.shard_epoch == 0

    def test_rejections_surface_in_health(self, sharded):
        for _ in range(2):
            with pytest.raises(MutationRejectedError):
                sharded.apply_mutations(MUTATIONS)
        health = sharded.health()
        mutations = health["mutations"]
        assert mutations["supported"] is False
        assert mutations["rejected"] == 2
        assert mutations["epoch_mismatch"] is False  # head never mutated


class TestProtocolLines:
    """``UPDATE``/``DELEDGE`` parsing and rendering, runtime stubbed out."""

    class _Runtime:
        def __init__(self, outcome=None):
            self.received = []
            self.outcome = outcome or {
                "applied": 1, "resampled": 7, "generation": 2, "epoch": 1,
            }

        def apply_mutations(self, mutations):
            self.received.append(mutations)
            if isinstance(self.outcome, BaseException):
                raise self.outcome
            return self.outcome

    def submit(self, line, outcome=None):
        from repro.cli import _serve_render, _serve_submit

        runtime = self._Runtime(outcome)
        entry = _serve_submit(runtime, line)
        return runtime, _serve_render(entry)

    def test_update_line_applies_one_add_edge(self):
        runtime, payload = self.submit("UPDATE a b 2.5")
        assert runtime.received == [[("add_edge", "a", "b", 2.5)]]
        assert payload == {
            "mutated": True, "kind": "add_edge", "applied": 1,
            "resampled": 7, "generation": 2, "epoch": 1,
        }

    def test_update_without_weight_uses_default(self):
        runtime, _ = self.submit("UPDATE a b")
        assert runtime.received == [[("add_edge", "a", "b")]]

    def test_deledge_line_applies_one_remove_edge(self):
        runtime, payload = self.submit("DELEDGE a b")
        assert runtime.received == [[("remove_edge", "a", "b")]]
        assert payload["kind"] == "remove_edge"

    @pytest.mark.parametrize("line", [
        "UPDATE a", "UPDATE a b 2.5 extra", "DELEDGE a", "DELEDGE a b c",
        "UPDATE a b not-a-number",
    ])
    def test_malformed_lines_answer_a_parse_error(self, line):
        runtime, payload = self.submit(line)
        assert runtime.received == []
        assert "error" in payload

    @pytest.mark.parametrize("outcome, kind", [
        (MutationRejectedError("sharded"), "unsupported"),
        (EdgeNotFoundError("a", "b"), "not_found"),
        (ConfigurationError("not mc"), "bad_mutation"),
        (OSError(5, "injected I/O error"), "persist_failed"),
    ])
    def test_failures_map_to_error_kinds(self, outcome, kind):
        _, payload = self.submit("DELEDGE a b", outcome)
        assert payload["kind"] == kind


@pytest.mark.concurrency
class TestSwapDuringInflight:
    def test_queries_during_swaps_answer_exactly_once_consistently(
        self, model
    ):
        """Hammer queries across repeated swaps: every future resolves
        exactly once, and every answer equals some generation's cold
        rebuild — never a torn mix of two generations."""
        from repro.sched import ServingRuntime
        from repro.serve import IndexManager, QueryService

        graph, measure = model
        manager = IndexManager(
            graph, measure, engine_kwargs=dict(ENGINE_KWARGS),
        )
        schedule = [
            [("add_edge", "e0", "e1", float(w))] for w in (2, 3, 4, 5)
        ]
        # one legal answer per generation, computed from cold rebuilds
        allowed = {QueryEngine(graph, measure, **ENGINE_KWARGS).score("e0", "e1")}
        staged = graph.copy()
        for [(_, u, v, w)] in schedule:
            staged.add_edge(u, v, weight=w)
            allowed.add(
                QueryEngine(staged.copy(), measure, **ENGINE_KWARGS)
                .score("e0", "e1")
            )

        results: list[float] = []
        errors: list[BaseException] = []
        runtime = ServingRuntime(QueryService(manager), workers=2)
        try:
            futures = []
            stop = threading.Event()

            def hammer():
                from repro.sched import Overloaded

                while not stop.is_set():
                    try:
                        futures.append(runtime.submit_score("e0", "e1"))
                    except Overloaded:
                        stop.wait(0.002)  # queue full: let workers drain

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                for mutations in schedule:
                    runtime.apply_mutations(mutations)
            finally:
                stop.set()
                thread.join()
        finally:
            runtime.close(drain=True, timeout=30)
        for future in futures:
            try:
                results.append(future.result().value)
            except BaseException as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)
        assert not errors
        assert len(results) == len(futures)  # exactly one answer each
        assert set(results) <= allowed
        assert manager._generation == 1 + len(schedule)

    def test_swap_racing_first_batches_carries_complete_tables(self, model):
        """Swaps read the serving estimator's tables while workers may
        still be building them: each swap carries complete tables or none,
        and every generation still scores like a cold rebuild."""
        import sys

        graph, measure = model
        candidates = ["e1", "e2", "e3", "e4", "e5"]
        errors: list[BaseException] = []

        def first_batch(engine):
            try:
                engine.score_batch("e0", candidates)
            except BaseException as exc:  # noqa: BLE001 — collected for the assert
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for weight in range(2, 27):
                engine = QueryEngine(graph, measure, **ENGINE_KWARGS)
                workers = [
                    threading.Thread(target=first_batch, args=(engine,))
                    for _ in range(4)
                ]
                for worker in workers:
                    worker.start()
                swapped = engine.with_mutations(
                    [("add_edge", "e0", "e1", weight)]
                )
                for worker in workers:
                    worker.join(timeout=30)
                    assert not worker.is_alive()
                staged = graph.copy()
                staged.add_edge("e0", "e1", weight=weight)
                cold = QueryEngine(staged, measure, **ENGINE_KWARGS)
                for u in ("e0", "e1", "e2"):
                    assert np.array_equal(
                        swapped.score_batch(u, candidates),
                        cold.score_batch(u, candidates),
                    )
        finally:
            sys.setswitchinterval(previous)
        assert not errors
