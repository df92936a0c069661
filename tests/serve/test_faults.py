"""The deterministic fault campaign the serving layer is specified by.

Every scenario here ends in exactly one of two states — a retried
success, or a clean *degraded* response from the iterative fallback —
and never in a wrong score or an unhandled exception.  All faults are
injected (seeded schedules over the store I/O seam, or deterministic
on-disk corruptors); all time is virtual; nothing sleeps for real.
"""

from __future__ import annotations

import pytest

from repro.api import QueryEngine
from repro.serve import CircuitState, QueryService
from repro.testing import (
    FaultInjector,
    FaultRule,
    corrupt_manifest,
    eio_error,
    truncate_file,
    truncate_npz_member,
)
from tests.serve.conftest import ENGINE_KWARGS


@pytest.fixture
def oracle(model):
    """Direct engines: every served value must equal one of these, exactly.

    The degraded fallback is the iterative engine built with exactly the
    kwargs the manager forwards (none of ENGINE_KWARGS applies to it), so
    degraded responses must match bit for bit too.
    """
    graph, measure = model
    mc = QueryEngine(graph, measure, **ENGINE_KWARGS)
    iterative = QueryEngine(graph, measure, method="iterative")
    return {"mc": mc, "iterative": iterative}


def assert_correct(response, oracle):
    """A response is never wrong: it matches the engine its method names."""
    expected = oracle[response.method].score(response.u, response.v)
    assert response.value == expected
    assert response.degraded == (response.method == "iterative")


class TestInjectedEIO:
    def test_transient_eio_on_walk_load_retries_to_success(
        self, make_service, walks_file, clock, oracle, metrics_delta
    ):
        service = make_service(walks_path=walks_file)
        rule = FaultRule("walks.load", at=(0,))  # first load only
        with FaultInjector([rule], clock=clock) as faults:
            response = service.query("e0", "e1")
        assert_correct(response, oracle)
        assert not response.degraded
        assert response.retries == 1
        assert faults.invocations("walks.load") == 2
        delta = metrics_delta()
        assert delta["counters"][
            'serve_retries_total{operation="open_primary"}'
        ] == 1
        assert delta["counters"]['serve_requests_total{outcome="ok"}'] == 1

    def test_persistent_eio_degrades_cleanly(
        self, make_service, walks_file, clock, oracle, metrics_delta
    ):
        service = make_service(walks_path=walks_file)
        with FaultInjector([FaultRule("walks.load")], clock=clock) as faults:
            response = service.query("e0", "e1")
            assert_correct(response, oracle)
            assert response.degraded
            assert response.method == "iterative"  # the exact floor answers
            # initial attempt + 2 retries all hit the seam
            assert faults.invocations("walks.load") == 3
        delta = metrics_delta()
        assert delta["counters"]["degraded_queries_total"] == 1
        assert delta["counters"][
            'serve_requests_total{outcome="degraded"}'
        ] == 1
        assert delta["gauges"]['circuit_state{name="index"}'] == 1.0  # open

    def test_eio_on_artifact_read_degrades_with_graph_fallback(
        self, model, artifact_dir, clock, oracle
    ):
        graph, measure = model
        from repro.serve import CircuitBreaker, IndexManager, RetryPolicy

        manager = IndexManager(
            graph, measure, index_path=artifact_dir,
            retry=RetryPolicy(max_retries=1, seed=0),
            breaker=CircuitBreaker(clock=clock, failure_threshold=1),
            clock=clock, sleep=clock.sleep, background_rebuild=False,
        )
        service = QueryService(manager, clock=clock)
        with FaultInjector([FaultRule("artifact.read")], clock=clock):
            response = service.query("e0", "e1")
        assert_correct(response, oracle)
        assert response.degraded


class TestOnDiskCorruption:
    def test_truncated_npz_degrades_cleanly(
        self, make_service, walks_file, oracle
    ):
        truncate_file(walks_file)  # breaks the zip container itself
        response = make_service(walks_path=walks_file).query("e0", "e1")
        assert_correct(response, oracle)
        assert response.degraded

    def test_npz_with_truncated_member_degrades_cleanly(
        self, make_service, walks_file, oracle
    ):
        # nastier: the archive opens fine, the tensor bytes are short
        truncate_npz_member(walks_file)
        response = make_service(walks_path=walks_file).query("e0", "e1")
        assert_correct(response, oracle)
        assert response.degraded

    @pytest.mark.parametrize("mode", ["truncate", "remove", "orphan"])
    def test_mid_write_crash_on_artifact_degrades_cleanly(
        self, model, artifact_dir, clock, oracle, mode
    ):
        from repro.serve import CircuitBreaker, IndexManager, RetryPolicy

        corrupt_manifest(artifact_dir, mode=mode)
        graph, measure = model
        manager = IndexManager(
            graph, measure, index_path=artifact_dir,
            retry=RetryPolicy(max_retries=1, seed=0),
            breaker=CircuitBreaker(clock=clock, failure_threshold=1),
            clock=clock, sleep=clock.sleep, background_rebuild=False,
        )
        response = QueryService(manager, clock=clock).query("e0", "e1")
        assert_correct(response, oracle)
        assert response.degraded


class TestQuarantineAndRecovery:
    def test_full_lifecycle_degrade_quarantine_probe_recover(
        self, make_service, walks_file, clock, oracle, metrics_delta
    ):
        service = make_service(walks_path=walks_file)
        breaker = service.manager.breaker

        # 1. persistent fault: degrade, circuit opens
        with FaultInjector([FaultRule("walks.load")], clock=clock):
            assert service.query("e0", "e1").degraded
            assert breaker.state is CircuitState.OPEN

            # 2. quarantined: queries inside the cooldown never touch
            #    the seam again (fail fast, still correct)
            injector_counts_before = None
            response = service.query("e0", "e2")
            assert_correct(response, oracle)
            assert response.degraded

        # 3. fault cleared but cooldown not elapsed: still degraded
        clock.advance(5.0)
        assert service.query("e0", "e3").degraded
        assert breaker.state is CircuitState.OPEN

        # 4. cooldown elapsed: half-open probe succeeds, service heals
        clock.advance(5.0)
        response = service.query("e0", "e1")
        assert not response.degraded
        assert_correct(response, oracle)
        assert breaker.state is CircuitState.CLOSED
        assert service.manager.generation == 2

        delta = metrics_delta()
        assert delta["counters"]['serve_rebuilds_total{outcome="ok"}'] == 1
        transitions = {
            key: value for key, value in delta["counters"].items()
            if key.startswith("circuit_transitions_total")
        }
        assert transitions == {
            'circuit_transitions_total{name="index",to="open"}': 1,
            'circuit_transitions_total{name="index",to="half_open"}': 1,
            'circuit_transitions_total{name="index",to="closed"}': 1,
        }

    def test_failed_probe_reopens_the_circuit(
        self, make_service, walks_file, clock, oracle, metrics_delta
    ):
        service = make_service(walks_path=walks_file)
        breaker = service.manager.breaker
        # every walk-tensor touch fails: the load (degrading the service)
        # and the repair-write the recovery probe attempts
        with FaultInjector([FaultRule("*")], clock=clock):
            assert service.query("e0", "e1").degraded
            clock.advance(10.0)  # cooldown over, probe admitted — and fails
            response = service.query("e0", "e2")
            assert_correct(response, oracle)
            assert response.degraded
            assert breaker.state is CircuitState.OPEN
        delta = metrics_delta()
        assert delta["counters"]['serve_rebuilds_total{outcome="failed"}'] == 1

    def test_explicit_probe_respects_quarantine(
        self, make_service, walks_file, clock
    ):
        service = make_service(walks_path=walks_file)
        with FaultInjector([FaultRule("walks.load")], clock=clock):
            assert service.query("e0", "e1").degraded
        # in cooldown: probe refuses without touching the disk
        assert service.manager.probe() is False
        clock.advance(10.0)
        assert service.manager.probe() is True
        assert not service.manager.degraded

    def test_rebuild_resamples_instead_of_reloading_the_bad_file(
        self, make_service, walks_file, clock
    ):
        service = make_service(walks_path=walks_file)
        truncate_file(walks_file)
        assert service.query("e0", "e1").degraded
        clock.advance(10.0)
        with FaultInjector(clock=clock) as watcher:  # no rules: just count
            assert not service.query("e0", "e1").degraded
        # recovery resampled from the graph — it never re-read the file
        # that failed — and repaired it in place with a fresh save
        assert watcher.invocations("walks.load") == 0
        assert watcher.invocations("walks.save") == 1
        # the repaired file is loadable again
        healed = make_service(walks_path=walks_file)
        assert not healed.query("e0", "e1").degraded
        assert healed.query("e0", "e1").retries == 0


class TestLatencyAndSkew:
    def test_latency_spikes_blow_deadlines_not_correctness(
        self, make_service, walks_file, clock, oracle
    ):
        from repro.serve import DeadlineExceeded

        service = make_service(walks_path=walks_file, deadline_ms=50.0)
        spike = FaultRule("walks.load", kind="latency", delay=0.2)
        with FaultInjector([spike], clock=clock):
            with pytest.raises(DeadlineExceeded):
                service.query("e0", "e1")
        # next request (index already activated despite the late finish)
        response = service.query("e0", "e1")
        assert_correct(response, oracle)

    def test_clock_skew_during_load_is_survived(
        self, make_service, walks_file, clock, oracle
    ):
        service = make_service(walks_path=walks_file)
        skew = FaultRule("walks.load", kind="clock_skew", skew=-30.0)
        with FaultInjector([skew], clock=clock):
            response = service.query("e0", "e1")
        assert_correct(response, oracle)


class TestSeededCampaign:
    """Replayable pseudo-random schedules: the blanket no-wrong-answers sweep."""

    @pytest.mark.parametrize("seed", range(6))
    def test_campaign_never_wrong_never_raises(
        self, make_service, walks_file, clock, oracle, seed
    ):
        service = make_service(walks_path=walks_file)
        pairs = [("e0", "e1"), ("e2", "e3"), ("e4", "e5"), ("e1", "e6")]
        injector = FaultInjector.seeded(
            seed, operations=("walks.load",), error_rate=0.4, clock=clock
        )
        with injector:
            for step in range(12):
                response = service.query(*pairs[step % len(pairs)])
                assert_correct(response, oracle)
                clock.advance(3.0)  # let cooldowns elapse mid-campaign

    def test_seeded_schedule_is_replayable(self, clock):
        a = FaultInjector.seeded(99, error_rate=0.5)
        b = FaultInjector.seeded(99, error_rate=0.5)
        assert [(r.operation, r.at, r.kind) for r in a.rules] == [
            (r.operation, r.at, r.kind) for r in b.rules
        ]
