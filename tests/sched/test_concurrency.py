"""Thread-stress tests (``-m concurrency``): the CI smoke job runs these.

Real threads, real interleavings — what is asserted is therefore only
what the design guarantees under *any* interleaving:

* every response is bit-identical to the same request served
  sequentially (coalescing and scheduling never change values);
* every admitted request is answered exactly once (no silent drops),
  and admitted + rejected == submitted under overload;
* shared mutable state (metrics registry, estimator stats) never loses
  an update.

Each test is seeded; the randomness is in the workload shape, not the
expected values.
"""

import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

from repro.obs.registry import MetricsRegistry
from repro.sched import Overloaded, ServingRuntime

pytestmark = pytest.mark.concurrency


class TestRandomizedWorkloadParity:
    def test_mixed_workload_bit_identical_to_sequential(
        self, make_manager, nodes
    ):
        """≥8 workers, mixed score/batch/topk, randomized over hot sources."""
        manager = make_manager()
        engine = manager.acquire().engine
        rng = np.random.default_rng(42)
        sources = nodes[:3]  # hot sources so the coalescer actually merges
        targets = nodes[:6]

        requests = []
        for _ in range(200):
            u = sources[int(rng.integers(len(sources)))]
            kind = ("score", "score", "score", "batch", "topk")[
                int(rng.integers(5))
            ]
            if kind == "score":
                requests.append(("score", u, targets[int(rng.integers(len(targets)))]))
            elif kind == "batch":
                requests.append(("batch", u, tuple(targets[:4])))
            else:
                requests.append(("topk", u, 3))

        # sequential ground truth from the same engine
        expected = []
        for kind, u, arg in requests:
            if kind == "score":
                expected.append(engine.score(u, arg))
            elif kind == "batch":
                expected.append(list(engine.score_batch(u, list(arg))))
            else:
                expected.append(engine.top_k(u, arg))

        # the batching window needs real time: the fixtures' VirtualClock
        # never advances on its own, so max_wait would never elapse
        runtime = ServingRuntime(
            manager, workers=8, max_batch=16, max_wait_us=200,
            queue_depth=4096, clock=time.monotonic,
        )
        try:
            futures = []
            for kind, u, arg in requests:
                if kind == "score":
                    futures.append(runtime.submit_score(u, arg))
                elif kind == "batch":
                    futures.append(runtime.submit_batch(u, arg))
                else:
                    futures.append(runtime.submit_topk(u, arg))
            done, not_done = wait(futures, timeout=60)
            assert not not_done, "admitted requests were never answered"
        finally:
            assert runtime.drain(timeout=30)

        for future, (kind, _, _), want in zip(futures, requests, expected):
            response = future.result(timeout=0)
            if kind == "score":
                assert response.value == want
            elif kind == "batch":
                assert list(response.values) == want
            else:
                assert list(response.results) == want

    def test_concurrent_submitters_no_request_lost(self, make_manager, nodes):
        """8 submitter threads x 8 workers: exactly one answer per request."""
        manager = make_manager()
        runtime = ServingRuntime(
            manager, workers=8, max_batch=8, max_wait_us=100,
            queue_depth=4096, clock=time.monotonic,
        )
        u = nodes[0]
        per_thread = 40
        collected: list[list] = [[] for _ in range(8)]

        def submitter(slot: int) -> None:
            rng = np.random.default_rng(slot)
            for _ in range(per_thread):
                v = nodes[1 + int(rng.integers(len(nodes) - 1))]
                collected[slot].append((v, runtime.submit_score(u, v)))

        threads = [
            threading.Thread(target=submitter, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            engine = manager.acquire().engine
            expected = {v: engine.score(u, v) for v in nodes[1:]}
            for slot in range(8):
                assert len(collected[slot]) == per_thread
                for v, future in collected[slot]:
                    assert future.result(timeout=30).value == expected[v]
        finally:
            assert runtime.drain(timeout=30)

    def test_overload_accounting_is_exact(self, make_manager, nodes):
        """admitted + rejected == submitted; every admitted future resolves."""
        runtime = ServingRuntime(
            make_manager(), workers=2, max_batch=4, max_wait_us=0,
            queue_depth=8, clock=time.monotonic,
        )
        admitted, rejected = [], 0
        lock = threading.Lock()

        def submitter(slot: int) -> None:
            nonlocal rejected
            for i in range(50):
                try:
                    future = runtime.submit_score(
                        nodes[0], nodes[1 + (slot + i) % (len(nodes) - 1)]
                    )
                except Overloaded:
                    with lock:
                        rejected += 1
                else:
                    with lock:
                        admitted.append(future)

        threads = [
            threading.Thread(target=submitter, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        try:
            assert len(admitted) + rejected == 4 * 50
            done, not_done = wait(admitted, timeout=60)
            assert not not_done
            for future in admitted:
                assert future.result(timeout=0).value >= 0.0
        finally:
            assert runtime.drain(timeout=30)


class TestSharedStateUnderThreads:
    def test_estimator_stats_add_never_loses_updates(self):
        from repro.core.montecarlo import EstimatorStats

        stats = EstimatorStats()
        threads = [
            threading.Thread(
                target=lambda: [
                    stats.add(queries=1, walks_examined=2) for _ in range(2000)
                ]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.queries == 8 * 2000
        assert stats.walks_examined == 8 * 2000 * 2

    def test_registry_counter_and_histogram_never_lose_updates(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", labelnames=("worker",))
        lat = registry.histogram("lat_seconds", buckets=(0.5, 1.0))

        def hammer(slot: int) -> None:
            child = hits.labels(worker=str(slot % 2))
            for _ in range(2000):
                child.inc()
                lat.observe(0.25)

        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = registry.snapshot()
        total = sum(
            value for name, value in snap["counters"].items()
            if name.startswith("hits_total")
        )
        assert total == 8 * 2000
        assert snap["histograms"]["lat_seconds_count"] == 8 * 2000
        assert snap["histograms"]["lat_seconds_sum"] == pytest.approx(
            0.25 * 8 * 2000
        )
