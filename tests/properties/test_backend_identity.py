"""Property tests: every kernel honours the equivalence contract.

The seam's soundness claim (mirroring the coalescer-identity suite one
layer down): whichever :class:`~repro.backends.ComputeBackend` executes
the walk-score kernels, the scores a :class:`~repro.api.QueryEngine`
returns are the reference scores, bit for bit.  The reference is the
stacked-array oracle (``tests/backends/numpy_ref.py``), passed to the
engines as an instance.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import QueryEngine
from repro.sched import ServingRuntime
from repro.serve import IndexManager

from tests.backends.numpy_ref import KERNELS, NumpyBackend
from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

RUNNABLE = sorted(KERNELS)


def _engines(seed, num_entities, extra_edges, backend, theta=None):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    kwargs = dict(
        method="mc", num_walks=25, length=6, theta=theta, seed=seed
    )
    reference = QueryEngine(graph, measure, backend=NumpyBackend(), **kwargs)
    candidate = QueryEngine(graph, measure, backend=KERNELS[backend](), **kwargs)
    nodes = sorted(graph.nodes(), key=str)
    return reference, candidate, nodes


def _assert_contract(backend, expected, actual):
    np.testing.assert_array_equal(expected, actual)


@pytest.mark.parametrize("backend", RUNNABLE)
@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    theta=st.sampled_from([None, 0.05, 0.3]),
)
def test_batch_scores_honour_equivalence_contract(
    backend, seed, num_entities, extra_edges, theta
):
    reference, candidate, nodes = _engines(
        seed, num_entities, extra_edges, backend, theta=theta
    )
    u = nodes[0]
    _assert_contract(
        backend,
        reference.score_batch(u, nodes[1:]),
        candidate.score_batch(u, nodes[1:]),
    )


@pytest.mark.parametrize("backend", RUNNABLE)
@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    theta=st.sampled_from([None, 0.05, 0.3]),
    workload_seed=st.integers(0, 1_000),
)
def test_mixed_source_pairs_honour_equivalence_contract(
    backend, seed, num_entities, extra_edges, theta, workload_seed
):
    """One ``score_pairs`` call over pairs from many sources — identity
    pairs and θ-gated pairs (``root`` has ``sem`` 0 with every node)
    included — equals the backend's own per-walk loop bit for bit and
    honours its contract against the numpy reference."""
    reference, candidate, nodes = _engines(
        seed, num_entities, extra_edges, backend, theta=theta
    )
    rng = np.random.default_rng(workload_seed)
    pick = lambda: nodes[int(rng.integers(len(nodes)))]  # noqa: E731
    pairs = [(pick(), pick()) for _ in range(30)]
    pairs += [(v, v) for v in nodes[:2]] + [("root", pick()), (pick(), "root")]
    us, vs = zip(*pairs)
    served = candidate.score_pairs(us, vs)
    assert served.tolist() == [candidate.score(u, v) for u, v in pairs]
    _assert_contract(
        backend, [reference.score(u, v) for u, v in pairs], served
    )


@pytest.mark.parametrize("backend", RUNNABLE)
@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 9),
    extra_edges=st.integers(4, 12),
    max_batch=st.sampled_from([1, 3, 8]),
    workload_seed=st.integers(0, 1_000),
)
def test_runtime_serves_reference_scores_on_every_backend(
    backend, seed, num_entities, extra_edges, max_batch, workload_seed
):
    """The coalescer-identity claim, per backend: whatever the micro-batch
    grouping, a served score equals the same backend's direct score and
    honours the backend's contract against the numpy reference."""
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    engine_kwargs = dict(
        method="mc", num_walks=20, length=5, seed=seed,
        backend=KERNELS[backend](),
    )
    manager = IndexManager(
        graph, measure, engine_kwargs=engine_kwargs, background_rebuild=False
    )
    runtime = ServingRuntime(
        manager, max_batch=max_batch, max_wait_us=0, queue_depth=10_000,
        autostart=False,
    )
    engine = manager.acquire().engine
    reference = QueryEngine(
        graph, measure, method="mc", num_walks=20, length=5, seed=seed,
        backend=NumpyBackend(),
    )
    nodes = sorted(graph.nodes(), key=str)
    rng = np.random.default_rng(workload_seed)
    pairs = [
        (
            nodes[int(rng.integers(len(nodes)))],
            nodes[int(rng.integers(len(nodes)))],
        )
        for _ in range(20)
    ]
    futures = [runtime.submit_score(u, v) for u, v in pairs]
    runtime.close(drain=True)
    for (u, v), future in zip(pairs, futures):
        served = future.result(timeout=1).value
        assert served == engine.score(u, v)
        _assert_contract(backend, reference.score(u, v), served)


@pytest.mark.concurrency
@pytest.mark.parametrize("backend", RUNNABLE)
def test_backend_thread_stress_bit_stable(backend):
    """Hammer one shared engine from many threads: per-thread scratch must
    keep every concurrent answer equal to the single-threaded one."""
    graph, measure = random_hin_with_measure(7, num_entities=10, extra_edges=14)
    engine = QueryEngine(
        graph, measure, method="mc", num_walks=40, length=8, seed=7,
        backend=KERNELS[backend](),
    )
    nodes = sorted(graph.nodes(), key=str)
    sources = nodes[:4]
    expected = {u: np.asarray(engine.score_batch(u, nodes)) for u in sources}

    num_threads, rounds = 8, 5
    barrier = threading.Barrier(num_threads)
    failures: list[str] = []

    def worker(thread_id: int) -> None:
        barrier.wait()
        for round_id in range(rounds):
            u = sources[(thread_id + round_id) % len(sources)]
            got = np.asarray(engine.score_batch(u, nodes))
            if not np.array_equal(got, expected[u]):
                failures.append(
                    f"thread {thread_id} round {round_id} source {u!r}"
                )

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(num_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures
