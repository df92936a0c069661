"""Property tests: coalesced micro-batches are bit-identical to scalar.

The scheduler's core soundness claim: however requests are grouped into
micro-batches — whatever the ``max_batch`` boundary, the estimator, the
seed, or the mix of sources — every response carries **exactly** the
value a sequential ``score()`` call returns.  This extends the PR 1
batch-vs-scalar guarantee (``tests/properties/test_batch_vs_scalar.py``)
up through the scheduling layer: grouping, group ordering, and the
merged ``score_pairs`` dispatch — one call over every single-pair request
of a micro-batch, whatever its source — must never perturb a single bit.

Dispatch here is inline (``autostart=False`` + ``close(drain=True)``),
so hypothesis explores the coalescer's full decision space with no
thread-interleaving noise; the thread-level version of the same claim is
``tests/sched/test_concurrency.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import NodeNotFoundError
from repro.sched import ServingRuntime
from repro.serve import IndexManager, QueryService

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _runtime(seed, num_entities, extra_edges, method, max_batch, theta=0.05):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    manager = IndexManager(
        graph, measure,
        engine_kwargs=dict(
            method=method, num_walks=20, length=5, seed=seed, theta=theta
        ),
        background_rebuild=False,
    )
    service = QueryService(manager)
    runtime = ServingRuntime(
        service, max_batch=max_batch, max_wait_us=0, queue_depth=10_000,
        autostart=False,
    )
    engine = manager.acquire().engine
    nodes = sorted(graph.nodes(), key=str)
    return runtime, engine, nodes


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    method=st.sampled_from(["iterative", "mc"]),
    max_batch=st.sampled_from([1, 3, 7, 16]),
    workload_seed=st.integers(0, 1_000),
)
def test_coalesced_scores_bit_identical_to_sequential(
    seed, num_entities, extra_edges, method, max_batch, workload_seed
):
    runtime, engine, nodes = _runtime(
        seed, num_entities, extra_edges, method, max_batch
    )
    rng = np.random.default_rng(workload_seed)
    # few hot sources -> heavy merging; targets roam the whole graph
    sources = nodes[: max(1, len(nodes) // 3)]
    pairs = [
        (
            sources[int(rng.integers(len(sources)))],
            nodes[int(rng.integers(len(nodes)))],
        )
        for _ in range(30)
    ]
    futures = [runtime.submit_score(u, v) for u, v in pairs]
    runtime.close(drain=True)
    for (u, v), future in zip(pairs, futures):
        assert future.result(timeout=1).value == engine.score(u, v)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    method=st.sampled_from(["iterative", "mc"]),
    theta=st.sampled_from([None, 0.05, 0.3]),
    max_batch=st.sampled_from([1, 5, 32]),
    workload_seed=st.integers(0, 1_000),
)
def test_mixed_source_pairs_bit_identical_with_gates_and_unknowns(
    seed, num_entities, extra_edges, method, theta, max_batch, workload_seed
):
    """Pairs from every source share micro-batches with identity pairs,
    θ-gated pairs (``root`` has ``sem`` 0 with every node) and unknown
    nodes; each known pair equals its scalar score, each unknown one
    fails alone."""
    runtime, engine, nodes = _runtime(
        seed, num_entities, extra_edges, method, max_batch, theta=theta
    )
    rng = np.random.default_rng(workload_seed)
    pick = lambda: nodes[int(rng.integers(len(nodes)))]  # noqa: E731
    pairs = [(pick(), pick()) for _ in range(24)]
    pairs += [(v, v) for v in nodes[:3]]
    pairs += [("root", pick()), (pick(), "root")]
    pairs += [("ghost", pick()), (pick(), "ghost")]
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    futures = [runtime.submit_score(u, v) for u, v in pairs]
    runtime.close(drain=True)
    for (u, v), future in zip(pairs, futures):
        if "ghost" in (u, v):
            with pytest.raises(NodeNotFoundError, match="ghost"):
                future.result(timeout=1)
        else:
            assert future.result(timeout=1).value == engine.score(u, v)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 9),
    extra_edges=st.integers(4, 12),
    method=st.sampled_from(["iterative", "mc"]),
    max_batch=st.sampled_from([1, 2, 5, 8]),
)
def test_mixed_kind_batches_bit_identical(
    seed, num_entities, extra_edges, method, max_batch
):
    runtime, engine, nodes = _runtime(
        seed, num_entities, extra_edges, method, max_batch
    )
    u = nodes[0]
    candidates = nodes[1:5]
    f_scores = [runtime.submit_score(u, v) for v in candidates]
    f_batch = runtime.submit_batch(u, candidates)
    f_topk = runtime.submit_topk(u, min(3, len(candidates)))
    runtime.close(drain=True)
    for v, future in zip(candidates, f_scores):
        assert future.result(timeout=1).value == engine.score(u, v)
    np.testing.assert_array_equal(
        f_batch.result(timeout=1).values, engine.score_batch(u, list(candidates))
    )
    assert f_topk.result(timeout=1).results == tuple(
        engine.top_k(u, min(3, len(candidates)))
    )
