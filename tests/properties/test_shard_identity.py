"""Property tests: sharded serving is bit-identical to the unsharded engine.

The tentpole soundness claim of the multi-process layer: however the node
axis is cut — one shard, many shards, wildly uneven ranges — and whatever
the estimator (semantic SemSim or plain SimRank, both Monte-Carlo),
scatter-gathered single-pair scores, batch scores, and the merged top-k
are **exactly** the unsharded ``QueryEngine``'s floats and orderings.

Per-candidate batch scores never depend on their batch-mates (each row's
factor chain and reduction read only that row), so scattering candidates
by owner cannot perturb them; the top-k merge re-selects the global k
from exact per-shard top-k lists under the same ``(value, str(node))``
total order the unsharded heap uses.  These tests hold both to ``==``.

Single-pair requests of one micro-batch, whatever their sources, scatter
as ``(source, candidate)`` pairs to the shards owning the candidates and
are answered by ``score_pairs`` there, whose every entry equals scalar
``score`` — so their reference is ``score(u, v)`` itself, for SemSim and
plain SimRank alike.  Identity pairs, θ-gated pairs and unknown nodes
(which fail only their own request) ride the same micro-batch.

Workers run on in-process threads (the same ``shard_worker_main`` the
forked workers execute) and dispatch is inline, so hypothesis explores
plans and estimators with zero interleaving noise.  The shard workers'
compute backend is drawn too — every ``exact`` backend must uphold the
guarantee, with one source per pair.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import QueryEngine
from repro.errors import NodeNotFoundError
from repro.sched import ShardedRuntime, ThreadShardWorker
from repro.serve import IndexManager, QueryService
from repro.store import ShardPlan

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Shard-count specs from the issue: 1, 2, 5, plus drawn uneven ranges.
SHARD_SPECS = st.one_of(
    st.sampled_from([1, 2, 5]),
    st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
)


def _plan_from_spec(spec, num_nodes) -> ShardPlan:
    if isinstance(spec, int):
        return ShardPlan.even(num_nodes, min(spec, num_nodes))
    # uneven: the drawn ints are relative range widths over the node axis
    weights = np.asarray(spec, dtype=np.float64)
    cuts = np.cumsum(weights) / weights.sum() * num_nodes
    boundaries, lo = [], 0
    for cut in cuts[:-1]:
        hi = int(round(cut))
        if hi > lo:
            boundaries.append((lo, hi))
            lo = hi
    boundaries.append((lo, num_nodes))
    return ShardPlan.from_boundaries(num_nodes, boundaries)


@COMMON
@given(
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 9),
    extra_edges=st.integers(4, 14),
    semantic=st.booleans(),
    spec=SHARD_SPECS,
    workload_seed=st.integers(0, 1_000),
    # every exact backend must uphold the guarantee
    backend=st.sampled_from(["numpy", "blocked"]),
)
def test_sharded_results_bit_identical_to_unsharded(
    seed, num_entities, extra_edges, semantic, spec, workload_seed, backend
):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    if not semantic:
        measure = None
    engine_kwargs = dict(method="mc", num_walks=20, length=5, seed=seed)
    engine = QueryEngine(graph, measure, **engine_kwargs)
    nodes = list(graph.nodes())
    plan = _plan_from_spec(spec, len(nodes))

    root = Path(tempfile.mkdtemp(prefix="shard-identity-"))
    try:
        parent = root / "parent"
        engine.save(parent)
        manager = IndexManager(
            graph, measure,
            engine_kwargs=dict(engine_kwargs),
            background_rebuild=False,
        )
        runtime = ShardedRuntime(
            QueryService(manager), parent, plan,
            worker_factory=ThreadShardWorker, autostart=False,
            max_batch=16, queue_depth=10_000, backend=backend,
        )
        rng = np.random.default_rng(workload_seed)
        sources = [nodes[int(rng.integers(len(nodes)))] for _ in range(3)]

        # one mixed-source micro-batch of pairs (max_batch=16), with an
        # identity pair and unknown nodes on either side mixed in
        pairs = [
            (u, nodes[int(rng.integers(len(nodes)))])
            for u in sources
            for _ in range(4)
        ] + [(sources[0], sources[0]), ("ghost", sources[1]),
             (sources[2], "ghost")]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        score_futures = [(u, v, runtime.submit_score(u, v)) for u, v in pairs]
        batch_futures = [(u, runtime.submit_batch(u, nodes)) for u in sources]
        ks = [1, 3, len(nodes)]
        topk_futures = [
            (u, k, runtime.submit_topk(u, k)) for u in sources for k in ks
        ]
        runtime.close(drain=True)

        for u, v, future in score_futures:
            if "ghost" in (u, v):
                with pytest.raises(NodeNotFoundError, match="ghost"):
                    future.result(timeout=5)
                continue
            response = future.result(timeout=5)
            assert response.value == engine.score(u, v)
            assert not response.degraded
        for u, future in batch_futures:
            np.testing.assert_array_equal(
                np.asarray(future.result(timeout=5).values),
                engine.score_batch(u, nodes),
            )
        for u, k, future in topk_futures:
            assert list(future.result(timeout=5).results) == engine.top_k(u, k)
    finally:
        shutil.rmtree(root, ignore_errors=True)
