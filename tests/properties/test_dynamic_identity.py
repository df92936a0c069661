"""Property tests: incremental maintenance is distribution-identical.

The dynamic walk index's contract is *bit-identity*, not statistical
similarity: after any schedule of mutations, the repaired walk tensor
must equal — element for element — the tensor a fresh
:class:`~repro.core.WalkIndex` samples on the mutated graph under the
same seed.  That holds because walks are a pure function of
(per-node draw blocks, transition tables): the dynamic index regenerates
the original draw blocks from the seed schedule and re-steps exactly the
walks whose transition rows changed.

Hypothesis drives randomized mutation schedules (edge insert, delete,
re-weight, node add) across both walk policies; estimator-level identity
is checked on top — an estimator over the repaired index returns the
very same floats as one over the cold rebuild.  A SemSim engine carries
its step tables and ``SO`` matrix across generation swaps instead of
rebuilding them; those carried tables, too, must equal a cold engine's
element for element.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.api import QueryEngine
from repro.core import DynamicWalkIndex, MonteCarloSimRank, WalkIndex
from repro.core.metrics import ESTIMATOR_TABLES_BUILT
from repro.core.walk_index import WalkPolicy
from repro.hin import HIN
from repro.sched import ServingRuntime
from repro.semantics.cache import MatrixMeasure
from repro.serve import IndexManager, QueryService

COMMON = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

POLICIES = [WalkPolicy.UNIFORM, WalkPolicy.WEIGHTED]


def base_graph(seed: int, num_nodes: int, num_edges: int) -> HIN:
    """A deterministic random digraph (isolated nodes allowed)."""
    rng = np.random.default_rng(seed)
    g = HIN()
    nodes = [f"n{i}" for i in range(num_nodes)]
    for node in nodes:
        g.add_node(node)
    for _ in range(num_edges):
        i, j = rng.integers(num_nodes, size=2)
        if i == j:
            continue
        g.add_edge(nodes[int(i)], nodes[int(j)],
                   weight=float(rng.integers(1, 5)))
    return g


def apply_schedule(dynamic: DynamicWalkIndex, schedule_seed: int,
                   num_mutations: int) -> list:
    """Apply a deterministic random mutation schedule; return the log.

    Every mutation kind stays reachable: inserts target existing or brand
    new nodes, deletes and re-weights pick a live edge when one exists,
    node adds create danglers that later inserts may wire in.
    """
    rng = np.random.default_rng(schedule_seed)
    applied = []
    next_new = 0
    for _ in range(num_mutations):
        kind = rng.choice(["add_edge", "remove_edge", "set_weight",
                           "add_node", "add_edge_new_node"])
        nodes = list(dynamic.graph.nodes())
        edges = list(dynamic.graph.edges())
        if kind == "add_edge":
            u, v = rng.choice(len(nodes), size=2)
            if u == v:
                continue
            dynamic.add_edge(nodes[int(u)], nodes[int(v)],
                             weight=float(rng.integers(1, 5)))
        elif kind == "remove_edge":
            if not edges:
                continue
            u, v, _w, _label = edges[int(rng.integers(len(edges)))]
            dynamic.remove_edge(u, v)
        elif kind == "set_weight":
            if not edges:
                continue
            u, v, _w, _label = edges[int(rng.integers(len(edges)))]
            dynamic.set_weight(u, v, float(rng.integers(1, 5)))
        elif kind == "add_node":
            dynamic.add_node(f"fresh{next_new}")
            next_new += 1
        else:  # add_edge_new_node: edge into a node the index never saw
            u = nodes[int(rng.integers(len(nodes)))]
            dynamic.add_edge(u, f"fresh{next_new}")
            next_new += 1
        applied.append(kind)
    return applied


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    walk_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    num_nodes=st.integers(4, 12),
    num_edges=st.integers(3, 20),
    num_mutations=st.integers(1, 12),
    policy=st.sampled_from(POLICIES),
)
def test_mutated_tensor_bit_identical_to_cold_rebuild(
    graph_seed, walk_seed, schedule_seed, num_nodes, num_edges,
    num_mutations, policy,
):
    dynamic = DynamicWalkIndex(
        base_graph(graph_seed, num_nodes, num_edges),
        num_walks=15, length=5, policy=policy, seed=walk_seed,
    )
    applied = apply_schedule(dynamic, schedule_seed, num_mutations)
    fresh = WalkIndex(
        dynamic.graph, num_walks=15, length=5, policy=policy, seed=walk_seed,
    )
    assert dynamic.walks.shape == fresh.walks.shape
    assert np.array_equal(dynamic.walks, fresh.walks), applied
    assert dynamic.epoch == len(applied)
    # the incrementally re-derived graph snapshot equals a fresh one
    index, cold = dynamic.index, fresh.index
    assert (index.nodes, index.position, index.labels) == (
        cold.nodes, cold.position, cold.labels
    )
    for rows, cold_rows in ((index.in_lists, cold.in_lists),
                            (index.in_weights, cold.in_weights)):
        assert all(map(np.array_equal, rows, cold_rows))


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    policy=st.sampled_from(POLICIES),
)
def test_estimator_floats_bit_identical_to_cold_rebuild(
    graph_seed, schedule_seed, policy,
):
    dynamic = DynamicWalkIndex(
        base_graph(graph_seed, 8, 14),
        num_walks=20, length=6, policy=policy, seed=graph_seed,
    )
    apply_schedule(dynamic, schedule_seed, 6)
    fresh = WalkIndex(
        dynamic.graph, num_walks=20, length=6, policy=policy, seed=graph_seed,
    )
    via_dynamic = MonteCarloSimRank(dynamic, decay=0.6)
    via_fresh = MonteCarloSimRank(fresh, decay=0.6)
    nodes = list(dynamic.graph.nodes())[:6]
    for u in nodes:
        for v in nodes:
            assert via_dynamic.similarity(u, v) == via_fresh.similarity(u, v)
        assert np.array_equal(
            via_dynamic.similarity_batch(u, nodes),
            via_fresh.similarity_batch(u, nodes),
        )


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    walk_seed=st.integers(0, 10_000),
    policy=st.sampled_from(POLICIES),
)
def test_delete_then_reinsert_matches_cold_rebuild(
    graph_seed, walk_seed, policy,
):
    graph = base_graph(graph_seed, 8, 14)
    edges = list(graph.edges())
    if not edges:
        return
    dynamic = DynamicWalkIndex(
        graph, num_walks=15, length=5, policy=policy, seed=walk_seed,
    )
    u, v, weight, label = edges[0]
    dynamic.remove_edge(u, v)
    dynamic.add_edge(u, v, weight=weight, label=label)
    assert dynamic.graph.has_edge(u, v)
    fresh = WalkIndex(
        dynamic.graph, num_walks=15, length=5, policy=policy, seed=walk_seed,
    )
    assert np.array_equal(dynamic.walks, fresh.walks)


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    walk_seed=st.integers(0, 10_000),
    policy=st.sampled_from(POLICIES),
)
def test_dangling_node_walks_stay_put(graph_seed, walk_seed, policy):
    """A freshly added isolated node gets a walk set pinned at itself."""
    dynamic = DynamicWalkIndex(
        base_graph(graph_seed, 6, 10),
        num_walks=10, length=4, policy=policy, seed=walk_seed,
    )
    dynamic.add_node("island")
    walks = dynamic.walks_from("island")
    position = dynamic.node_position("island")
    assert np.all(walks[:, 0] == position)
    assert np.all(walks[:, 1:] == -1)  # no in-edges: every walk dies at once
    fresh = WalkIndex(
        dynamic.graph, num_walks=10, length=4, policy=policy, seed=walk_seed,
    )
    assert np.array_equal(dynamic.walks, fresh.walks)
    # wiring the island in revives its walks, still bit-identically
    dynamic.add_edge("n0", "island")
    fresh2 = WalkIndex(
        dynamic.graph, num_walks=10, length=4, policy=policy, seed=walk_seed,
    )
    assert np.array_equal(dynamic.walks, fresh2.walks)


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    split=st.integers(1, 5),
)
def test_generation_chain_bit_identical(graph_seed, schedule_seed, split):
    """Promoting mid-schedule (gen-1 -> gen-2) changes nothing bitwise."""
    chained = DynamicWalkIndex(
        base_graph(graph_seed, 8, 14), num_walks=15, length=5, seed=graph_seed,
    )
    apply_schedule(chained, schedule_seed, split)
    promoted = DynamicWalkIndex.from_walk_index(chained)
    fresh = WalkIndex(promoted.graph, num_walks=15, length=5, seed=graph_seed)
    assert np.array_equal(promoted.walks, fresh.walks)
    assert promoted.epoch == chained.epoch
    # and mutating the promoted generation keeps the invariant
    promoted.add_edge("n0", "n1", weight=2.0)
    fresh2 = WalkIndex(promoted.graph, num_walks=15, length=5, seed=graph_seed)
    assert np.array_equal(promoted.walks, fresh2.walks)


def dense_measure(graph: HIN, seed: int) -> MatrixMeasure:
    """A symmetric ``sem`` with unit diagonal and distinct off-diagonal floats."""
    nodes = list(graph.nodes())
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(0.01, 1.0, (len(nodes), len(nodes))), 1)
    return MatrixMeasure(nodes, upper + upper.T + np.eye(len(nodes)))


def mutation_batch(graph: HIN, rng, kinds, size: int) -> list:
    """*size* mutations between existing nodes, applied to *graph* as drawn.

    Re-weights and deletes pick a live edge; an insert may also hit an
    existing edge, which re-weights it.
    """
    nodes = list(graph.nodes())
    batch = []
    for _ in range(size):
        edges = list(graph.edges())
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "insert" or not edges:
            u, v = rng.choice(len(nodes), size=2, replace=False)
            u, v = nodes[int(u)], nodes[int(v)]
            weight = float(rng.integers(1, 5))
            graph.add_edge(u, v, weight=weight)
            batch.append(("add_edge", u, v, weight))
            continue
        u, v, weight, _label = edges[int(rng.integers(len(edges)))]
        if kind == "delete":
            graph.remove_edge(u, v)
            batch.append(("remove_edge", u, v))
        else:
            weight += float(rng.integers(1, 4))
            graph.add_edge(u, v, weight=weight)
            batch.append(("set_weight", u, v, weight))
    return batch


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    policy=st.sampled_from(POLICIES),
    kinds=st.sampled_from(
        [("insert", "reweight", "delete"), ("reweight",), ("insert",)]
    ),
    generations=st.integers(1, 4),
    in_place=st.booleans(),
)
@example(
    graph_seed=7, schedule_seed=1, policy=WalkPolicy.UNIFORM,
    kinds=("reweight",), generations=3, in_place=False,
)
def test_carried_estimator_tables_bit_identical_to_cold_engine(
    graph_seed, schedule_seed, policy, kinds, generations, in_place,
):
    graph = base_graph(graph_seed, 10, 24)
    measure = dense_measure(graph, graph_seed)
    kwargs = dict(num_walks=20, length=6, policy=policy, seed=graph_seed)
    engine = QueryEngine(graph, measure, **kwargs)
    nodes = list(graph.nodes())
    engine.score_batch(nodes[0], nodes)  # builds generation 0's tables
    rng = np.random.default_rng(schedule_seed)
    replica = graph.copy()
    carried = ESTIMATOR_TABLES_BUILT.labels(mode="carried")
    for _ in range(generations):
        batch = mutation_batch(replica, rng, kinds, int(rng.integers(1, 4)))
        before = carried.value
        if in_place:
            for kind, *args in batch:
                engine.apply_mutation(kind, *args)
        else:
            engine = engine.with_mutations(batch)
        # the swap carried both tables; nothing is left for a first batch
        assert carried.value - before == (len(batch) if in_place else 1) * 2
        assert engine.estimator._step_weights is not None
        assert engine.estimator._so_matrix is not None
    cold = QueryEngine(replica, measure, **kwargs)
    cold.score_batch(nodes[0], nodes)
    assert np.array_equal(engine.walk_index.walks, cold.walk_index.walks)
    assert np.array_equal(
        engine.estimator._step_weights, cold.estimator._step_weights
    )
    assert np.array_equal(engine.estimator._step_q, cold.estimator._step_q)
    assert np.array_equal(
        engine.estimator._so_matrix, cold.estimator._so_matrix
    )
    for u in nodes:
        assert np.array_equal(
            engine.score_batch(u, nodes), cold.score_batch(u, nodes)
        )


@COMMON
@given(
    graph_seed=st.integers(0, 10_000),
    schedule_seed=st.integers(0, 10_000),
    policy=st.sampled_from(POLICIES),
    generations=st.integers(1, 3),
    max_batch=st.sampled_from([4, 32]),
)
def test_coalesced_mixed_source_scores_after_swaps_match_cold_rebuild(
    graph_seed, schedule_seed, policy, generations, max_batch,
):
    """Generation swaps through the serving stack, then micro-batches of
    pairs from many sources: the mutated generation's pairwise kernel
    path (``first_meetings_pairs`` on the dynamic index) answers each
    pair with a cold engine's floats on the mutated graph."""
    graph = base_graph(graph_seed, 10, 24)
    measure = dense_measure(graph, graph_seed)
    kwargs = dict(num_walks=20, length=6, policy=policy, seed=graph_seed)
    manager = IndexManager(
        graph, measure, engine_kwargs=dict(kwargs), background_rebuild=False
    )
    runtime = ServingRuntime(
        QueryService(manager), max_batch=max_batch, max_wait_us=0,
        queue_depth=10_000, autostart=False,
    )
    rng = np.random.default_rng(schedule_seed)
    replica = graph.copy()
    kinds = ("insert", "reweight", "delete")
    for _ in range(generations):
        runtime.apply_mutations(
            mutation_batch(replica, rng, kinds, int(rng.integers(1, 4)))
        )
    nodes = list(graph.nodes())
    pairs = [
        (nodes[int(a)], nodes[int(b)])
        for a, b in rng.integers(len(nodes), size=(40, 2))
    ] + [(v, v) for v in nodes[:2]]
    futures = [runtime.submit_score(u, v) for u, v in pairs]
    runtime.close(drain=True)
    cold = QueryEngine(replica, measure, **kwargs)
    for (u, v), future in zip(pairs, futures):
        assert future.result(timeout=1).value == cold.score(u, v)


def test_uniform_reweight_restamps_tables_without_restepping():
    """Re-weighting under UNIFORM moves no walk but changes W and SO."""
    graph = base_graph(3, 10, 24)
    measure = dense_measure(graph, 3)
    kwargs = dict(num_walks=20, length=6, policy=WalkPolicy.UNIFORM, seed=3)
    engine = QueryEngine(graph, measure, **kwargs)
    nodes = list(graph.nodes())
    engine.score_batch(nodes[0], nodes)
    target = max(nodes, key=graph.in_degree)
    source = graph.in_neighbors(target)[0]
    weight = graph.edge_weight(source, target) + 5.0
    swapped = engine.with_mutations([("set_weight", source, target, weight)])
    assert swapped.walk_index.walks_resampled == 0
    assert not np.array_equal(
        swapped.estimator._step_weights, engine.estimator._step_weights
    )
    position = swapped.walk_index.node_position(target)
    assert not np.array_equal(
        swapped.estimator._so_matrix[position],
        engine.estimator._so_matrix[position],
    )
    replica = graph.copy()
    replica.add_edge(source, target, weight=weight)
    cold = QueryEngine(replica, measure, **kwargs)
    cold.score_batch(nodes[0], nodes)
    assert np.array_equal(
        swapped.estimator._step_weights, cold.estimator._step_weights
    )
    assert np.array_equal(
        swapped.estimator._so_matrix, cold.estimator._so_matrix
    )
