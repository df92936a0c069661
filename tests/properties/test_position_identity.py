"""Property tests: the position entry points equal the name methods.

``QueryEngine.score_positions`` is what the coalescer, the shard workers
and the top-k scan call; ``score_batch`` / ``score_pairs`` resolve names
and call it.  This suite holds the position forms to the name methods of
the same kind — a shared source to ``score_batch``, per-pair sources to
``score_pairs`` — bit for bit and stats delta for stats delta, on every
engine family: MC SemSim over a materialised ``sem``, MC SemSim over a
lazy measure (the scalar fallback), MC SimRank and the iterative table.
Two engines built identically answer the two forms, so their work
counters must move in step.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import QueryEngine

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

FAMILIES = ("mc", "mc-lazy", "simrank", "iterative")


def _engine(family, graph, measure, seed, theta):
    if family == "iterative":
        return QueryEngine(graph, measure, method="iterative", decay=0.6)
    kwargs = dict(num_walks=20, length=5, seed=seed, theta=theta)
    if family == "simrank":
        return QueryEngine(graph, None, **kwargs)
    return QueryEngine(
        graph, measure, materialize_semantics=family == "mc", **kwargs
    )


def _pair(family, seed, num_entities, extra_edges, theta):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    by_name = _engine(family, graph, measure, seed, theta)
    by_position = _engine(family, graph, measure, seed, theta)
    return by_name, by_position, list(graph.nodes())


def _assert_same(by_name, by_position, named, positional):
    np.testing.assert_array_equal(named, positional)
    assert named.dtype == positional.dtype == np.float64
    assert by_name.stats.as_dict() == by_position.stats.as_dict()


@COMMON
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    theta=st.sampled_from([None, 0.05, 0.3]),
    workload_seed=st.integers(0, 1_000),
)
def test_shared_source_equals_score_batch(
    family, seed, num_entities, extra_edges, theta, workload_seed
):
    """A shared source returns ``score_batch``'s floats and stats deltas —
    the source itself (an identity pair) and ``root`` (``sem`` 0 with
    every node, so θ-gated) among the candidates, and an empty batch."""
    by_name, by_position, nodes = _pair(
        family, seed, num_entities, extra_edges, theta
    )
    position = {node: i for i, node in enumerate(nodes)}
    rng = np.random.default_rng(workload_seed)
    for _ in range(3):
        u = nodes[int(rng.integers(len(nodes)))]
        candidates = [nodes[int(i)] for i in rng.integers(len(nodes), size=12)]
        candidates += [u, "root"]
        named = by_name.score_batch(u, candidates)
        positional = by_position.score_positions(
            position[u], [position[v] for v in candidates]
        )
        _assert_same(by_name, by_position, named, positional)
    named = by_name.score_batch(nodes[0], [])
    positional = by_position.score_positions(0, np.empty(0, dtype=np.int64))
    _assert_same(by_name, by_position, named, positional)


@COMMON
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 10),
    extra_edges=st.integers(4, 16),
    theta=st.sampled_from([None, 0.05, 0.3]),
    workload_seed=st.integers(0, 1_000),
)
def test_per_pair_sources_equal_score_pairs(
    family, seed, num_entities, extra_edges, theta, workload_seed
):
    """Per-pair sources return ``score_pairs``'s floats and stats deltas,
    and every entry equals scalar ``score`` — identity pairs, θ-gated
    pairs and an empty call included."""
    by_name, by_position, nodes = _pair(
        family, seed, num_entities, extra_edges, theta
    )
    position = {node: i for i, node in enumerate(nodes)}
    rng = np.random.default_rng(workload_seed)
    pick = lambda: nodes[int(rng.integers(len(nodes)))]  # noqa: E731
    pairs = [(pick(), pick()) for _ in range(20)]
    pairs += [(v, v) for v in nodes[:2]] + [("root", pick()), (pick(), "root")]
    us, vs = zip(*pairs)
    named = by_name.score_pairs(us, vs)
    positional = by_position.score_positions(
        [position[u] for u in us], [position[v] for v in vs]
    )
    _assert_same(by_name, by_position, named, positional)
    named_empty = by_name.score_pairs([], [])
    positional_empty = by_position.score_positions([], [])
    _assert_same(by_name, by_position, named_empty, positional_empty)
    assert positional.tolist() == [by_name.score(u, v) for u, v in pairs]
