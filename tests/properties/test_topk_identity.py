"""Property tests: the engine's array top-k equals the scalar scan.

``QueryEngine.top_k`` runs :func:`~repro.core.topk.top_k_scan` — one
lexsort of the Prop. 2.5 bounds, blocks scored through
``score_positions`` and the stop found by a search inside the block.
:func:`~repro.core.topk.top_k_similar`, the per-candidate heap scan, is
its oracle: fed the same floats (each candidate's score read from one
``score_batch`` over the pool) and the engine's measure, it must return
the same nodes, in the same order, with the same floats — for every k up
to past the pool size, with the source among the candidates, over
candidate subsets, a lazy measure and no measure at all, and whatever the
scan's block length.  The θ-gated cases put runs of 0.0 scores on the
k-th place, where only the ``(score, str(node))`` tie rule decides.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import QueryEngine
from repro.core import topk
from repro.core.topk import top_k_similar

from tests.conftest import random_hin_with_measure

COMMON = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: ``None`` keeps the module's block length; 1 and 7 put block edges
#: everywhere, so a stop inside a block and on its first candidate both
#: occur.
BLOCKS = [None, 1, 7]


def _engine(family, graph, measure, seed, theta):
    kwargs = dict(num_walks=20, length=5, seed=seed, theta=theta)
    if family == "simrank":
        return QueryEngine(graph, None, **kwargs)
    if family == "iterative":
        return QueryEngine(graph, measure, method="iterative", decay=0.6)
    return QueryEngine(
        graph, measure, materialize_semantics=family == "mc", **kwargs
    )


def _oracle(engine, u, candidates, k):
    """``top_k_similar`` over ``score_batch``'s floats and the engine's
    measure, and how many candidates it scored."""
    table = dict(zip(candidates, engine.score_batch(u, candidates).tolist()))
    scored = []

    def score(_u, v):
        scored.append(v)
        return table[v]

    ranked = top_k_similar(u, candidates, k, score, measure=engine.measure)
    return ranked, len(scored)


def _top_k(engine, u, k, candidates, block):
    """The engine's top-k, and how many candidates its blocks scored."""
    before = engine.stats.batch_pairs
    if block is None:
        ranked = engine.top_k(u, k, candidates=candidates)
    else:
        with mock.patch.object(topk, "SCAN_BLOCK", block):
            ranked = engine.top_k(u, k, candidates=candidates)
    return ranked, engine.stats.batch_pairs - before


def _assert_same_scan(engine, u, k, candidates, block, subset=True):
    """*subset* False asks the engine for its default pool, every node."""
    expected, consumed = _oracle(engine, u, candidates, k)
    got, scored = _top_k(engine, u, k, candidates if subset else None, block)
    assert got == expected, (k, got, expected)
    # the scan stops where the heap scan stops: every block up to the
    # stop is scored, none after it
    size = block or topk.SCAN_BLOCK
    pool = sum(1 for v in candidates if v != u)
    assert scored == min(pool, -(-consumed // size) * size), (k, scored)


@pytest.mark.parametrize("block", BLOCKS)
@COMMON
@given(
    family=st.sampled_from(["mc", "mc-lazy", "simrank", "iterative"]),
    seed=st.integers(0, 10_000),
    num_entities=st.integers(4, 14),
    extra_edges=st.integers(4, 20),
    theta=st.sampled_from([None, 0.05, 0.3]),
    subset=st.booleans(),
    workload_seed=st.integers(0, 1_000),
)
def test_engine_top_k_equals_scalar_scan(
    block, family, seed, num_entities, extra_edges, theta, subset,
    workload_seed,
):
    graph, measure = random_hin_with_measure(
        seed, num_entities=num_entities, extra_edges=extra_edges
    )
    engine = _engine(family, graph, measure, seed, theta)
    nodes = list(graph.nodes())
    rng = np.random.default_rng(workload_seed)
    u = nodes[int(rng.integers(len(nodes)))]
    if subset:
        keep = rng.random(len(nodes)) < 0.6
        candidates = [v for v, kept in zip(nodes, keep) if kept] + [u]
    else:
        candidates = nodes
    for k in range(1, len(candidates) + 2):
        _assert_same_scan(engine, u, k, candidates, block, subset)


@pytest.mark.parametrize("block", BLOCKS)
def test_gated_zeros_on_the_kth_place(block):
    """Most pairs are θ-gated to 0.0, so zeros tie on the k-th place and
    the larger ``str(node)`` must stay — ``e10`` sorts before ``e2``."""
    graph, measure = random_hin_with_measure(
        3, num_entities=14, extra_edges=16
    )
    engine = _engine("mc", graph, measure, 3, 0.3)
    nodes = list(graph.nodes())
    tied = 0
    for u in nodes:
        table = dict(zip(nodes, engine.score_batch(u, nodes).tolist()))
        for k in range(1, len(nodes) + 1):
            _assert_same_scan(engine, u, k, nodes, block, subset=False)
            scores = sorted(
                (value for v, value in table.items() if v != u), reverse=True
            )
            if k < len(scores) and scores[k - 1] == scores[k] == 0.0:
                tied += 1
    assert tied > 0
