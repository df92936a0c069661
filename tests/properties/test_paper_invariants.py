"""The paper-invariant campaign: analytical guarantees as serving contracts.

``test_theorems.py`` checks the paper's claims against the core solvers;
this module asserts the same invariants hold for *whatever the library
hands a caller* — the :class:`~repro.api.QueryEngine` facade in both
methods, and the resilient serving layer even while it is degraded by
injected faults.  A bug anywhere in the stack (estimator, caching,
fallback swap) that breaks symmetry or one of the semantic upper bounds
fails here, on seeded random HINs.

Invariants under test:

* **symmetry** — ``sim(u, v) = sim(v, u)`` (Theorem 2.3(1));
* **Prop. 2.5** — ``sim(u, v) <= sem(u, v)``;
* **Thm. 2.3(5)** — off the diagonal, ``sim(u, v) <= c * sem(u, v)``
  (every contributing walk takes at least one decayed step);
* **Thm. 2.3 monotonicity** — iteration-``k`` scores are non-decreasing
  in ``k`` and lie in ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import QueryEngine
from repro.core.semsim import semsim_scores
from repro.sched import ServingRuntime
from repro.semantics.base import semantic_matrix
from repro.serve import CircuitBreaker, IndexManager, RetryPolicy
from repro.testing import FaultInjector, FaultRule, VirtualClock
from tests.conftest import random_hin_with_measure

MODEL = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    num_entities=st.integers(min_value=4, max_value=9),
    extra_edges=st.integers(min_value=3, max_value=14),
)
COMMON = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
SMALL = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
DECAY = 0.6
EPS = 1e-9


def _converged_matrix(graph, measure):
    return semsim_scores(
        graph, measure, decay=DECAY, max_iterations=60, tolerance=1e-12
    )


@COMMON
@given(**MODEL)
def test_symmetry_of_converged_scores(seed, num_entities, extra_edges):
    graph, measure = random_hin_with_measure(
        seed, num_entities, extra_edges=extra_edges
    )
    matrix = _converged_matrix(graph, measure).matrix
    assert np.allclose(matrix, matrix.T, atol=1e-10)


@COMMON
@given(**MODEL)
def test_prop_2_5_similarity_below_semantics(seed, num_entities, extra_edges):
    graph, measure = random_hin_with_measure(
        seed, num_entities, extra_edges=extra_edges
    )
    result = _converged_matrix(graph, measure)
    sem = semantic_matrix(measure, result.nodes)
    assert np.all(result.matrix <= sem + EPS)


@COMMON
@given(**MODEL)
def test_thm_2_3_5_off_diagonal_decay_bound(seed, num_entities, extra_edges):
    graph, measure = random_hin_with_measure(
        seed, num_entities, extra_edges=extra_edges
    )
    result = _converged_matrix(graph, measure)
    sem = semantic_matrix(measure, result.nodes)
    off_diagonal = ~np.eye(len(result.nodes), dtype=bool)
    assert np.all(
        result.matrix[off_diagonal] <= DECAY * sem[off_diagonal] + EPS
    )


@COMMON
@given(**MODEL)
def test_thm_2_3_monotone_in_iterations_and_bounded(
    seed, num_entities, extra_edges
):
    graph, measure = random_hin_with_measure(
        seed, num_entities, extra_edges=extra_edges
    )
    previous = None
    for k in (1, 2, 4, 8):
        matrix = semsim_scores(
            graph, measure, decay=DECAY, max_iterations=k, tolerance=0.0
        ).matrix
        assert matrix.min() >= -EPS and matrix.max() <= 1.0 + EPS
        if previous is not None:
            assert np.all(matrix >= previous - 1e-10)
        previous = matrix


@SMALL
@given(
    seed=st.integers(min_value=0, max_value=1000),
    num_entities=st.integers(min_value=4, max_value=6),
)
def test_invariants_through_the_query_engine(seed, num_entities):
    """The public facade inherits the invariants, in both methods."""
    graph, measure = random_hin_with_measure(seed, num_entities, extra_edges=6)
    entities = [f"e{i}" for i in range(num_entities)]
    exact = QueryEngine(graph, measure, method="iterative", decay=DECAY)
    sampled = QueryEngine(
        graph, measure, method="mc", decay=DECAY,
        num_walks=60, length=8, seed=seed,
    )
    for u in entities:
        for v in entities:
            # both methods: symmetric (up to float association) and in range
            for engine in (exact, sampled):
                value = engine.score(u, v)
                assert abs(value - engine.score(v, u)) <= EPS
                assert -EPS <= value <= 1.0 + EPS
            # the analytical upper bounds are claims about the exact fixed
            # point; the Monte-Carlo estimate carries sampling error and is
            # covered by Prop. 4.6 instead (tests/hin/test_reduced_vs_full)
            value = exact.score(u, v)
            assert value <= measure.similarity(u, v) + EPS
            if u != v:
                assert value <= DECAY * measure.similarity(u, v) + EPS


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,  # tmp_path is only a namespace
    ],
)
@given(
    seed=st.integers(min_value=0, max_value=1000),
    num_entities=st.integers(min_value=4, max_value=6),
)
def test_invariants_survive_degraded_serving(seed, num_entities, tmp_path):
    """Responses served during injected index loss still obey the paper."""
    graph, measure = random_hin_with_measure(seed, num_entities, extra_edges=6)
    entities = [f"e{i}" for i in range(num_entities)]
    clock = VirtualClock()
    manager = IndexManager(
        graph, measure,
        walks_path=tmp_path / f"missing-{seed}.npz",
        engine_kwargs=dict(num_walks=30, length=6, seed=seed),
        retry=RetryPolicy(max_retries=1, seed=seed),
        breaker=CircuitBreaker(clock=clock, failure_threshold=1),
        clock=clock, sleep=clock.sleep, background_rebuild=False,
    )
    with ServingRuntime(manager) as runtime, FaultInjector(
        [FaultRule("*")], clock=clock
    ):
        for u in entities:
            for v in entities:
                response = runtime.score(u, v)
                assert response.degraded
                mirrored = runtime.score(v, u)
                assert abs(response.value - mirrored.value) <= EPS
                assert -EPS <= response.value
                assert response.value <= measure.similarity(u, v) + EPS
                if u != v:
                    assert (
                        response.value
                        <= DECAY * measure.similarity(u, v) + EPS
                    )
