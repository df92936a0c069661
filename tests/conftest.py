"""Shared fixtures and random-model builders for the test-suite."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.datasets import figure1_network
from repro.hin import HIN
from repro.semantics import LinMeasure
from repro.taxonomy import Taxonomy

# Registers the stacked-array reference kernel as the "numpy" backend for
# the whole session (forked shard workers inherit the registry): the
# oracle every identity suite holds the library kernel to.
import tests.backends.numpy_ref  # noqa: F401,E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "uses_global_rng: the test intentionally consumes entropy from the "
        "global random / numpy RNGs (exempts it from the determinism check)",
    )
    config.addinivalue_line(
        "markers",
        "concurrency: thread-stress tests exercising the scheduler and "
        "shared mutable state under real concurrency (the CI smoke job "
        "runs exactly these: pytest -m concurrency)",
    )


def _is_hypothesis_test(request) -> bool:
    """Hypothesis manages (and restores) global RNG state itself."""
    obj = getattr(request.node, "obj", None)
    return obj is not None and hasattr(obj, "hypothesis")


@pytest.fixture(autouse=True)
def _seeded_global_rngs(request):
    """Seed the global RNGs per test and fail tests that consume them.

    Every test starts from a seed derived from its own node id, so any
    accidental use of the *global* ``random`` / ``numpy.random`` state is
    at least reproducible.  But code under test is expected to take
    explicit seeds (``np.random.default_rng(seed)``, ``random.Random``),
    so consumption of the global streams is treated as a bug: the
    teardown asserts the states did not move.  Opt out deliberately with
    ``@pytest.mark.uses_global_rng``.
    """
    seed = int.from_bytes(
        hashlib.sha256(request.node.nodeid.encode()).digest()[:4], "big"
    )
    random.seed(seed)
    np.random.seed(seed)
    state_before = random.getstate()
    np_state_before = np.random.get_state()
    yield
    if request.node.get_closest_marker("uses_global_rng"):
        return
    if _is_hypothesis_test(request):
        return
    np_moved = not all(
        np.array_equal(a, b)
        for a, b in zip(np_state_before, np.random.get_state())
    )
    if random.getstate() != state_before or np_moved:
        pytest.fail(
            f"{request.node.nodeid} consumed entropy from an unseeded global "
            f"RNG (random and/or numpy.random). Thread an explicit seed "
            f"(np.random.default_rng / random.Random) instead, or mark the "
            f"test with @pytest.mark.uses_global_rng.",
            pytrace=False,
        )


@pytest.fixture
def triangle_graph() -> HIN:
    """Three nodes, symmetric edges plus one directed chord."""
    g = HIN()
    g.add_undirected_edge("a", "b")
    g.add_undirected_edge("b", "c")
    g.add_edge("a", "c")
    return g


@pytest.fixture
def weighted_taxonomy_graph() -> tuple[HIN, LinMeasure]:
    """A small two-community HIN with a taxonomy and Lin measure."""
    return build_taxonomy_graph()


@pytest.fixture
def figure1():
    """The paper's Figure 1 bundle."""
    return figure1_network()


def build_taxonomy_graph() -> tuple[HIN, LinMeasure]:
    """Deterministic small HIN used by several exactness tests."""
    g = HIN()
    tax_edges = [
        ("x1", "mid1"), ("x2", "mid1"),
        ("x3", "mid2"), ("x4", "mid2"),
        ("mid1", "root"), ("mid2", "root"),
    ]
    for child, parent in tax_edges:
        g.add_undirected_edge(child, parent, label="is-a")
    g.add_undirected_edge("x1", "x2", weight=2.0)
    g.add_undirected_edge("x2", "x3")
    g.add_undirected_edge("x3", "x4")
    g.add_edge("x1", "x4")
    taxonomy = Taxonomy.from_edges(tax_edges)
    return g, LinMeasure(taxonomy)


def random_hin_with_measure(
    seed: int,
    num_entities: int = 8,
    num_categories: int = 3,
    extra_edges: int = 10,
) -> tuple[HIN, LinMeasure]:
    """Build a random two-layer HIN deterministically from *seed*.

    Used by the hypothesis-driven theorem tests: hypothesis draws the seed
    and sizes, this function turns them into a concrete model.
    """
    rng = np.random.default_rng(seed)
    taxonomy = Taxonomy()
    taxonomy.add_concept("root")
    categories = [f"cat{i}" for i in range(num_categories)]
    for category in categories:
        taxonomy.add_concept(category, parents=["root"])
    entities = [f"e{i}" for i in range(num_entities)]
    assignment = {e: categories[int(rng.integers(num_categories))] for e in entities}
    for entity, category in assignment.items():
        taxonomy.add_concept(entity, parents=[category])

    graph = HIN()
    for entity in entities:
        graph.add_node(entity, label="entity")
    for concept in taxonomy.concepts():
        if concept not in graph:
            graph.add_node(concept, label="concept")
    for concept in taxonomy.concepts():
        for parent in taxonomy.parents(concept):
            graph.add_undirected_edge(concept, parent, label="is-a")
    for _ in range(extra_edges):
        i, j = rng.integers(num_entities, size=2)
        if i == j:
            continue
        weight = float(rng.integers(1, 4))
        graph.add_undirected_edge(entities[int(i)], entities[int(j)], weight=weight)
    return graph, LinMeasure(taxonomy)
