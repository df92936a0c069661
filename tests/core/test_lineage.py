"""Generation lineage: content ids that chain without rehashing a graph.

An unmutated engine's generation id is its graph's fingerprint, known from
the artifact it was opened from (or its cache entry) and computed once for
a cold build without a store.  A mutated engine's id is
``fingerprint_generation(parent id, mutation log hash)``, so a generation
swap costs no pass over the graph, and ``mutation_lineage()["parent_graph"]``
is the parent's fingerprint for the first generation and the parent's
chained id for deeper ones.
"""

from __future__ import annotations

import pytest

import repro.api as api
import repro.store.engine_io as engine_io
from repro.api import QueryEngine
from repro.store import ArtifactStore, fingerprint_graph
from repro.store.fingerprint import fingerprint_generation

from tests.conftest import random_hin_with_measure

ENGINE_KWARGS = dict(num_walks=20, length=6, seed=3)

#: One mutation per generation, between existing entities.
GENERATIONS = [
    ("add_edge", "e0", "e1", 2.5),
    ("add_edge", "e2", "e3", 1.5),
    ("remove_edge", "e0", "e1"),
    ("add_edge", "e4", "e5", 0.75),
]


@pytest.fixture
def model():
    return random_hin_with_measure(11, num_entities=8, extra_edges=10)


@pytest.fixture
def index_path(tmp_path, model):
    graph, measure = model
    return QueryEngine(graph, measure, **ENGINE_KWARGS).save(tmp_path / "idx")


def generations(engine):
    """The engines one clone per GENERATIONS entry makes, in order."""
    chain = []
    for mutation in GENERATIONS:
        engine = engine.with_mutations([mutation])
        chain.append(engine)
    return chain


def test_swaps_never_fingerprint_a_graph(index_path, monkeypatch):
    engine = QueryEngine.open(index_path)
    calls = []
    real = fingerprint_graph

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(api, "fingerprint_graph", counting)
    monkeypatch.setattr(engine_io, "fingerprint_graph", counting)
    # the opened engine, then three generations of clones
    for clone in generations(engine):
        assert clone.mutation_lineage() is not None
    assert calls == []


def test_first_generation_lineage_is_the_base_fingerprint(index_path, model):
    graph, _ = model
    base = QueryEngine.open(index_path)
    first = base.with_mutations([GENERATIONS[0]])
    assert first.mutation_lineage() == {
        "parent_graph": fingerprint_graph(graph),
        "mutation_log_sha256": first._dynamic.mutation_log_hash(),
        "mutations": 1,
        "epoch": 1,
    }
    assert base.mutation_lineage() is None


def test_replayed_logs_report_equal_lineage(index_path, model):
    graph, measure = model
    opened = generations(QueryEngine.open(index_path))
    # a cold build without a store fingerprints its graph once, lazily
    cold = generations(QueryEngine(graph, measure, **ENGINE_KWARGS))
    for left, right in zip(opened, cold):
        assert left.mutation_lineage() == right.mutation_lineage()
    parents = [clone.mutation_lineage()["parent_graph"] for clone in opened]
    assert len(set(parents)) == len(parents)


def test_persisted_second_generation_records_the_chained_id(
    index_path, model, tmp_path
):
    graph, _ = model
    first, second = generations(QueryEngine.open(index_path))[:2]
    store = ArtifactStore(tmp_path / "store")
    key = second.persist_generation(store)
    lineage = store.get(key).manifest["lineage"]
    chained = fingerprint_generation(
        fingerprint_graph(graph), first._dynamic.mutation_log_hash()
    )
    assert lineage["parent_graph"] == chained
    assert lineage["parent_graph"] != fingerprint_graph(first.graph)
    assert lineage["mutations"] == 1
    assert lineage["epoch"] == 2
