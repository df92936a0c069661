"""Snapshot/restore glue between :class:`repro.api.QueryEngine` and the store.

A *snapshot* captures everything a query needs that is expensive to
recompute — exactly the preprocess-once half of the paper's Fig. 4 split:

``method="mc"``
    the walk tensor, the CSR proposal tables of ``Q``, the materialised
    semantic matrix, the dense ``SO = W·sem·Wᵀ`` table and the per-step
    ``W``/``Q`` gather tables of the batch path;
``method="iterative"``
    the converged all-pairs score table (plus the semantic matrix when one
    was materialised).

The serialised graph rides along as a JSON document, so an artifact is
self-contained: :meth:`repro.api.QueryEngine.open` needs nothing but the
path.  Snapshots force the lazy preprocessing tables before writing, which
makes *save* the preprocessing step and *open* a pure mmap — the arrays the
warm engine reads are the very bytes the cold engine computed, which is
what makes warm scores bit-identical to fresh ones.

This module never imports :mod:`repro.api` (the engine reaches down, the
store never reaches up); everything here duck-types off engine attributes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.hin.graph import HIN
from repro.hin.io import hin_from_dict, hin_to_dict
from repro.semantics.cache import MatrixMeasure
from repro.store.artifacts import StoredArtifact, StoreError
from repro.store.fingerprint import (
    fingerprint_graph,
    fingerprint_measure,
    manifest_key,
)

#: Array names of the CSR proposal tables, in ``_TransitionTables`` order.
PROPOSAL_ARRAYS = (
    ("proposal_indptr", "indptr"),
    ("proposal_targets", "targets"),
    ("proposal_cumprob", "aug_cumprob"),
    ("proposal_degrees", "degrees"),
    ("proposal_weight_sums", "weight_sums"),
)


def canonical_params(
    *,
    method: str,
    decay: float,
    num_walks: int,
    length: int,
    theta: float | None,
    policy: str,
    seed: int | None,
    materialized: bool,
    max_iterations: int | None,
    tolerance: float | None,
) -> dict:
    """The parameter set that identifies one engine configuration.

    Method-specific knobs are dropped for the other methods so an
    irrelevant default can never split the cache.
    """
    params: dict[str, object] = {
        "method": method,
        "decay": decay,
        "theta": theta,
        "materialized": materialized,
    }
    if method == "mc":
        params.update(
            num_walks=num_walks, length=length, policy=policy,
            seed="none" if seed is None else int(seed),
        )
    else:
        params.update(
            max_iterations="default" if max_iterations is None else int(max_iterations),
            tolerance="default" if tolerance is None else float(tolerance),
        )
    return params


def engine_identity(
    graph: HIN, measure: object | None, params: Mapping[str, object]
) -> tuple[str, dict]:
    """Return ``(key, identity)`` for one (graph, measure, params) triple.

    *measure* must be the measure as the caller supplied it (pre-
    materialisation), so a cold build and a later warm lookup agree.
    """
    graph_fp = fingerprint_graph(graph)
    measure_fp = fingerprint_measure(measure)
    key = manifest_key(
        method=str(params["method"]),
        graph_fingerprint=graph_fp,
        measure_fingerprint=measure_fp,
        params=params,
    )
    identity = {
        "method": params["method"],
        "graph": graph_fp,
        "measure": measure_fp,
        "params": {name: repr(value) for name, value in sorted(params.items())},
    }
    return key, identity


def snapshot_engine(engine, identity: dict) -> tuple[dict, dict, dict]:
    """Capture one engine as ``(manifest, arrays, documents)``.

    Forces every lazy preprocessing table first, so opening the snapshot
    never recomputes anything.  Raises :class:`ConfigurationError` for
    configurations that cannot round-trip (a ``pair_index``, or a
    non-materialised semantic measure the artifact could not replay).
    """
    if getattr(engine, "pair_index", None) is not None:
        raise ConfigurationError(
            "engines holding an external pair_index cannot be persisted — "
            "the index is not part of the artifact"
        )
    if engine.measure is not None and not isinstance(engine.measure, MatrixMeasure):
        raise ConfigurationError(
            "persisting an engine requires a materialised semantic measure "
            "(pass materialize_semantics=True) or no measure at all; got "
            f"{type(engine.measure).__name__}"
        )
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, object] = {
        "params": _json_params(engine, identity),
        "graph_nodes": engine.graph.num_nodes,
        "graph_edges": engine.graph.num_edges,
    }
    if engine.method == "mc":
        walk_index = engine.walk_index
        arrays["walks"] = walk_index.walks
        tables = walk_index.tables
        for array_name, attribute in PROPOSAL_ARRAYS:
            arrays[array_name] = getattr(tables, attribute)
        estimator = engine.estimator
        if engine.measure is not None:
            arrays["sem_matrix"] = engine.measure.matrix
            estimator._ensure_so_matrix()
            estimator._ensure_step_tables()
            arrays["so_matrix"] = estimator._so_matrix
            arrays["step_weights"] = estimator._step_weights
            arrays["step_q"] = estimator._step_q
    else:
        result = engine._table.result
        arrays["scores"] = result.matrix
        if engine.measure is not None:
            arrays["sem_matrix"] = engine.measure.matrix
        meta["iterations"] = result.trace.iterations
        meta["converged"] = bool(result.converged)
    try:
        documents = {"graph": hin_to_dict(engine.graph)}
    except TypeError as exc:
        raise StoreError(
            f"graph node identifiers are not JSON-serialisable: {exc}"
        ) from None
    manifest = dict(identity)
    manifest["meta"] = meta
    lineage = getattr(engine, "mutation_lineage", None)
    if callable(lineage):
        lineage = lineage()
    if lineage:
        # Versioned generations: the parent graph's fingerprint plus the
        # hash of the mutation log that produced this one make the chain of
        # index generations content-addressable.
        manifest["lineage"] = lineage
    return manifest, arrays, documents


def _json_params(engine, identity: dict) -> dict:
    """Engine constructor parameters, JSON-typed, for replay by ``open()``."""
    params: dict[str, object] = {
        "method": engine.method,
        "decay": engine.decay,
        "theta": engine.theta,
    }
    if engine.method == "mc":
        params.update(
            num_walks=engine.num_walks,
            length=engine.length,
            policy=engine.policy.value,
            seed=engine._seed_key,
        )
    else:
        params.update(
            max_iterations=engine._max_iterations,
            tolerance=engine._tolerance,
        )
    return params


def graph_from_artifact(artifact: StoredArtifact) -> HIN:
    """Rebuild and integrity-check the graph stored inside *artifact*."""
    document = artifact.documents.get("graph")
    if document is None:
        raise StoreError(f"artifact at {artifact.path} stores no graph document")
    graph = hin_from_dict(document)
    expected = artifact.manifest.get("graph")
    if expected is not None and fingerprint_graph(graph) != expected:
        raise StoreError(
            f"graph document at {artifact.path} does not match the manifest's "
            f"graph fingerprint — artifact is corrupt or was tampered with"
        )
    return graph


def measure_from_artifact(artifact: StoredArtifact, graph: HIN) -> MatrixMeasure | None:
    """Rebuild the materialised measure stored inside *artifact* (if any)."""
    sem_matrix = artifact.arrays.get("sem_matrix")
    if sem_matrix is None:
        return None
    return MatrixMeasure(list(graph.nodes()), sem_matrix)
