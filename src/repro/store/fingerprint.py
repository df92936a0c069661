"""Content fingerprints for artifact-cache keys.

An on-disk artifact is only reusable when *everything* that shaped it is
unchanged: the graph (nodes, edges, weights, labels), the semantic measure,
the engine parameters and the artifact format itself.  This module turns
each of those into a stable hex digest; :func:`manifest_key` combines them
into the content address an :class:`~repro.store.artifacts.ArtifactStore`
files the artifact under.

Fingerprints are **content** hashes, not identity hashes: two `HIN`
instances built from the same edge list produce the same digest, and adding
a single edge (ProbeSim's invalidation concern — see PAPERS.md) changes it.
Floats are hashed through :func:`repr`, so any representable change in a
weight or IC value invalidates the key.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

import numpy as np

from repro.hin.graph import HIN

#: Bump whenever the on-disk artifact layout changes incompatibly.
#: Version 2 stores each walk step's in-edge offset and the per-edge
#: ``W``/``Q`` arrays in place of version 1's per-step tables.
FORMAT_VERSION = 2

_HASH_NAME = "sha256"


def _digest(parts: list) -> str:
    """Hash a JSON-serialisable structure into a hex digest."""
    payload = json.dumps(parts, sort_keys=True, default=str).encode("utf-8")
    return hashlib.new(_HASH_NAME, payload).hexdigest()


def fingerprint_graph(graph: HIN) -> str:
    """Return a content hash of *graph*: nodes, labels, edges, weights.

    Node identifiers are hashed through ``str()``, matching the convention
    of every persistence path in the library (see
    :func:`repro.core.walk_index.save_walk_index`).  Insertion order is part
    of the content — it determines numeric node ids and therefore every
    stored array.
    """
    nodes = [[str(node), graph.node_label(node)] for node in graph.nodes()]
    edges = [
        [str(source), str(target), repr(weight), label]
        for source, target, weight, label in graph.edges()
    ]
    return _digest(["hin", nodes, edges])


def fingerprint_generation(parent: str, mutation_log_sha256: str) -> str:
    """Content id of an index generation made by mutating *parent*.

    *parent* is the parent generation's id (its graph fingerprint when it
    was never mutated) and *mutation_log_sha256* the hash of the mutation
    log applied to it, so ids chain from a base graph through every
    generation without hashing a graph again.
    """
    return _digest(["generation", parent, mutation_log_sha256])


def fingerprint_measure(measure: object | None) -> str:
    """Return a content hash identifying a semantic measure.

    Resolution order:

    1. ``None`` — the no-semantics (plain SimRank) marker;
    2. a ``content_fingerprint()`` method on the measure, for custom
       measures that know their own content;
    3. a dense matrix (``nodes`` + ``matrix`` attributes, i.e.
       :class:`~repro.semantics.cache.MatrixMeasure`) — hashed by value;
    4. a caching wrapper (``inner`` attribute) — delegates to the inner
       measure so memo state never affects the key;
    5. a taxonomy-backed measure (``taxonomy`` + ``ic`` attributes, the
       Lin/Resnik/Jiang-Conrath family) — hashed from the hierarchy, the IC
       table and the measure's scalar configuration;
    6. anything else — hashed from the class name and its public scalar
       attributes, which is best-effort: measures whose behaviour depends
       on state this cannot see should implement ``content_fingerprint``.
    """
    if measure is None:
        return _digest(["measure", "none"])
    fingerprint = getattr(measure, "content_fingerprint", None)
    if callable(fingerprint):
        return _digest(["measure", "custom", str(fingerprint())])
    nodes = getattr(measure, "nodes", None)
    matrix = getattr(measure, "matrix", None)
    if nodes is not None and isinstance(matrix, np.ndarray):
        digest = hashlib.new(_HASH_NAME)
        digest.update(json.dumps([str(node) for node in nodes]).encode("utf-8"))
        digest.update(str(matrix.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(matrix).tobytes())
        return _digest(["measure", "matrix", digest.hexdigest()])
    inner = getattr(measure, "inner", None)
    if inner is not None:
        return fingerprint_measure(inner)
    qualname = type(measure).__qualname__
    taxonomy = getattr(measure, "taxonomy", None)
    ic = getattr(measure, "ic", None)
    if taxonomy is not None and isinstance(ic, Mapping):
        edges = sorted(
            [str(child), str(parent)]
            for child in taxonomy.concepts()
            for parent in taxonomy.parents(child)
        )
        concepts = sorted(str(concept) for concept in taxonomy.concepts())
        ic_items = sorted([str(k), repr(float(v))] for k, v in ic.items())
        return _digest(
            ["measure", "taxonomy", qualname, concepts, edges, ic_items,
             _scalar_attributes(measure)]
        )
    return _digest(["measure", "generic", qualname, _scalar_attributes(measure)])


def _scalar_attributes(measure: object) -> list:
    """Public scalar configuration of a measure, in sorted order."""
    attributes = []
    for name, value in sorted(vars(measure).items()):
        if name.startswith("_"):
            continue
        if isinstance(value, float):
            attributes.append([name, repr(value)])
        elif isinstance(value, (bool, int, str)):
            attributes.append([name, repr(value)])
    return attributes


def manifest_key(
    *,
    method: str,
    graph_fingerprint: str,
    measure_fingerprint: str,
    params: Mapping[str, object],
    format_version: int = FORMAT_VERSION,
) -> str:
    """Combine the identity of one engine configuration into a cache key.

    *params* must already be canonical (validated values from
    :mod:`repro.core.params`); every entry participates in the key, so a
    changed ``theta`` or ``seed`` addresses a different artifact.
    """
    canonical = {name: repr(value) for name, value in sorted(params.items())}
    return _digest(
        [
            "repro-engine-artifact",
            format_version,
            method,
            graph_fingerprint,
            measure_fingerprint,
            canonical,
        ]
    )
