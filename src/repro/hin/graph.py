"""The Heterogeneous Information Network (HIN) graph type.

A HIN (Definition 2.1) is a directed graph ``G = (V, E, phi, psi, W)`` where
``phi`` labels vertices, ``psi`` labels edges, and ``W`` assigns each edge a
strictly positive weight.  When nothing is known about a relation's strength,
the weight defaults to 1 — exactly the convention the paper uses.

The class keeps both out- and in-adjacency in plain dictionaries, so the
neighbour queries that dominate SimRank-style computations (``I(v)``,
``O(v)``) are O(degree) with no per-call allocation surprises.  Iteration
order everywhere follows insertion order, which makes all downstream
stochastic computations reproducible for a fixed seed.

For vectorised engines, :meth:`HIN.index` produces a :class:`GraphIndex`
holding a stable node ordering plus numpy-ready adjacency arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    InvalidWeightError,
    NodeNotFoundError,
)

Node = Hashable

DEFAULT_NODE_LABEL = "entity"
DEFAULT_EDGE_LABEL = "related"
DEFAULT_WEIGHT = 1.0


class HIN:
    """A directed, weighted, vertex- and edge-labelled graph.

    Example
    -------
    >>> g = HIN()
    >>> g.add_node("aditi", label="author")
    >>> g.add_node("paul", label="author")
    >>> g.add_edge("paul", "aditi", weight=2.0, label="co-author")
    >>> g.in_neighbors("aditi")
    ('paul',)
    >>> g.edge_weight("paul", "aditi")
    2.0
    """

    def __init__(self) -> None:
        self._labels: dict[Node, str] = {}
        # out[u][v] = (weight, edge_label); inn[v][u] = (weight, edge_label)
        self._out: dict[Node, dict[Node, tuple[float, str]]] = {}
        self._in: dict[Node, dict[Node, tuple[float, str]]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, label: str = DEFAULT_NODE_LABEL) -> None:
        """Add *node* with a vertex label.

        Re-adding an existing node updates its label but keeps its edges.
        """
        if node not in self._labels:
            self._out[node] = {}
            self._in[node] = {}
        self._labels[node] = label

    def add_edge(
        self,
        source: Node,
        target: Node,
        weight: float = DEFAULT_WEIGHT,
        label: str = DEFAULT_EDGE_LABEL,
    ) -> None:
        """Add the directed edge ``source -> target``.

        Endpoints that do not exist yet are created with the default vertex
        label.  Adding an edge that already exists overwrites its weight and
        label (the model has no parallel edges).  Weights must be finite and
        strictly positive (``W : E -> R+`` in Definition 2.1).
        """
        if not (isinstance(weight, (int, float)) and math.isfinite(weight) and weight > 0):
            raise InvalidWeightError(
                f"edge weight must be a finite number > 0, got {weight!r} "
                f"for edge {source!r} -> {target!r}"
            )
        if source == target:
            raise GraphError(f"self-loop {source!r} -> {source!r} is not allowed")
        if source not in self._labels:
            self.add_node(source)
        if target not in self._labels:
            self.add_node(target)
        if target not in self._out[source]:
            self._num_edges += 1
        entry = (float(weight), label)
        self._out[source][target] = entry
        self._in[target][source] = entry

    def add_undirected_edge(
        self,
        a: Node,
        b: Node,
        weight: float = DEFAULT_WEIGHT,
        label: str = DEFAULT_EDGE_LABEL,
    ) -> None:
        """Add both ``a -> b`` and ``b -> a`` with identical weight and label.

        The paper treats symmetric relations (co-authorship, co-purchase) as
        a pair of antiparallel directed edges; this is the convenience for
        that encoding.
        """
        self.add_edge(a, b, weight=weight, label=label)
        self.add_edge(b, a, weight=weight, label=label)

    def remove_edge(self, source: Node, target: Node) -> None:
        """Remove the directed edge ``source -> target``."""
        if source not in self._out or target not in self._out[source]:
            raise EdgeNotFoundError(source, target)
        del self._out[source][target]
        del self._in[target][source]
        self._num_edges -= 1

    def remove_node(self, node: Node) -> None:
        """Remove *node* and every edge incident to it."""
        self._require(node)
        for target in list(self._out[node]):
            self.remove_edge(node, target)
        for source in list(self._in[node]):
            self.remove_edge(source, node)
        del self._out[node]
        del self._in[node]
        del self._labels[node]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        return f"HIN(nodes={self.num_nodes}, edges={self.num_edges})"

    @property
    def num_nodes(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return self._num_edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over vertices in insertion order."""
        return iter(self._labels)

    def edges(self) -> Iterator[tuple[Node, Node, float, str]]:
        """Iterate over edges as ``(source, target, weight, label)``."""
        for source, targets in self._out.items():
            for target, (weight, label) in targets.items():
                yield source, target, weight, label

    def node_label(self, node: Node) -> str:
        """Return the vertex label ``phi(node)``."""
        self._require(node)
        return self._labels[node]

    def has_edge(self, source: Node, target: Node) -> bool:
        """Return whether the directed edge ``source -> target`` exists."""
        return source in self._out and target in self._out[source]

    def edge_weight(self, source: Node, target: Node) -> float:
        """Return ``W(source, target)``."""
        try:
            return self._out[source][target][0]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None

    def edge_label(self, source: Node, target: Node) -> str:
        """Return ``psi(source, target)``."""
        try:
            return self._out[source][target][1]
        except KeyError:
            raise EdgeNotFoundError(source, target) from None

    def in_neighbors(self, node: Node) -> tuple[Node, ...]:
        """Return ``I(node)``, the in-neighbour set, in insertion order."""
        self._require(node)
        return tuple(self._in[node])

    def out_neighbors(self, node: Node) -> tuple[Node, ...]:
        """Return ``O(node)``, the out-neighbour set, in insertion order."""
        self._require(node)
        return tuple(self._out[node])

    def in_degree(self, node: Node) -> int:
        """Return ``|I(node)|``."""
        self._require(node)
        return len(self._in[node])

    def out_degree(self, node: Node) -> int:
        """Return ``|O(node)|``."""
        self._require(node)
        return len(self._out[node])

    def in_edges(self, node: Node) -> Iterator[tuple[Node, float, str]]:
        """Iterate in-edges of *node* as ``(source, weight, label)``."""
        self._require(node)
        for source, (weight, label) in self._in[node].items():
            yield source, weight, label

    def out_edges(self, node: Node) -> Iterator[tuple[Node, float, str]]:
        """Iterate out-edges of *node* as ``(target, weight, label)``."""
        self._require(node)
        for target, (weight, label) in self._out[node].items():
            yield target, weight, label

    def nodes_with_label(self, label: str) -> list[Node]:
        """Return every vertex whose label equals *label*, in insertion order."""
        return [node for node, node_label in self._labels.items() if node_label == label]

    def average_in_degree(self) -> float:
        """Return the average in-degree ``d`` used in the complexity bounds."""
        if not self._labels:
            return 0.0
        return self._num_edges / len(self._labels)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "HIN":
        """Return a new HIN with every edge direction flipped.

        The random-surfer interpretation (Section 3) walks the *reversed*
        graph; having an explicit reversal keeps that code literal.
        """
        reversed_graph = HIN()
        for node, label in self._labels.items():
            reversed_graph.add_node(node, label)
        for source, target, weight, label in self.edges():
            reversed_graph.add_edge(target, source, weight=weight, label=label)
        return reversed_graph

    def subgraph(self, nodes: Iterable[Node]) -> "HIN":
        """Return the induced subgraph on *nodes* (labels and weights kept)."""
        keep = set(nodes)
        missing = keep - set(self._labels)
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = HIN()
        for node in self._labels:
            if node in keep:
                sub.add_node(node, self._labels[node])
        for source, target, weight, label in self.edges():
            if source in keep and target in keep:
                sub.add_edge(source, target, weight=weight, label=label)
        return sub

    def copy(self) -> "HIN":
        """Return a deep structural copy of this graph.

        Unlike :meth:`subgraph` (which re-inserts edges source-major), the
        copy preserves the insertion order of every adjacency dict: in-list
        order determines the walk tensor's bit layout, so an
        order-normalising copy would silently decouple a copied graph from
        walks sampled on the original.
        """
        dup = HIN()
        dup._labels = dict(self._labels)
        dup._out = {node: dict(targets) for node, targets in self._out.items()}
        dup._in = {node: dict(sources) for node, sources in self._in.items()}
        dup._num_edges = self._num_edges
        return dup

    def edges_with_label(self, label: str) -> list[tuple[Node, Node, float]]:
        """Return every edge carrying *label* as ``(source, target, weight)``."""
        return [
            (source, target, weight)
            for source, target, weight, edge_label in self.edges()
            if edge_label == label
        ]

    # ------------------------------------------------------------------
    # Vectorisation support
    # ------------------------------------------------------------------
    def index(self) -> "GraphIndex":
        """Build a :class:`GraphIndex` snapshot for numpy-based engines."""
        return GraphIndex.from_graph(self)

    def _require(self, node: Node) -> None:
        if node not in self._labels:
            raise NodeNotFoundError(node)


def _in_row(
    graph: HIN, node: Node, position: dict[Node, int]
) -> tuple[np.ndarray, np.ndarray]:
    """In-neighbour ids and in-edge weights of *node*, in insertion order."""
    sources = []
    weights = []
    for source, weight, _ in graph.in_edges(node):
        sources.append(position[source])
        weights.append(weight)
    return (
        np.asarray(sources, dtype=np.int64),
        np.asarray(weights, dtype=np.float64),
    )


@dataclass
class GraphIndex:
    """An immutable numeric snapshot of a :class:`HIN`.

    Attributes
    ----------
    nodes:
        Node identifiers in a stable order; position == numeric id.
    position:
        Inverse mapping ``node -> numeric id``.
    in_lists:
        ``in_lists[v]`` is an int array of in-neighbour ids of node ``v``.
    in_weights:
        ``in_weights[v][k]`` is the weight of the edge
        ``in_lists[v][k] -> v``.
    """

    nodes: list[Node]
    position: dict[Node, int]
    in_lists: list[np.ndarray]
    in_weights: list[np.ndarray]
    labels: list[str] = field(default_factory=list)

    @classmethod
    def from_graph(cls, graph: HIN) -> "GraphIndex":
        """Snapshot *graph* into numeric arrays (insertion-order ids)."""
        nodes = list(graph.nodes())
        position = {node: i for i, node in enumerate(nodes)}
        in_lists: list[np.ndarray] = []
        in_weights: list[np.ndarray] = []
        for node in nodes:
            sources, weights = _in_row(graph, node, position)
            in_lists.append(sources)
            in_weights.append(weights)
        labels = [graph.node_label(node) for node in nodes]
        return cls(nodes, position, in_lists, in_weights, labels)

    def with_rows(self, graph: HIN, changed: Iterable[Node]) -> "GraphIndex":
        """Snapshot *graph*, re-deriving only the in-rows of *changed* nodes.

        Nodes *graph* gained since this snapshot are appended (their rows
        derived too); every other row array is shared with this snapshot,
        which is safe because snapshots are never written to.  Equals
        ``GraphIndex.from_graph(graph)`` as long as no other node's
        in-edges differ — the incremental path behind live mutations.
        """
        nodes, position, labels = self.nodes, self.position, self.labels
        in_lists = list(self.in_lists)
        in_weights = list(self.in_weights)
        rows = set(changed)
        if graph.num_nodes > len(nodes):
            added = list(graph.nodes())[len(nodes):]
            nodes = nodes + added
            position = dict(position)
            position.update(
                (node, len(self.nodes) + i) for i, node in enumerate(added)
            )
            labels = labels + [graph.node_label(node) for node in added]
            in_lists.extend([None] * len(added))
            in_weights.extend([None] * len(added))
            rows.update(added)
        for node in rows:
            row = position[node]
            in_lists[row], in_weights[row] = _in_row(graph, node, position)
        return GraphIndex(nodes, position, in_lists, in_weights, labels)

    @property
    def num_nodes(self) -> int:
        """Number of indexed nodes."""
        return len(self.nodes)

    def weighted_in_adjacency(self) -> np.ndarray:
        """Return the dense matrix ``W`` with ``W[a, v] = W(a -> v)``.

        The SimRank/SemSim all-pairs update is then a sandwich product
        ``W.T @ R @ W`` (see :mod:`repro.core.iterative`).
        """
        n = self.num_nodes
        matrix = np.zeros((n, n), dtype=np.float64)
        for v in range(n):
            sources = self.in_lists[v]
            if sources.size:
                matrix[sources, v] = self.in_weights[v]
        return matrix
