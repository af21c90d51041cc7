"""Graph similarity for the settings cache (paper §VI).

"To quantify the similarity of a DDL deployment and a previously seen
one, we measure the similarity of the DNN computation graph and the
network topology ... We use the graph edit distance to measure graph
similarities."

Exact graph edit distance (GED) is exponential; for the small graphs the
cache compares (tens of nodes) we run networkx's optimized GED
approximation, and beyond a size threshold we fall back to a
degree/attribute-signature lower bound — both metrics are admissible for
nearest-neighbour lookup, which is all the cache needs.

A topology is a :class:`TopologyRecord`: its nodes and edges in
networkx's order, with their attributes.  Two records with the same
node and edge lists are identical, so networkx — a large import — loads
only when two records differ and the search actually runs.

The topology term compares shape only: :func:`deployment_distance` calls
:func:`graph_edit_distance` with no ``node_attr`` and the search has no
edge matcher, so per-node GPU count and model and per-edge bandwidth are
persisted but never compared.  A 30 Gbps and a 10 Gbps 4-node cluster
are at topology distance 0.

A model's side of the comparison is a :class:`ModelFingerprint`: the
layer-size skeleton the cache persists plus the signature of its layer
chain, computed once so repeated lookups compare tuples, not graphs.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.models.base import ModelSpec

if t.TYPE_CHECKING:
    import networkx as nx

#: Above this node count, exact-ish GED is replaced by the signature bound.
GED_EXACT_NODE_LIMIT = 12


@dataclasses.dataclass(frozen=True)
class TopologyRecord:
    """An undirected topology as the settings cache keys it.

    ``nodes`` holds ``(id, attrs)`` in insertion order and ``edges``
    holds ``(u, v, attrs)`` in the order networkx lists them, so the
    record rebuilds the graph networkx would hold, order included.
    """

    nodes: tuple[tuple[t.Hashable, dict], ...]
    edges: tuple[tuple[t.Hashable, t.Hashable, dict], ...]

    @classmethod
    def of_graph(cls, graph: nx.Graph) -> "TopologyRecord":
        """The record of a networkx graph."""
        return cls(
            nodes=tuple((node, dict(data))
                        for node, data in graph.nodes(data=True)),
            edges=tuple((u, v, dict(data))
                        for u, v, data in graph.edges(data=True)))

    def node_link_data(self) -> dict:
        """``nx.node_link_data(graph, edges="links")`` of the graph."""
        return {
            "directed": False,
            "multigraph": False,
            "graph": {},
            "nodes": [{**data, "id": node} for node, data in self.nodes],
            "links": [{**data, "source": u, "target": v}
                      for u, v, data in self.edges],
        }

    def _graph(self) -> nx.Graph:
        import networkx as nx

        graph = nx.Graph()
        for node, data in self.nodes:
            graph.add_node(node, **data)
        for u, v, data in self.edges:
            graph.add_edge(u, v, **data)
        return graph


def _signature(graph: TopologyRecord, node_attr: str | None) -> np.ndarray:
    """Sorted degree + attribute histogram signature of a graph."""
    degree = dict.fromkeys((node for node, _ in graph.nodes), 0)
    for u, v, _ in graph.edges:
        degree[u] += 1
        degree[v] += 1
    degrees = sorted(degree.values())
    histogram = np.zeros(16)
    if node_attr:
        for _, data in graph.nodes:
            bucket = int(data.get(node_attr, 0)) % 16
            histogram[bucket] += 1
    return np.concatenate([
        [len(graph.nodes), len(graph.edges)],
        np.bincount(np.asarray(degrees, dtype=int) if degrees else
                    np.zeros(0, dtype=int), minlength=8)[:8],
        histogram,
    ])


def _chain_signature(layer_sizes: tuple[int, ...]) -> tuple[int, ...]:
    """The ``"size_bucket"`` signature of a model's layer chain (one node
    per layer, bucketed by ``log10`` of its size) from layer sizes
    alone: a chain of ``n`` layers has ``n - 1`` edges and degrees
    ``[1, 1, 2, ...]`` (``[0]`` for a single layer)."""
    count = len(layer_sizes)
    degrees = [0] * 8
    if count == 1:
        degrees[0] = 1
    elif count > 1:
        degrees[1], degrees[2] = 2, count - 2
    histogram = [0] * 16
    for size in layer_sizes:
        histogram[int(np.log10(max(size, 1))) % 16] += 1
    return (count, max(count - 1, 0), *degrees, *histogram)


@dataclasses.dataclass(frozen=True)
class ModelFingerprint:
    """The communication-relevant skeleton of a model (what the settings
    cache persists) and its precomputed similarity signature."""

    name: str
    layer_sizes: tuple[int, ...]
    layer_flops: tuple[float, ...]
    compute_occupancy: float
    signature: tuple[int, ...] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "signature",
                           _chain_signature(self.layer_sizes))

    @classmethod
    def of(cls, model: "ModelSpec | ModelFingerprint") -> "ModelFingerprint":
        """``model``'s fingerprint (a fingerprint is its own)."""
        if isinstance(model, ModelFingerprint):
            return model
        return cls(
            name=model.name,
            layer_sizes=tuple(layer.num_parameters
                              for layer in model.layers),
            layer_flops=tuple(layer.forward_flops for layer in model.layers),
            compute_occupancy=model.compute_occupancy)

    def distance(self, other: "ModelFingerprint") -> float:
        """L1 distance between the two chain signatures."""
        return float(sum(abs(a - b) for a, b in
                         zip(self.signature, other.signature)))


def signature_distance(a: TopologyRecord, b: TopologyRecord,
                       node_attr: str | None = None) -> float:
    """L1 distance between graph signatures — a cheap GED lower bound."""
    return float(np.abs(_signature(a, node_attr)
                        - _signature(b, node_attr)).sum())


def _identical(a: TopologyRecord, b: TopologyRecord,
               node_attr: str | None) -> bool:
    if [node for node, _ in a.nodes] != [node for node, _ in b.nodes] or \
            [(u, v) for u, v, _ in a.edges] != \
            [(u, v) for u, v, _ in b.edges]:
        return False
    return node_attr is None or all(
        x.get(node_attr) == y.get(node_attr)
        for (_, x), (_, y) in zip(a.nodes, b.nodes))


def graph_edit_distance(a: TopologyRecord, b: TopologyRecord,
                        node_attr: str | None = None) -> float:
    """GED between two graphs (approximate beyond the size limit).

    Graphs with the same node list, edge list and ``node_attr`` values
    are identical, so their distance is exactly 0 without a search.
    """
    if _identical(a, b, node_attr):
        return 0.0
    if max(len(a.nodes), len(b.nodes)) > GED_EXACT_NODE_LIMIT:
        return signature_distance(a, b, node_attr)
    import networkx as nx

    def node_match(x: dict, y: dict) -> bool:
        if node_attr is None:
            return True
        return x.get(node_attr) == y.get(node_attr)

    # networkx returns an upper-bound sequence; take the first (fast)
    # solution — a valid edit path, hence an admissible distance.
    for cost in nx.optimize_graph_edit_distance(a._graph(), b._graph(),
                                                node_match=node_match):
        return float(cost)
    return signature_distance(a, b, node_attr)  # pragma: no cover


def deployment_distance(model_a: ModelSpec | ModelFingerprint,
                        topo_a: TopologyRecord,
                        model_b: ModelSpec | ModelFingerprint,
                        topo_b: TopologyRecord) -> float:
    """Combined (model graph, topology graph) deployment distance.

    The topology term compares shape only (see the module docstring).
    """
    model_term = ModelFingerprint.of(model_a).distance(
        ModelFingerprint.of(model_b))
    topo_term = graph_edit_distance(topo_a, topo_b)
    # Topology differences dominate: a new cluster shape changes optimal
    # parameters more than a few extra layers do.
    return model_term + 4.0 * topo_term
