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

A model's side of the comparison is a :class:`ModelFingerprint`: the
layer-size skeleton the cache persists plus the signature of its layer
chain, computed once so repeated lookups compare tuples, not graphs.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import numpy as np

from repro.models.base import ModelSpec

#: Above this node count, exact-ish GED is replaced by the signature bound.
GED_EXACT_NODE_LIMIT = 12


def model_graph(spec: ModelSpec) -> nx.Graph:
    """The DNN computation graph used for similarity: a layer chain.

    Nodes carry a log-scale parameter-size bucket so that two models with
    the same depth but very different tensor sizes are distant.
    """
    graph = nx.Graph()
    for index, layer in enumerate(spec.layers):
        bucket = int(np.log10(max(layer.num_parameters, 1)))
        graph.add_node(index, size_bucket=bucket)
        if index:
            graph.add_edge(index - 1, index)
    return graph


def _signature(graph: nx.Graph, node_attr: str | None) -> np.ndarray:
    """Sorted degree + attribute histogram signature of a graph."""
    degrees = sorted(d for _, d in graph.degree())
    histogram = np.zeros(16)
    if node_attr:
        for _, data in graph.nodes(data=True):
            bucket = int(data.get(node_attr, 0)) % 16
            histogram[bucket] += 1
    return np.concatenate([
        [graph.number_of_nodes(), graph.number_of_edges()],
        np.bincount(np.asarray(degrees, dtype=int) if degrees else
                    np.zeros(0, dtype=int), minlength=8)[:8],
        histogram,
    ])


def _chain_signature(layer_sizes: tuple[int, ...]) -> tuple[int, ...]:
    """``_signature(model_graph(spec), "size_bucket")`` from layer sizes
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


def signature_distance(a: nx.Graph, b: nx.Graph,
                       node_attr: str | None = None) -> float:
    """L1 distance between graph signatures — a cheap GED lower bound."""
    return float(np.abs(_signature(a, node_attr)
                        - _signature(b, node_attr)).sum())


def _identical(a: nx.Graph, b: nx.Graph, node_attr: str | None) -> bool:
    if list(a.nodes) != list(b.nodes) or list(a.edges) != list(b.edges):
        return False
    return node_attr is None or all(
        data.get(node_attr) == b.nodes[node].get(node_attr)
        for node, data in a.nodes(data=True))


def graph_edit_distance(a: nx.Graph, b: nx.Graph,
                        node_attr: str | None = None) -> float:
    """GED between two graphs (approximate beyond the size limit).

    Graphs with the same node list, edge list and ``node_attr`` values
    are identical, so their distance is exactly 0 without a search.
    """
    if _identical(a, b, node_attr):
        return 0.0
    if max(a.number_of_nodes(), b.number_of_nodes()) > GED_EXACT_NODE_LIMIT:
        return signature_distance(a, b, node_attr)

    def node_match(x: dict, y: dict) -> bool:
        if node_attr is None:
            return True
        return x.get(node_attr) == y.get(node_attr)

    # networkx returns an upper-bound sequence; take the first (fast)
    # solution — a valid edit path, hence an admissible distance.
    for cost in nx.optimize_graph_edit_distance(a, b,
                                                node_match=node_match):
        return float(cost)
    return signature_distance(a, b, node_attr)  # pragma: no cover


def deployment_distance(model_a: ModelSpec | ModelFingerprint,
                        topo_a: nx.Graph,
                        model_b: ModelSpec | ModelFingerprint,
                        topo_b: nx.Graph) -> float:
    """Combined (model graph, topology graph) deployment distance."""
    model_term = ModelFingerprint.of(model_a).distance(
        ModelFingerprint.of(model_b))
    topo_term = graph_edit_distance(topo_a, topo_b)
    # Topology differences dominate: a new cluster shape changes optimal
    # parameters more than a few extra layers do.
    return model_term + 4.0 * topo_term
