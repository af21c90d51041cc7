"""Differential tests: the settings cache's precomputed fingerprints
and topology records against the graph-building reference they replace.

Each oracle below is the earlier implementation kept verbatim (the
networkx layer-chain model graph and its signature distance, networkx's
first GED yield, the ``dataclasses.replace`` body of
``ModelSpec.scaled_to``); the fast paths must agree with it exactly —
same entries, ``==`` distances.  Fixtures are networkx graphs, turned
into :class:`TopologyRecord` where they cross into the cache.
"""

import copy
import dataclasses
import functools
import json

import networkx as nx
import numpy as np
import pytest

from repro.autotune import (
    ModelFingerprint,
    ParameterPoint,
    SettingsCache,
    TopologyRecord,
    deployment_distance,
    graph_edit_distance,
    signature_distance,
)
from repro.autotune.graph_distance import GED_EXACT_NODE_LIMIT, _signature
from repro.cluster.jobs import JobSpec
from repro.cluster.runtime import three_job_scenario
from repro.models import available_models, get_model
from repro.models.base import LayerSpec, ModelSpec, ParameterSpec
from repro.sim import Simulator, alibaba_v100_cluster
from repro.sim.topology import Cluster, NodeSpec

MODELS = available_models()


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


def _cluster_graph(cluster) -> nx.Graph:
    """``Cluster.topology_graph`` as it built a networkx graph."""
    graph = nx.Graph()
    for node in range(cluster.num_nodes):
        graph.add_node(node, gpus=cluster.spec.gpus_per_node,
                       gpu=cluster.spec.gpu.name)
    for a in range(cluster.num_nodes):
        for b in range(a + 1, cluster.num_nodes):
            scale = min(cluster.congestion.get(a, 1.0),
                        cluster.congestion.get(b, 1.0))
            graph.add_edge(a, b,
                           bandwidth=cluster.spec.nic_bandwidth_bps * scale)
    return graph


def _job_graph(spec, nic_bps) -> nx.Graph:
    """``ClusterRuntime._job_topology`` as it built a networkx graph."""
    graph = nx.Graph()
    for node in range(spec.num_nodes):
        graph.add_node(node, gpus=1, gpu="V100")
    for a in range(spec.num_nodes):
        for b in range(a + 1, spec.num_nodes):
            graph.add_edge(a, b, bandwidth=nic_bps)
    return graph


def _topologies() -> dict[str, nx.Graph]:
    graphs = {}
    for n in range(1, 9):
        graphs[f"chain{n}"] = nx.path_graph(n)
        graphs[f"K{n}"] = nx.complete_graph(n)
    for nodes in range(1, 5):
        graphs[f"cluster{nodes}"] = _cluster_graph(
            alibaba_v100_cluster(Simulator(), 8 * nodes))
    graphs["cluster4-10G"] = _cluster_graph(
        alibaba_v100_cluster(Simulator(), 32, nic_bandwidth_bps=10e9))
    return graphs


#: The networkx fixtures the oracles read.
TOPOLOGIES = _topologies()
#: The same fixtures as the records the cache reads.
RECORDS = {name: TopologyRecord.of_graph(graph)
           for name, graph in TOPOLOGIES.items()}


def _nx_signature(graph, node_attr):
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


def _nx_signature_distance(a, b, node_attr=None):
    return float(np.abs(_nx_signature(a, node_attr)
                        - _nx_signature(b, node_attr)).sum())


def _first_yield(a, b, node_attr=None):
    """networkx's first (fast) GED solution, as the cache has used it."""
    def node_match(x, y):
        if node_attr is None:
            return True
        return x.get(node_attr) == y.get(node_attr)

    for cost in nx.optimize_graph_edit_distance(a, b,
                                                node_match=node_match):
        return float(cost)
    raise AssertionError("networkx yielded no edit path")


def _reference_ged(a, b):
    if max(a.number_of_nodes(), b.number_of_nodes()) > GED_EXACT_NODE_LIMIT:
        return _nx_signature_distance(a, b)
    return _first_yield(a, b)


@functools.cache
def _model(name):
    return get_model(name)


@functools.cache
def _reference_model_term(name_a, name_b):
    return _nx_signature_distance(model_graph(_model(name_a)),
                                  model_graph(_model(name_b)),
                                  node_attr="size_bucket")


@functools.cache
def _reference_topo_term(topo_a, topo_b):
    return _reference_ged(TOPOLOGIES[topo_a], TOPOLOGIES[topo_b])


def _reference_distance(model_a, topo_a, model_b, topo_b):
    """The graph-building ``deployment_distance`` on full ModelSpecs
    (its pure pieces memoised so the sweep stays fast)."""
    model_term = _reference_model_term(model_a, model_b)
    topo_term = _reference_topo_term(topo_a, topo_b)
    return model_term + 4.0 * topo_term


def _reference_scaled_to(self, target_parameters, target_forward_flops):
    param_scale = target_parameters / self.num_parameters
    flop_scale = target_forward_flops / self.forward_flops
    new_layers = []
    for layer in self.layers:
        new_params = tuple(
            dataclasses.replace(
                p, num_elements=max(1, round(p.num_elements * param_scale)))
            for p in layer.parameters
        )
        new_layers.append(dataclasses.replace(
            layer,
            parameters=new_params,
            forward_flops=layer.forward_flops * flop_scale,
        ))
    return dataclasses.replace(self, layers=tuple(new_layers))


#: Remembered deployments for the lookup sweep: every model, and a spread
#: of shapes (identical, isomorphic, larger and smaller than queries).
STORED = (("resnet50", "cluster2"), ("vgg16", "K2"), ("bert-large", "K4"),
          ("ctr", "chain3"), ("gpt2-xl", "chain1"),
          ("transformer", "cluster3"), ("insightface-r50", "chain5"),
          ("resnet101", "K6"))


class TestFingerprint:
    @pytest.mark.parametrize("name", MODELS)
    def test_signature_matches_model_graph(self, name):
        spec = get_model(name)
        graph = model_graph(spec)
        expected = _nx_signature(graph, "size_bucket")
        assert _signature(TopologyRecord.of_graph(graph),
                          "size_bucket").tolist() == expected.tolist()
        signature = ModelFingerprint.of(spec).signature
        assert len(signature) == len(expected)
        assert list(signature) == expected.tolist()

    @pytest.mark.parametrize("sizes", ([7], [0, 1], [5, 10**6, 3],
                                       [10**15] * 4))
    def test_signature_of_small_chains(self, sizes):
        layers = tuple(
            LayerSpec(f"l{i}", (ParameterSpec(f"l{i}.w", size),)
                      if size else (), forward_flops=1.0)
            for i, size in enumerate(sizes))
        spec = ModelSpec(name="m", layers=layers, compute_occupancy=0.5)
        expected = _nx_signature(model_graph(spec), "size_bucket")
        assert list(ModelFingerprint.of(spec).signature) == \
            expected.tolist()

    def test_fingerprint_is_its_own(self):
        fingerprint = ModelFingerprint.of(get_model("vgg16"))
        assert ModelFingerprint.of(fingerprint) is fingerprint

    @pytest.mark.parametrize("name", MODELS)
    def test_scaled_to_matches_replace_oracle(self, name):
        spec = get_model(name)
        for params, flops in ((spec.num_parameters, spec.forward_flops),
                              (int(spec.num_parameters * 1.37) + 1,
                               spec.forward_flops * 0.81),
                              (1, 1e-3)):
            assert spec.scaled_to(params, flops) == \
                _reference_scaled_to(spec, params, flops)

    def test_scaled_to_keeps_dtype_and_metadata(self):
        layers = tuple(
            LayerSpec(f"l{i}", (ParameterSpec(f"l{i}.w", 1000 * i + 7,
                                              dtype_bytes=width),
                                ParameterSpec(f"l{i}.b", 3)),
                      forward_flops=10.0 * i)
            for i, width in enumerate((1, 2, 4, 8)))
        spec = ModelSpec(name="mixed", layers=layers, compute_occupancy=0.3,
                         category="NLP", sample_unit="tokens",
                         default_batch_size=7, dataset="wiki",
                         table_flops=12.5)
        assert spec.scaled_to(10**6, 99.0) == \
            _reference_scaled_to(spec, 10**6, 99.0)


class TestIdenticalGraphShortcut:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_copy_matches_networkx_first_yield(self, name):
        graph = TOPOLOGIES[name]
        twin = copy.copy(graph)
        assert graph_edit_distance(RECORDS[name],
                                   TopologyRecord.of_graph(twin)) == \
            _first_yield(graph, twin)

    def test_attributed_copy_matches_networkx_first_yield(self):
        chain = nx.path_graph(6)
        for node in chain:
            chain.nodes[node]["size_bucket"] = node % 3
        twin = copy.deepcopy(chain)
        assert graph_edit_distance(TopologyRecord.of_graph(chain),
                                   TopologyRecord.of_graph(twin),
                                   "size_bucket") == \
            _first_yield(chain, twin, "size_bucket") == 0.0

    def test_differing_attribute_is_not_identical(self):
        chain = nx.path_graph(3)
        twin = copy.deepcopy(chain)
        chain.nodes[0]["size_bucket"] = 1
        twin.nodes[0]["size_bucket"] = 2
        assert graph_edit_distance(TopologyRecord.of_graph(chain),
                                   TopologyRecord.of_graph(twin),
                                   "size_bucket") == \
            _first_yield(chain, twin, "size_bucket") > 0

    def test_large_identical_graphs_are_zero(self):
        graph = model_graph(get_model("resnet50"))
        record = TopologyRecord.of_graph(graph)
        twin = TopologyRecord.of_graph(graph.copy())
        assert len(record.nodes) > GED_EXACT_NODE_LIMIT
        assert graph_edit_distance(record, twin, "size_bucket") \
            == signature_distance(record, twin, "size_bucket") == 0.0


@functools.cache
def _reference_pair_ged(name_a, name_b):
    return _first_yield(TOPOLOGIES[name_a], TOPOLOGIES[name_b])


class TestTopologyRecord:
    """The record reproduces what networkx computed on the graph."""

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_ged_matches_networkx_first_yield(self, name):
        for other in sorted(TOPOLOGIES):
            assert graph_edit_distance(RECORDS[name], RECORDS[other]) == \
                _reference_pair_ged(name, other), other

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_signature_matches_networkx(self, name):
        for node_attr in (None, "gpus"):
            assert _signature(RECORDS[name], node_attr).tolist() == \
                _nx_signature(TOPOLOGIES[name], node_attr).tolist()

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_node_link_data_matches_networkx(self, name):
        expected = nx.node_link_data(TOPOLOGIES[name], edges="links")
        data = RECORDS[name].node_link_data()
        assert json.dumps(data) == json.dumps(expected)

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_rebuilt_graph_lists_the_record_order(self, name):
        graph = RECORDS[name]._graph()
        assert TopologyRecord.of_graph(graph) == RECORDS[name]
        assert list(graph.edges) == list(TOPOLOGIES[name].edges)

    @pytest.mark.parametrize("num_nodes, node_spec, congested", (
        (1, NodeSpec(), None),
        (2, NodeSpec(), None),
        (4, NodeSpec(), None),
        (4, NodeSpec(nic_bandwidth_bps=10e9), None),
        (6, NodeSpec(gpus_per_node=2), None),
        (4, NodeSpec(), {1: 0.25, 3: 0.5}),
    ))
    def test_cluster_record_matches_networkx_builder(self, num_nodes,
                                                     node_spec, congested):
        cluster = Cluster(Simulator(), num_nodes, node_spec,
                          congested_links=congested)
        assert cluster.topology_graph() == \
            TopologyRecord.of_graph(_cluster_graph(cluster))

    def test_attributes_are_not_compared(self):
        # Bandwidth and GPU attributes are persisted but the topology
        # term compares shape only.
        spec = get_model("resnet50")
        assert RECORDS["cluster4"] != RECORDS["cluster4-10G"]
        assert deployment_distance(spec, RECORDS["cluster4"], spec,
                                   RECORDS["cluster4-10G"]) == 0.0

    @pytest.mark.parametrize("num_nodes", (1, 2, 3, 4, 6))
    def test_job_record_matches_networkx_builder(self, num_nodes):
        runtime = three_job_scenario(chaos=False)
        spec = JobSpec(job_id="j", num_nodes=num_nodes, batch_size=60)
        assert runtime._job_topology(spec) == TopologyRecord.of_graph(
            _job_graph(spec, runtime.config.nic_bps))


def _cache() -> SettingsCache:
    cache = SettingsCache()
    for index, (model, topo) in enumerate(STORED):
        cache.store(f"{model}@{topo}", get_model(model), RECORDS[topo],
                    ParameterPoint(index + 1, 4e6, "ring"), 0.1)
    return cache


def _reference_lookup(model, topo):
    best, best_distance = None, float("inf")
    for stored_model, stored_topo in STORED:
        distance = _reference_distance(model, topo, stored_model,
                                       stored_topo)
        if distance < best_distance:
            best, best_distance = f"{stored_model}@{stored_topo}", distance
    return best, best_distance


class TestLookupDifferential:
    @pytest.fixture(scope="class")
    def caches(self, tmp_path_factory):
        cache = _cache()
        path = tmp_path_factory.mktemp("cache") / "cache.json"
        cache.save(path)
        return {"live": cache, "reloaded": SettingsCache.load(path)}

    @pytest.mark.parametrize("which", ("live", "reloaded"))
    @pytest.mark.parametrize("name", MODELS)
    def test_lookup_matches_reference(self, caches, which, name):
        spec = get_model(name)
        for topo, record in RECORDS.items():
            entry, distance = caches[which].lookup(spec, record)
            label, expected = _reference_lookup(name, topo)
            assert (entry.label, distance) == (label, expected), topo
            assert isinstance(distance, float)

    def test_reloaded_cache_keeps_fingerprints(self, caches):
        live = [entry.model for entry in caches["live"]._entries]
        reloaded = [entry.model for entry in caches["reloaded"]._entries]
        assert reloaded == live
        assert [m.signature for m in reloaded] == \
            [m.signature for m in live]

    def test_lookup_fingerprints_its_query_once(self, caches, monkeypatch):
        calls = []
        original = ModelFingerprint.of.__func__

        def counting(cls, model):
            calls.append(model)
            return original(cls, model)

        monkeypatch.setattr(ModelFingerprint, "of", classmethod(counting))
        caches["live"].lookup(get_model("resnet50"), RECORDS["K2"])
        specs = [m for m in calls if isinstance(m, ModelSpec)]
        assert len(specs) == 1

