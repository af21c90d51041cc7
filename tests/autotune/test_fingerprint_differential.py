"""Differential tests: the settings cache's precomputed fingerprints
against the graph-building reference they replace.

Each oracle below is the earlier implementation kept verbatim (the
model-graph signature distance, networkx's first GED yield, the
``dataclasses.replace`` body of ``ModelSpec.scaled_to``); the fast paths
must agree with it exactly — same entries, ``==`` distances.
"""

import copy
import dataclasses
import functools

import networkx as nx
import pytest

from repro.autotune import (
    ModelFingerprint,
    ParameterPoint,
    SettingsCache,
    graph_edit_distance,
    model_graph,
    signature_distance,
)
from repro.autotune.graph_distance import GED_EXACT_NODE_LIMIT, _signature
from repro.models import available_models, get_model
from repro.models.base import LayerSpec, ModelSpec, ParameterSpec
from repro.sim import Simulator, alibaba_v100_cluster

MODELS = available_models()


def _topologies() -> dict[str, nx.Graph]:
    graphs = {}
    for n in range(1, 9):
        graphs[f"chain{n}"] = nx.path_graph(n)
        graphs[f"K{n}"] = nx.complete_graph(n)
    for nodes in range(1, 5):
        graphs[f"cluster{nodes}"] = alibaba_v100_cluster(
            Simulator(), 8 * nodes).topology_graph()
    return graphs


TOPOLOGIES = _topologies()


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
        return signature_distance(a, b)
    return _first_yield(a, b)


@functools.cache
def _model(name):
    return get_model(name)


@functools.cache
def _reference_model_term(name_a, name_b):
    return signature_distance(model_graph(_model(name_a)),
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
        expected = _signature(model_graph(spec), "size_bucket")
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
        expected = _signature(model_graph(spec), "size_bucket")
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
        assert graph_edit_distance(graph, twin) == \
            _first_yield(graph, twin)

    def test_attributed_copy_matches_networkx_first_yield(self):
        chain = nx.path_graph(6)
        for node in chain:
            chain.nodes[node]["size_bucket"] = node % 3
        twin = copy.deepcopy(chain)
        assert graph_edit_distance(chain, twin, "size_bucket") == \
            _first_yield(chain, twin, "size_bucket") == 0.0

    def test_differing_attribute_is_not_identical(self):
        chain = nx.path_graph(3)
        twin = copy.deepcopy(chain)
        chain.nodes[0]["size_bucket"] = 1
        twin.nodes[0]["size_bucket"] = 2
        assert graph_edit_distance(chain, twin, "size_bucket") == \
            _first_yield(chain, twin, "size_bucket") > 0

    def test_large_identical_graphs_are_zero(self):
        graph = model_graph(get_model("resnet50"))
        assert graph.number_of_nodes() > GED_EXACT_NODE_LIMIT
        assert graph_edit_distance(graph, graph.copy(), "size_bucket") \
            == signature_distance(graph, graph.copy(), "size_bucket") == 0.0


def _cache() -> SettingsCache:
    cache = SettingsCache()
    for index, (model, topo) in enumerate(STORED):
        cache.store(f"{model}@{topo}", get_model(model), TOPOLOGIES[topo],
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
        for topo, graph in TOPOLOGIES.items():
            entry, distance = caches[which].lookup(spec, graph)
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
        caches["live"].lookup(get_model("resnet50"), TOPOLOGIES["K2"])
        specs = [m for m in calls if isinstance(m, ModelSpec)]
        assert len(specs) == 1

