"""Tests for settings-cache persistence and elastic timed scaling."""

import json
import math
import pathlib

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autotune import ParameterPoint, SettingsCache, TopologyRecord
from repro.errors import AutotuneError
from repro.models import get_model
from repro.sim import Simulator, alibaba_v100_cluster


def topo(num_gpus):
    return alibaba_v100_cluster(Simulator(), num_gpus).topology_graph()


class TestCachePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        cache = SettingsCache()
        point = ParameterPoint(12, 16e6, "ring")
        cache.store("rn50@32", get_model("resnet50"), topo(32), point, 0.2)
        path = tmp_path / "cache.json"
        cache.save(path)

        restored = SettingsCache.load(path)
        assert len(restored) == 1
        found = restored.lookup(get_model("resnet50"), topo(32))
        assert found is not None
        entry, distance = found
        assert entry.best_point == point
        assert entry.best_cost_s == 0.2
        # Same deployment -> distance zero even through the fingerprint.
        assert distance == 0.0

    def test_restored_cache_distinguishes_models(self, tmp_path):
        cache = SettingsCache()
        cache.store("rn", get_model("resnet50"), topo(32),
                    ParameterPoint(8, 8e6, "ring"), 0.2)
        cache.store("vgg", get_model("vgg16"), topo(32),
                    ParameterPoint(16, 16e6, "ring"), 0.7)
        path = tmp_path / "cache.json"
        cache.save(path)
        restored = SettingsCache.load(path)
        found = restored.lookup(get_model("vgg16"), topo(32))
        assert found is not None
        assert found[0].label == "vgg"

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(AutotuneError):
            SettingsCache.load(tmp_path / "nope.json")

    def test_load_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(AutotuneError):
            SettingsCache.load(path)

    def test_empty_cache_roundtrip(self, tmp_path):
        path = tmp_path / "empty.json"
        SettingsCache().save(path)
        assert len(SettingsCache.load(path)) == 0

    def test_corrupt_entry_is_quarantined_not_fatal(self, tmp_path):
        # One corrupt entry must cost one warm start, not the whole
        # cache: the good entries still load, the bad one is recorded.
        cache = SettingsCache()
        cache.store("rn50@32", get_model("resnet50"), topo(32),
                    ParameterPoint(12, 16e6, "ring"), 0.2)
        path = tmp_path / "cache.json"
        cache.save(path)
        payload = json.loads(path.read_text())
        payload.append({"label": "broken", "model": {"oops": True}})
        path.write_text(json.dumps(payload))

        restored = SettingsCache.load(path)
        assert len(restored) == 1
        assert restored.lookup(get_model("resnet50"), topo(32)) is not None
        assert len(restored.quarantined) == 1
        entry, reason = restored.quarantined[0]
        assert entry["label"] == "broken"
        assert reason

    def test_corrupt_entry_is_logged(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps([{"label": "broken"}]))
        with caplog.at_level("WARNING", logger="repro.autotune.cache"):
            restored = SettingsCache.load(path)
        assert len(restored) == 0
        assert len(restored.quarantined) == 1
        assert any("quarantined corrupt entry" in record.message
                   for record in caplog.records)

    def test_non_list_payload_still_raises(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(AutotuneError):
            SettingsCache.load(path)


#: A cache file written by the graph-building cache (before fingerprints
#: were precomputed): three deployments, resnet50@16, vgg16@32 and
#: bert-large@8.
SAVED = pathlib.Path(__file__).parent / "settings_cache_saved.json"


def _saved_cache():
    cache = SettingsCache()
    cache.store("rn50@16", get_model("resnet50"), topo(16),
                ParameterPoint(8, 8e6, "ring"), 0.25)
    cache.store("vgg@32", get_model("vgg16"), topo(32),
                ParameterPoint(16, 16e6, "ring"), 0.5)
    cache.store("bert@8", get_model("bert-large"), topo(8),
                ParameterPoint(4, 32e6, "tree"), 1.5)
    return cache


class TestSavedFormat:
    def test_save_writes_the_committed_format(self, tmp_path):
        path = tmp_path / "cache.json"
        _saved_cache().save(path)
        assert path.read_text() == SAVED.read_text()

    def test_reload_and_resave_is_byte_identical(self, tmp_path):
        path = tmp_path / "cache.json"
        SettingsCache.load(SAVED).save(path)
        assert path.read_text() == SAVED.read_text()

    @pytest.mark.parametrize("model, gpus, label, distance", (
        ("resnet50", 8, "rn50@16", 8.0),
        ("resnet50", 16, "rn50@16", 0.0),
        ("resnet50", 32, "vgg@32", 12.0),
        ("vgg16", 24, "vgg@32", 16.0),
        ("bert-large", 32, "bert@8", 36.0),
        ("transformer", 8, "rn50@16", 32.0),
        ("resnet101", 32, "vgg@32", 86.0),
    ))
    def test_saved_file_gives_the_same_lookups(self, model, gpus, label,
                                               distance):
        restored = SettingsCache.load(SAVED)
        assert restored.quarantined == []
        entry, found = restored.lookup(get_model(model), topo(gpus))
        assert (entry.label, found) == (label, distance)


#: A cache file written when the cache keyed on networkx graphs: a 4-node
#: cluster, a bare K2 and a bare 3-node chain.
GRAPH_KEYED = pathlib.Path(__file__).parent / "data" / "graph_keyed_cache.json"


def _query_topology(name):
    if name.startswith("cluster"):
        return topo(8 * int(name.removeprefix("cluster")))
    if name.startswith("K"):
        return TopologyRecord.of_graph(nx.complete_graph(int(name[1:])))
    return TopologyRecord.of_graph(nx.path_graph(int(name[5:])))


class TestGraphKeyedFile:
    def test_same_cache_saves_the_committed_bytes(self, tmp_path):
        cache = SettingsCache()
        cache.store("rn50@cluster4", get_model("resnet50"), topo(32),
                    ParameterPoint(12, 16e6, "ring"), 0.2)
        cache.store("vgg@K2", get_model("vgg16"),
                    TopologyRecord.of_graph(nx.complete_graph(2)),
                    ParameterPoint(4, 8e6, "ring"), 0.5)
        cache.store("bert@chain3", get_model("bert-large"),
                    TopologyRecord.of_graph(nx.path_graph(3)),
                    ParameterPoint(2, 32e6, "tree"), 1.5)
        path = tmp_path / "cache.json"
        cache.save(path)
        assert path.read_bytes() == GRAPH_KEYED.read_bytes()

    def test_reload_and_resave_is_byte_identical(self, tmp_path):
        path = tmp_path / "cache.json"
        SettingsCache.load(GRAPH_KEYED).save(path)
        assert path.read_bytes() == GRAPH_KEYED.read_bytes()

    # Labels and distances the networkx-keyed cache gave for this file.
    @pytest.mark.parametrize("model, topology, label, distance", (
        ("resnet50", "cluster1", "vgg@K2", 20.0),
        ("resnet50", "chain2", "vgg@K2", 12.0),
        ("resnet50", "K3", "rn50@cluster4", 16.0),
        ("resnet50", "chain3", "rn50@cluster4", 20.0),
        ("resnet50", "cluster4", "rn50@cluster4", 0.0),
        ("resnet50", "chain4", "rn50@cluster4", 12.0),
        ("vgg16", "cluster2", "vgg@K2", 0.0),
        ("vgg16", "chain3", "vgg@K2", 8.0),
        ("vgg16", "K4", "rn50@cluster4", 12.0),
        ("vgg16", "chain5", "vgg@K2", 24.0),
        ("bert-large", "cluster3", "bert@chain3", 4.0),
        ("bert-large", "chain3", "bert@chain3", 0.0),
        ("bert-large", "K5", "bert@chain3", 40.0),
        ("transformer", "chain4", "rn50@cluster4", 36.0),
        ("transformer", "cluster5", "rn50@cluster4", 44.0),
    ))
    def test_lookups_match_the_graph_keyed_cache(self, model, topology,
                                                 label, distance):
        restored = SettingsCache.load(GRAPH_KEYED)
        assert restored.quarantined == []
        entry, found = restored.lookup(get_model(model),
                                       _query_topology(topology))
        assert (entry.label, found) == (label, distance)


def _with_model(tmp_path, **fields):
    """Load :data:`SAVED` plus one copy of its first entry whose model
    fingerprint has ``fields`` overridden."""
    payload = json.loads(SAVED.read_text())
    bad = json.loads(json.dumps(payload[0]))
    bad["label"] = "bad"
    bad["model"].update(fields)
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(payload + [bad]))
    return SettingsCache.load(path)


class TestMalformedFingerprint:
    """A fingerprint no ModelSpec could have is quarantined, with a
    reason, instead of being coerced into one."""

    def _assert_quarantined(self, cache, reason):
        assert [entry.label for entry in cache._entries] == \
            ["rn50@16", "vgg@32", "bert@8"]
        [(item, why)] = cache.quarantined
        assert item["label"] == "bad"
        assert reason in why

    def test_size_and_flop_lists_of_different_lengths(self, tmp_path):
        cache = _with_model(tmp_path, layer_sizes=[10, 20, 30],
                            layer_flops=[1.0, 2.0])
        self._assert_quarantined(cache, "one length")

    def test_negative_size(self, tmp_path):
        cache = _with_model(tmp_path, layer_sizes=[10, -5],
                            layer_flops=[1.0, 2.0])
        self._assert_quarantined(cache, "-5")

    def test_boolean_size(self, tmp_path):
        cache = _with_model(tmp_path, layer_sizes=[10, True],
                            layer_flops=[1.0, 2.0])
        self._assert_quarantined(cache, "True")

    def test_fractional_size(self, tmp_path):
        cache = _with_model(tmp_path, layer_sizes=[10, 2.7],
                            layer_flops=[1.0, 2.0])
        self._assert_quarantined(cache, "2.7")

    def test_string_size(self, tmp_path):
        cache = _with_model(tmp_path, layer_sizes=[10, "7"],
                            layer_flops=[1.0, 2.0])
        self._assert_quarantined(cache, "'7'")

    def test_nan_flops(self, tmp_path):
        cache = _with_model(tmp_path, layer_sizes=[10, 20],
                            layer_flops=[1.0, float("nan")])
        self._assert_quarantined(cache, "nan")

    def test_non_string_name(self, tmp_path):
        cache = _with_model(tmp_path, name=5)
        self._assert_quarantined(cache, "name")

    def test_zero_size_layer_still_loads(self, tmp_path):
        # A layer without parameters (pooling, activation) saves size 0.
        cache = _with_model(tmp_path, layer_sizes=[10, 0],
                            layer_flops=[1.0, 0.0])
        assert cache.quarantined == []
        assert cache._entries[-1].model.layer_sizes == (10, 0)

    def test_integer_flops_load_as_floats(self, tmp_path):
        # FLOPs load as floats whatever their JSON number type, so a
        # load then save writes floats.
        cache = _with_model(tmp_path, layer_sizes=[10, 20],
                            layer_flops=[1, 2])
        flops = cache._entries[-1].model.layer_flops
        assert [type(value) for value in flops] == [float, float]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20)
#: Entries shaped like saved ones, with every field free to go wrong, so
#: the fuzz reaches the per-entry validation.
POINT_LIKE = st.fixed_dictionaries({}, optional={
    "num_streams": st.integers(-3, 8) | JSON_VALUES,
    "granularity_bytes": st.floats() | st.integers(-1, 2) | JSON_VALUES,
    "algorithm": st.sampled_from(("ring", "tree")) | JSON_VALUES,
})
ENTRY_LIKE = st.fixed_dictionaries({
    "label": st.text(max_size=8),
    "model": st.just({"name": "m", "layer_sizes": [10, 20],
                      "layer_flops": [1.0, 2.0], "compute_occupancy": 0.5}),
    "topology": st.just({"directed": False, "multigraph": False,
                         "graph": {}, "nodes": [{"id": 0}], "links": []}),
    "best_point": POINT_LIKE,
    "best_cost_s": st.floats() | st.integers(-2, 2) | JSON_VALUES,
})


def _valid(entry):
    point = entry.best_point
    return (isinstance(point.num_streams, int) and point.num_streams >= 1
            and math.isfinite(point.granularity_bytes)
            and point.granularity_bytes > 0
            and math.isfinite(entry.best_cost_s) and entry.best_cost_s >= 0)


class TestLoaderFuzz:
    """Arbitrary JSON loads as a cache of valid entries (the rest
    quarantined) or raises :class:`AutotuneError` — never another
    exception."""

    @staticmethod
    def _load(tmp_path_factory, text):
        path = tmp_path_factory.mktemp("cache") / "cache.json"
        path.write_text(text)
        try:
            return SettingsCache.load(path)
        except AutotuneError:
            return None

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(JSON_VALUES, st.lists(ENTRY_LIKE | JSON_VALUES,
                                           max_size=3)))
    def test_payload_loads_or_raises_autotune_error(self, tmp_path_factory,
                                                    data):
        cache = self._load(tmp_path_factory, json.dumps(data))
        if cache is None:
            return
        assert isinstance(data, list)
        assert len(cache) + len(cache.quarantined) == len(data)
        assert all(_valid(entry) for entry in cache._entries)

    def test_deep_nesting_raises_autotune_error(self, tmp_path_factory):
        text = "[" * 100000 + "]" * 100000
        assert self._load(tmp_path_factory, text) is None

    @pytest.mark.parametrize("field, value", (
        ("best_cost_s", float("nan")),
        ("best_cost_s", -0.5),
        ("best_cost_s", float("inf")),
        ("num_streams", -3),
        ("num_streams", 0),
        ("granularity_bytes", 0.0),
        ("granularity_bytes", -1e6),
    ))
    def test_impossible_values_are_quarantined(self, tmp_path, field,
                                               value):
        cache = SettingsCache()
        cache.store("rn50@32", get_model("resnet50"), topo(32),
                    ParameterPoint(12, 16e6, "ring"), 0.2)
        path = tmp_path / "cache.json"
        cache.save(path)
        payload = json.loads(path.read_text())
        bad = json.loads(json.dumps(payload[0]))
        bad["label"] = "bad"
        if field == "best_cost_s":
            bad[field] = value
        else:
            bad["best_point"][field] = value
        path.write_text(json.dumps(payload + [bad]))
        restored = SettingsCache.load(path)
        assert [entry.label for entry in restored._entries] == ["rn50@32"]
        assert [item["label"] for item, _ in restored.quarantined] == ["bad"]
