"""Tests for the AutoTuner loop, graph distance and the settings cache."""

import numpy as np
import pytest

from repro.autotune import (
    AutoTuner,
    ModelFingerprint,
    ParameterPoint,
    SearchSpace,
    SettingsCache,
    deployment_distance,
    graph_edit_distance,
    signature_distance,
)
from repro.errors import AutotuneError
from repro.models import get_model
from repro.sim import Simulator, alibaba_v100_cluster


def synthetic_cost(point: ParameterPoint) -> float:
    stream_term = abs(point.num_streams - 16) / 24
    gran_term = abs(np.log2(point.granularity_bytes / 8e6)) / 7
    algo_term = 0.0 if point.algorithm == "ring" else 0.15
    return 0.1 + stream_term + gran_term + algo_term


class TestAutoTuner:
    def test_finds_near_optimal_point(self):
        tuner = AutoTuner(budget=80, seed=0)
        result = tuner.tune(synthetic_cost)
        optimum = synthetic_cost(ParameterPoint(16, 8e6, "ring"))
        assert result.best_cost_s <= 1.5 * optimum
        assert result.best_point.num_streams in (12, 16, 20)

    def test_budget_respected(self):
        tuner = AutoTuner(budget=25, seed=0)
        result = tuner.tune(synthetic_cost)
        assert len(result.trials) == 25

    def test_all_techniques_get_some_budget(self):
        tuner = AutoTuner(budget=100, seed=0)
        result = tuner.tune(synthetic_cost)
        usage = result.technique_usage
        assert set(usage) >= {"grid", "pbt", "bayesian", "hyperband"}
        assert all(count >= 1 for count in usage.values())

    def test_global_best_tracked_correctly(self):
        tuner = AutoTuner(budget=50, seed=1)
        result = tuner.tune(synthetic_cost)
        assert result.best_cost_s == min(t.cost_s for t in result.trials)
        improvements = [t for t in result.trials if t.new_global_best]
        assert improvements[0] is result.trials[0]

    def test_initial_point_from_cache_evaluated_first(self):
        warm = ParameterPoint(16, 8e6, "ring")
        tuner = AutoTuner(budget=10, seed=0, initial_point=warm)
        result = tuner.tune(synthetic_cost)
        assert result.trials[0].technique == "cache"
        assert result.trials[0].point == warm
        # The warm start is the optimum here; nothing should beat it.
        assert result.best_point == warm

    def test_negative_cost_rejected(self):
        tuner = AutoTuner(budget=5, seed=0)
        with pytest.raises(AutotuneError):
            tuner.tune(lambda point: -1.0)

    def test_bad_budget_rejected(self):
        with pytest.raises(AutotuneError):
            AutoTuner(budget=0)


class TestGraphDistance:
    def topo(self, num_gpus):
        sim = Simulator()
        return alibaba_v100_cluster(sim, num_gpus).topology_graph()

    def test_identical_graphs_distance_zero(self):
        a = self.topo(16)
        b = self.topo(16)
        assert graph_edit_distance(a, b) == 0.0

    def test_more_nodes_more_distance(self):
        base = self.topo(16)
        near = self.topo(24)
        far = self.topo(64)
        assert graph_edit_distance(base, near) < \
            graph_edit_distance(base, far)

    def test_signature_distance_symmetric(self):
        a = self.topo(16)
        b = self.topo(32)
        assert signature_distance(a, b) == signature_distance(b, a)

    def test_model_graph_chain(self):
        # The signature opens with the layer chain's node and edge counts.
        spec = get_model("vgg16")
        nodes, edges = ModelFingerprint.of(spec).signature[:2]
        assert nodes == len(spec.layers)
        assert edges == len(spec.layers) - 1

    def test_same_deployment_distance_zero(self):
        spec = get_model("resnet50")
        topo = self.topo(16)
        assert deployment_distance(spec, topo, spec, topo) == 0.0

    def test_different_model_positive_distance(self):
        topo = self.topo(16)
        d = deployment_distance(get_model("resnet50"), topo,
                                get_model("vgg16"), topo)
        assert d > 0


class TestSettingsCache:
    def topo(self, num_gpus):
        sim = Simulator()
        return alibaba_v100_cluster(sim, num_gpus).topology_graph()

    def test_lookup_empty_returns_none(self):
        cache = SettingsCache()
        assert cache.lookup(get_model("resnet50"), self.topo(16)) is None

    def test_exact_match_found(self):
        cache = SettingsCache()
        spec = get_model("resnet50")
        topo = self.topo(16)
        point = ParameterPoint(16, 8e6, "ring")
        cache.store("rn50@16", spec, topo, point, 0.1)
        found = cache.lookup(spec, self.topo(16))
        assert found is not None
        entry, distance = found
        assert entry.best_point == point
        assert distance == 0.0

    def test_nearest_deployment_wins(self):
        cache = SettingsCache()
        spec = get_model("resnet50")
        cache.store("small", spec, self.topo(16),
                    ParameterPoint(4, 8e6, "ring"), 0.2)
        cache.store("large", spec, self.topo(256),
                    ParameterPoint(24, 8e6, "ring"), 0.1)
        found = cache.lookup(spec, self.topo(224))
        assert found is not None
        assert found[0].label == "large"

    def test_max_distance_rejects_far_matches(self):
        cache = SettingsCache()
        spec = get_model("resnet50")
        cache.store("tiny", spec, self.topo(8),
                    ParameterPoint(2, 1e6, "ring"), 0.5)
        assert cache.starting_point(get_model("bert-large"),
                                    self.topo(256),
                                    max_distance=1.0) is None

    def test_eviction_beyond_capacity(self):
        cache = SettingsCache(max_entries=2)
        spec = get_model("resnet50")
        for index, gpus in enumerate((8, 16, 24)):
            cache.store(f"e{index}", spec, self.topo(gpus),
                        ParameterPoint(4, 8e6, "ring"), 0.1)
        assert len(cache) == 2
