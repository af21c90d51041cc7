"""Unit tests for the elastic membership runtime (`repro.core.elastic`).

Covers the epoch bookkeeping (views, transitions, monotonic epochs), the
clean-departure and live-broadcast join paths, the checkpoint restore of
a failure and the tuner re-key on topology change.
"""

import collections

import numpy as np
import pytest

from repro.autotune.cache import SettingsCache
from repro.autotune.space import ParameterPoint
from repro.core.elastic import ElasticRuntime, EpochTransition, \
    MembershipView
from repro.core.fault_tolerance import CheckpointManager
from repro.core.runtime import AIACCConfig
from repro.errors import CheckpointError, TrainingError
from repro.sim.kernel import Simulator
from repro.sim.topology import Cluster, NodeSpec


def make_runtime(tmp_path, nodes=4, gpus_per_node=2, cache=None):
    return ElasticRuntime(CheckpointManager(tmp_path), members=range(nodes),
                          gpus_per_node=gpus_per_node, settings_cache=cache)


def kinds(runtime):
    """How many transitions of each kind the runtime recorded."""
    return collections.Counter(t.kind for t in runtime.transitions)


class TestMembershipView:
    def test_world_size(self):
        view = MembershipView(0, (0, 1, 2), gpus_per_node=4)
        assert view.num_nodes == 3
        assert view.world_size == 12

    def test_validation(self):
        with pytest.raises(TrainingError):
            MembershipView(-1, (0,), 1)
        with pytest.raises(TrainingError):
            MembershipView(0, (), 1)
        with pytest.raises(TrainingError):
            MembershipView(0, (0, 0), 1)
        with pytest.raises(TrainingError):
            MembershipView(0, (0,), 0)


class TestEpochTransition:
    def make(self, **overrides):
        base = dict(epoch=1, at_s=1.0, kind="scale-down", departed=(1,),
                    joined=(), world_before=8, world_after=6,
                    live_continuation=True, broadcast_identical=None,
                    resumed_iteration=3, lr_scale=0.75,
                    reconfigure_time_s=0.5)
        base.update(overrides)
        return EpochTransition(**base)

    def test_valid_transition(self):
        assert self.make().kind == "scale-down"

    def test_rejects_unknown_kind(self):
        with pytest.raises(TrainingError):
            self.make(kind="resize")

    def test_rejects_bad_worlds_and_times(self):
        with pytest.raises(TrainingError):
            self.make(world_after=0)
        with pytest.raises(TrainingError):
            self.make(reconfigure_time_s=-0.1)


class TestScaleDown:
    def test_clean_departure_continues_live(self, tmp_path):
        runtime = make_runtime(tmp_path)
        transition = runtime.scale_down([3], at_s=2.0,
                                        resumed_iteration=5,
                                        reconfigure_time_s=0.4)
        assert runtime.epoch == 1
        assert runtime.members == (0, 1, 2)
        assert runtime.view.world_size == 6
        # 1 node x 2 GPUs departed.
        assert transition.world_before - transition.world_after == 2
        assert kinds(runtime) == {"scale-down": 1}  # no checkpoint restore
        assert transition.kind == "scale-down"
        assert transition.live_continuation is True
        assert transition.broadcast_identical is None
        assert transition.resumed_iteration == 5  # nothing lost
        assert transition.lr_scale == pytest.approx(0.75)

    def test_rejects_non_member_and_empty_group(self, tmp_path):
        runtime = make_runtime(tmp_path)
        with pytest.raises(TrainingError, match="non-members"):
            runtime.scale_down([9], at_s=0.0, resumed_iteration=0,
                               reconfigure_time_s=0.0)
        with pytest.raises(TrainingError):
            runtime.scale_down([], at_s=0.0, resumed_iteration=0,
                               reconfigure_time_s=0.0)
        with pytest.raises(TrainingError):
            runtime.scale_down([0, 1, 2, 3], at_s=0.0,
                               resumed_iteration=0, reconfigure_time_s=0.0)
        assert runtime.transitions == []


class TestScaleUp:
    def test_join_broadcasts_bit_identical_state(self, tmp_path):
        runtime = make_runtime(tmp_path, nodes=2)
        live = [{"w": np.arange(6, dtype=np.float32) + rank * 0}
                for rank in range(4)]
        states, transition = runtime.scale_up(
            [2], at_s=1.0, live_parameters=live, resumed_iteration=4,
            reconfigure_time_s=0.8)
        assert runtime.epoch == 1
        assert runtime.members == (0, 1, 2)
        assert runtime.view.world_size == 6
        assert len(states) == 6
        # Every rank — including both joiners — is bit-identical to
        # rank 0: the broadcast correctness contract.
        for state in states[1:]:
            np.testing.assert_array_equal(state["w"], states[0]["w"])
        assert transition.kind == "scale-up"
        assert transition.broadcast_identical is True
        assert transition.live_continuation is True
        assert transition.lr_scale == pytest.approx(1.5)

    def test_rejoin_keeps_identity(self, tmp_path):
        runtime = make_runtime(tmp_path)
        runtime.scale_down([1], at_s=1.0, resumed_iteration=2,
                           reconfigure_time_s=0.1)
        live = [{"w": np.ones(2)} for _ in range(6)]
        _, transition = runtime.scale_up(
            [1], at_s=2.0, live_parameters=live, resumed_iteration=3,
            reconfigure_time_s=0.2)
        assert runtime.members == (0, 2, 3, 1)
        assert transition.joined == (1,)
        assert runtime.epoch == 2
        assert runtime.lr_scale() == pytest.approx(1.0)

    def test_rejects_existing_member(self, tmp_path):
        runtime = make_runtime(tmp_path)
        with pytest.raises(TrainingError, match="existing members"):
            runtime.scale_up([0], at_s=0.0, live_parameters=[],
                             resumed_iteration=0, reconfigure_time_s=0.0)

    def test_rejects_live_state_for_another_world_size(self, tmp_path):
        runtime = make_runtime(tmp_path)  # 4 nodes x 2 GPUs
        with pytest.raises(TrainingError, match="8 live workers"):
            runtime.scale_up([5], at_s=0.0,
                             live_parameters=[{"w": np.zeros(1)}] * 6,
                             resumed_iteration=0, reconfigure_time_s=0.0)
        assert runtime.epoch == 0
        assert runtime.view.world_size == 8


class TestFailureTransition:
    def test_failure_records_checkpoint_restore(self, tmp_path):
        runtime = make_runtime(tmp_path)
        runtime.checkpoints.save(4, {"w": np.full(2, 4.0)})
        iteration, parameters, transition = runtime.failure(
            [2], at_s=3.0, reconfigure_time_s=1.5)
        assert iteration == 4
        np.testing.assert_array_equal(parameters["w"], np.full(2, 4.0))
        assert transition.kind == "failure"
        assert transition.live_continuation is False
        assert transition.resumed_iteration == 4
        assert runtime.members == (0, 1, 3)
        assert runtime.view.world_size == 6

    def test_failed_restore_leaves_the_group_unchanged(self, tmp_path):
        runtime = make_runtime(tmp_path)
        runtime.checkpoints.save(4, {"w": np.zeros(1)}).write_bytes(b"bad")
        with pytest.raises(CheckpointError):
            runtime.failure([2], at_s=3.0, reconfigure_time_s=1.5)
        with pytest.raises(TrainingError, match="non-members"):
            runtime.failure([9], at_s=3.0, reconfigure_time_s=1.5)
        assert runtime.epoch == 0
        assert runtime.view.world_size == 8
        assert runtime.transitions == []

    def test_epochs_are_monotonic_across_transitions(self, tmp_path):
        runtime = make_runtime(tmp_path)
        runtime.scale_down([0], at_s=1.0, resumed_iteration=1,
                           reconfigure_time_s=0.1)
        runtime.failure([1], at_s=2.0, reconfigure_time_s=0.5)
        live = [{"w": np.zeros(1)} for _ in range(4)]
        runtime.scale_up([5], at_s=3.0, live_parameters=live,
                         resumed_iteration=2, reconfigure_time_s=0.3)
        assert [t.epoch for t in runtime.transitions] == [1, 2, 3]
        assert runtime.epoch == 3
        assert kinds(runtime) == {"scale-down": 1, "failure": 1,
                                  "scale-up": 1}


class TestRetune:
    def test_rekey_applies_cached_point(self, tmp_path):
        from repro.models.zoo import get_model

        sim = Simulator()
        model = get_model("resnet50")
        cluster = Cluster(sim, 3, NodeSpec(gpus_per_node=2))
        cache = SettingsCache()
        cache.store("prior-3node", model, cluster.topology_graph(),
                    ParameterPoint(num_streams=4,
                                   granularity_bytes=8e6,
                                   algorithm="hierarchical"),
                    best_cost_s=0.01)
        runtime = make_runtime(tmp_path, cache=cache)
        config, label = runtime.retune(model, cluster, AIACCConfig())
        assert label == "prior-3node"
        assert config.num_streams == 4
        assert config.granularity_bytes == 8e6
        assert config.algorithm == "hierarchical"

    def test_no_cache_leaves_config_unchanged(self, tmp_path):
        from repro.models.zoo import get_model

        sim = Simulator()
        cluster = Cluster(sim, 2, NodeSpec(gpus_per_node=2))
        runtime = make_runtime(tmp_path, cache=None)
        config = AIACCConfig()
        tuned, label = runtime.retune(get_model("resnet50"), cluster,
                                      config)
        assert tuned is config
        assert label is None


class TestRuntimeMembership:
    """What the deleted coordinator's own tests checked, on the runtime."""

    def test_leave_counts_departures(self, tmp_path):
        runtime = make_runtime(tmp_path, nodes=4, gpus_per_node=2)
        transition = runtime.scale_down([3], at_s=0.0, resumed_iteration=0,
                                        reconfigure_time_s=0.0)
        assert runtime.view.world_size == 6
        assert transition.world_before - transition.world_after == 2
        assert kinds(runtime) == {"scale-down": 1}

    def test_leave_rejects_bad_counts(self, tmp_path):
        runtime = make_runtime(tmp_path, nodes=4, gpus_per_node=1)
        with pytest.raises(TrainingError):
            runtime.scale_down([], at_s=0.0, resumed_iteration=0,
                               reconfigure_time_s=0.0)
        with pytest.raises(TrainingError):
            runtime.scale_down([0, 1, 2, 3], at_s=0.0, resumed_iteration=0,
                               reconfigure_time_s=0.0)

    def test_join_broadcast_multi_tensor_state(self, tmp_path):
        runtime = make_runtime(tmp_path, nodes=3, gpus_per_node=1)
        live = [{"w": np.full((2, 3), 7.0), "b": np.arange(4.0)}
                for _ in range(3)]
        result, _ = runtime.scale_up([3, 4], at_s=0.0, live_parameters=live,
                                     resumed_iteration=0,
                                     reconfigure_time_s=0.0)
        assert runtime.view.world_size == 5
        assert kinds(runtime) == {"scale-up": 1}
        assert runtime.transitions[0].joined == (3, 4)
        assert len(result) == 5
        for state in result:
            np.testing.assert_array_equal(state["w"], live[0]["w"])
            np.testing.assert_array_equal(state["b"], live[0]["b"])
            assert state["w"].shape == (2, 3)  # shape survives the ravel
