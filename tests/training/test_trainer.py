"""Tests for the timed trainer, hybrid parallelism and convergence model."""

import pytest

from repro.errors import TrainingError
from repro.sim.rdma import RDMA
from repro.training.convergence import (
    AIACC_RECIPE_EPOCHS,
    BASELINE_RECIPE_EPOCHS,
    time_to_accuracy,
)
from repro.training.hybrid import make_hybrid_plan, run_hybrid_training
from repro.training.trainer import run_training


class TestRunTraining:
    def test_deterministic(self):
        a = run_training("resnet50", "aiacc", 16, measure_iterations=3,
                         warmup_iterations=1)
        b = run_training("resnet50", "aiacc", 16, measure_iterations=3,
                         warmup_iterations=1)
        assert a.iteration_times_s == b.iteration_times_s

    def test_throughput_definition(self):
        result = run_training("resnet50", "aiacc", 16,
                              batch_per_gpu=32, measure_iterations=2,
                              warmup_iterations=0)
        expected = 16 * 32 / result.mean_iteration_s
        assert result.throughput == pytest.approx(expected)

    def test_scaling_efficiency_below_one(self):
        result = run_training("vgg16", "horovod", 64,
                              measure_iterations=2, warmup_iterations=1)
        assert 0 < result.scaling_efficiency < 1

    def test_more_gpus_more_throughput(self):
        small = run_training("resnet50", "aiacc", 8,
                             measure_iterations=2, warmup_iterations=1)
        large = run_training("resnet50", "aiacc", 64,
                             measure_iterations=2, warmup_iterations=1)
        assert large.throughput > 4 * small.throughput

    def test_default_batch_from_model(self):
        result = run_training("bert-large", "aiacc", 8,
                              measure_iterations=1, warmup_iterations=0)
        assert result.batch_per_gpu == 16

    def test_rdma_transport_faster_for_comm_bound(self):
        tcp = run_training("gpt2-xl", "aiacc", 64, measure_iterations=2,
                           warmup_iterations=1)
        rdma = run_training("gpt2-xl", "aiacc", 64, measure_iterations=2,
                            warmup_iterations=1, transport=RDMA,
                            nic_bandwidth_bps=100e9)
        assert rdma.throughput > tcp.throughput

    def test_invalid_iteration_counts_rejected(self):
        with pytest.raises(TrainingError):
            run_training("resnet50", "aiacc", 8, measure_iterations=0)


class TestHybrid:
    def test_plan_shards_parameters(self):
        plan = make_hybrid_plan("resnet50", 4)
        shard = plan.per_gpu_spec()
        assert shard.num_parameters == pytest.approx(
            plan.model.num_parameters / 4, rel=0.01)

    def test_mp_degree_one_is_identity(self):
        plan = make_hybrid_plan("resnet50", 1)
        assert plan.per_gpu_spec() is plan.model
        assert plan.activation_exchange_time_s(64, 1e12) == 0.0

    def test_aiacc_beats_kvstore_and_gap_grows(self):
        # Fig. 13's shape: AIACC / MXNet-KVStore improves with scale.
        ratios = []
        for gpus in (16, 64):
            aiacc = run_hybrid_training("resnet50", "aiacc", gpus, 2,
                                        measure_iterations=2,
                                        warmup_iterations=1)
            kvstore = run_hybrid_training("resnet50", "mxnet-kvstore",
                                          gpus, 2, measure_iterations=2,
                                          warmup_iterations=1)
            ratios.append(aiacc.throughput / kvstore.throughput)
        assert ratios[0] > 1.0
        assert ratios[1] > ratios[0]

    def test_indivisible_gpu_count_rejected(self):
        with pytest.raises(TrainingError):
            run_hybrid_training("resnet50", "aiacc", 10, 4)


class TestConvergence:
    def test_dawnbench_metrics(self):
        result = time_to_accuracy(throughput_samples_per_s=44000,
                                  num_gpus=128)
        assert result.num_instances == 16
        assert result.train_seconds == pytest.approx(
            1_281_167 * AIACC_RECIPE_EPOCHS / 44000)
        assert result.cost_usd > 0

    def test_better_recipe_fewer_epochs(self):
        fast = time_to_accuracy(44000, 128,
                                epochs_to_target=AIACC_RECIPE_EPOCHS)
        slow = time_to_accuracy(44000, 128,
                                epochs_to_target=BASELINE_RECIPE_EPOCHS)
        assert fast.train_seconds < slow.train_seconds / 5

    def test_validation(self):
        with pytest.raises(TrainingError):
            time_to_accuracy(0, 128)
        with pytest.raises(TrainingError):
            time_to_accuracy(1000, 0)


class TestLogging:
    def test_trainer_emits_debug_measurement(self, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro.training"):
            run_training("resnet50", "aiacc", 8, measure_iterations=1,
                         warmup_iterations=0)
        assert any("resnet50/aiacc" in record.message
                   for record in caplog.records)

    def test_tuner_logs_improvements(self, caplog):
        import logging

        from repro.autotune import AutoTuner

        with caplog.at_level(logging.DEBUG, logger="repro.autotune"):
            AutoTuner(budget=5, seed=0).tune(
                lambda point: float(point.num_streams))
        assert any("new best" in record.message
                   for record in caplog.records)
