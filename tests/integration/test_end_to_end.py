"""Integration tests combining several subsystems end to end."""

import numpy as np

from repro.core.elastic import ElasticRuntime
from repro.core.fault_tolerance import CheckpointManager
from repro.core.perseus import PerseusSession
from repro.core.runtime import AIACCConfig
from repro.harness import measure
from repro.obs import Observability, chrome_trace_events
from repro.training.numeric import (
    TinyMLP,
    make_synthetic_task,
    train_data_parallel,
)
from repro.training.optimizer import SGD, AdamSGD, DistributedOptimizer
from repro.training.lr_schedule import LinearDecay
from repro.training.trainer import run_training


class TestNumericFullStack:
    """All the numeric features composed in one training run."""

    def test_fp16_tiny_units_nan_check_adamsgd_linear_decay(self):
        task = make_synthetic_task(num_samples=512, seed=0)
        model = TinyMLP(16, 16, 4, seed=1)
        config = AIACCConfig(
            granularity_bytes=512 * 1024,
            fp16_compression=True,
            nan_check=True,
        )
        session = PerseusSession(4, config=config)
        optimizer = AdamSGD(lr=0.01, sgd_lr=0.05, switch_step=10)
        schedule = LinearDecay(base_lr=0.01, total_steps=25,
                               warmup_steps=3)
        dist = DistributedOptimizer(optimizer, session)
        worker_params = [model.clone_parameters() for _ in range(4)]

        losses = []
        for step in range(25):
            lo = (step * 64) % 448
            grads, step_losses = [], []
            for rank in range(4):
                shard = slice(lo + rank * 16, lo + (rank + 1) * 16)
                loss, g = TinyMLP.loss_and_grads(
                    worker_params[rank], task.inputs[shard],
                    task.labels[shard])
                grads.append(g)
                step_losses.append(loss)
            optimizer.set_lr(schedule.lr_at(step))
            dist.step(worker_params, grads)
            losses.append(float(np.mean(step_losses)))

        assert losses[-1] < losses[0] * 0.5
        # Workers stay in lockstep through the whole feature stack.
        for name in worker_params[0]:
            for other in worker_params[1:]:
                np.testing.assert_array_equal(worker_params[0][name],
                                              other[name])

    def test_failure_recovery_preserves_training_math(self, tmp_path):
        task = make_synthetic_task(num_samples=256, seed=4)
        model = TinyMLP(16, 8, 4, seed=5)

        # Reference: 8 uninterrupted steps on 2 workers.
        ref_params, _ = train_data_parallel(
            model, task, SGD(lr=0.1), 8, 2, 32)

        # Interrupted run: checkpoint after 5, crash, restore, redo 3.
        manager = CheckpointManager(tmp_path)
        runtime = ElasticRuntime(manager, range(2), gpus_per_node=1)
        partial, _ = train_data_parallel(
            model, task, SGD(lr=0.1), 5, 2, 32)
        manager.save(5, partial[0])
        _, restored, _ = runtime.failure([1], at_s=0.0,
                                         reconfigure_time_s=0.0)
        # Rebuild to 2 workers (one rejoins) and replay the tail; the
        # data order is deterministic so results must match exactly...
        rebuilt, _ = runtime.scale_up([1], at_s=0.0,
                                      live_parameters=[restored],
                                      resumed_iteration=5,
                                      reconfigure_time_s=0.0)
        assert runtime.view.world_size == 2

        session = PerseusSession(2)
        dist = DistributedOptimizer(SGD(lr=0.1), session)
        worker_params = [
            {k: v.copy() for k, v in state.items()} for state in rebuilt]
        batches = task.batches(32)
        for _ in range(5):  # skip the 5 already-trained batches
            next(batches)
        for _ in range(3):
            inputs, labels = next(batches)
            grads = []
            for rank in range(2):
                _, g = TinyMLP.loss_and_grads(
                    worker_params[rank],
                    inputs[rank * 16:(rank + 1) * 16],
                    labels[rank * 16:(rank + 1) * 16])
                grads.append(g)
            dist.step(worker_params, grads)

        # ... up to optimizer momentum state, which the crash discarded
        # (we restart with a fresh SGD without momentum, so it's exact).
        for name in ref_params[0]:
            np.testing.assert_allclose(worker_params[0][name],
                                       ref_params[0][name],
                                       rtol=1e-6, atol=1e-8)


class TestTimedFullStack:
    def test_trace_spans_exported_from_real_run(self):
        obs = Observability()
        run_training("resnet50", "aiacc", 16, measure_iterations=1,
                     warmup_iterations=0, obs=obs)
        events = chrome_trace_events(obs.timeline)
        # Concurrent all-reduce units overlap in the timeline: at least
        # two complete events intersect in time.
        complete = sorted((e for e in events if e["ph"] == "X"
                           and e["name"] == "allreduce-unit"),
                          key=lambda e: e["ts"])
        overlaps = any(
            a["ts"] + a["dur"] > b["ts"]
            for a, b in zip(complete, complete[1:]))
        assert overlaps

    def test_scale_stress_512_gpus(self):
        result = measure("resnet50", "aiacc", 512)
        assert result.scaling_efficiency > 0.7
        assert result.throughput > 100_000

    def test_all_models_all_backends_smoke(self):
        # Every (model, backend) pair runs one iteration without error.
        from repro.frameworks import available_backends
        from repro.models import available_models

        for model in available_models():
            for backend in available_backends():
                result = run_training(model, backend, 16,
                                      measure_iterations=1,
                                      warmup_iterations=0)
                assert result.throughput > 0, (model, backend)
