"""Fault tolerance and elastic deployment (paper Section IV).

A production scenario on the numeric engine:

1. four workers train with periodic checkpoints;
2. one worker's node fails mid-run — the elastic runtime shrinks the
   group and restores everyone from the last checkpoint;
3. later two fresh workers join — the runtime broadcasts the *live*
   parameters to them (no checkpoint round-trip) and training continues
   at the larger scale;
4. a NaN is injected to show the gradient debugger attributing it to the
   exact parameter and worker.

Run:  python examples/fault_tolerance_elastic.py
"""

import tempfile

import numpy as np

from repro.core.elastic import ElasticRuntime
from repro.core.fault_tolerance import CheckpointManager
from repro.core.perseus import PerseusSession
from repro.core.runtime import AIACCConfig
from repro.errors import NaNGradientError
from repro.training.numeric import TinyMLP, make_synthetic_task
from repro.training.optimizer import SGD, DistributedOptimizer


def train_steps(session, optimizer, worker_params, task, start, steps,
                batch_per_worker):
    """Run some data-parallel steps; returns the last step index."""
    for step in range(start, start + steps):
        offset = (step * batch_per_worker * session.size()) % 512
        grads = []
        for rank in range(session.size()):
            lo = (offset + rank * batch_per_worker) % 512
            hi = lo + batch_per_worker
            _, g = TinyMLP.loss_and_grads(worker_params[rank],
                                          task.inputs[lo:hi],
                                          task.labels[lo:hi])
            grads.append(g)
        optimizer.step(worker_params, grads)
    return start + steps


def main() -> None:
    task = make_synthetic_task(num_samples=512, seed=0)
    model = TinyMLP(16, 16, 4, seed=1)

    with tempfile.TemporaryDirectory() as ckpt_dir:
        checkpoints = CheckpointManager(ckpt_dir, keep_last=2)
        # One GPU per node: each worker is its own node identity.
        runtime = ElasticRuntime(checkpoints, members=range(4),
                                 gpus_per_node=1)

        session = PerseusSession(4)
        optimizer = DistributedOptimizer(SGD(lr=0.1, momentum=0.9), session)
        worker_params = [model.clone_parameters() for _ in range(4)]

        print("Phase 1: training on 4 workers with checkpointing ...")
        step = train_steps(session, optimizer, worker_params, task, 0, 10, 8)
        checkpoints.save(step, worker_params[0])
        step = train_steps(session, optimizer, worker_params, task,
                           step, 5, 8)
        print(f"  reached step {step}; last checkpoint at step 10")

        print("\nPhase 2: node failure! restoring from checkpoint ...")
        restored_step, params, _ = runtime.failure(
            [3], at_s=0.0, reconfigure_time_s=0.0)
        world = runtime.view.world_size
        print(f"  resumed at step {restored_step} with {world} workers "
              f"(steps 11-15 are recomputed)")
        session = PerseusSession(world)
        optimizer = DistributedOptimizer(SGD(lr=0.1, momentum=0.9), session)
        worker_params = [
            {k: v.copy() for k, v in params.items()} for _ in range(world)
        ]
        step = train_steps(session, optimizer, worker_params, task,
                           restored_step, 5, 8)

        print("\nPhase 3: two new nodes join; broadcasting parameters ...")
        worker_params, joined = runtime.scale_up(
            [4, 5], at_s=0.0, live_parameters=worker_params,
            resumed_iteration=step, reconfigure_time_s=0.0)
        print(f"  now {runtime.view.world_size} workers; joiners received "
              f"identical parameters: {joined.broadcast_identical}")
        session = PerseusSession(runtime.view.world_size)
        optimizer = DistributedOptimizer(SGD(lr=0.1, momentum=0.9), session)
        step = train_steps(session, optimizer, worker_params, task,
                           step, 5, 8)
        accuracy = TinyMLP.accuracy(worker_params[0], task.inputs,
                                    task.labels)
        print(f"  training continued to step {step}; accuracy "
              f"{accuracy:.1%}")

        print("\nPhase 4: NaN debugging ...")
        nan_session = PerseusSession(
            2, config=AIACCConfig(nan_check=True))
        nan_session.register_parameters({"w": (3,)})
        good = {"w": np.ones(3)}
        bad = {"w": np.array([1.0, np.nan, 3.0])}
        try:
            nan_session.reduce_gradients([good, bad])
        except NaNGradientError as error:
            print(f"  caught: {error}")


if __name__ == "__main__":
    main()
