"""End-to-end *numeric* data-parallel training on a tiny model.

Throughput experiments only need timing, but correctness of the whole
AIACC pipeline — registration, synchronization, packing, ring all-reduce,
unpacking, distributed optimizer — is proven here: a small numpy MLP is
trained data-parallel through :class:`~repro.core.perseus.PerseusSession`
and must produce **exactly** the same parameters as single-worker
training on the concatenated batch (gradient averaging is linear, so the
math is bit-identical up to float associativity).
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.errors import TrainingError
from repro.core.perseus import PerseusSession
from repro.core.runtime import AIACCConfig
from repro.training.optimizer import DistributedOptimizer, Optimizer

State = t.Dict[str, np.ndarray]


@dataclasses.dataclass(frozen=True)
class SyntheticTask:
    """A fixed synthetic classification dataset."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.labels):
            raise TrainingError("inputs/labels length mismatch")

    def batches(self, batch_size: int) -> t.Iterator[tuple[np.ndarray,
                                                           np.ndarray]]:
        """Fixed-order minibatches (deterministic for equivalence tests)."""
        for start in range(0, len(self.inputs) - batch_size + 1, batch_size):
            stop = start + batch_size
            yield self.inputs[start:stop], self.labels[start:stop]


def make_synthetic_task(num_samples: int = 512, input_dim: int = 16,
                        num_classes: int = 4, seed: int = 0) -> SyntheticTask:
    """Linearly separable-ish Gaussian blobs, one per class."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(num_classes, input_dim))
    labels = rng.integers(num_classes, size=num_samples)
    inputs = centers[labels] + rng.normal(size=(num_samples, input_dim))
    return SyntheticTask(inputs=inputs, labels=labels,
                         num_classes=num_classes)


class TinyMLP:
    """Two-layer tanh MLP with softmax cross-entropy, pure numpy."""

    def __init__(self, input_dim: int, hidden_dim: int, num_classes: int,
                 seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        scale1 = 1.0 / np.sqrt(input_dim)
        scale2 = 1.0 / np.sqrt(hidden_dim)
        self.parameters: State = {
            "fc1.weight": rng.normal(scale=scale1,
                                     size=(input_dim, hidden_dim)),
            "fc1.bias": np.zeros(hidden_dim),
            "fc2.weight": rng.normal(scale=scale2,
                                     size=(hidden_dim, num_classes)),
            "fc2.bias": np.zeros(num_classes),
        }

    def clone_parameters(self) -> State:
        return {k: v.copy() for k, v in self.parameters.items()}

    @staticmethod
    def loss_and_grads(parameters: State, inputs: np.ndarray,
                       labels: np.ndarray) -> tuple[float, State]:
        """Mean cross-entropy loss and gradients for one minibatch."""
        hidden_pre = inputs @ parameters["fc1.weight"] + \
            parameters["fc1.bias"]
        hidden = np.tanh(hidden_pre)
        logits = hidden @ parameters["fc2.weight"] + parameters["fc2.bias"]

        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        batch = len(inputs)
        loss = float(-np.log(probs[np.arange(batch), labels] + 1e-12).mean())

        dlogits = probs.copy()
        dlogits[np.arange(batch), labels] -= 1.0
        dlogits /= batch
        dhidden = dlogits @ parameters["fc2.weight"].T
        dpre = dhidden * (1.0 - hidden ** 2)
        grads: State = {
            "fc2.weight": hidden.T @ dlogits,
            "fc2.bias": dlogits.sum(axis=0),
            "fc1.weight": inputs.T @ dpre,
            "fc1.bias": dpre.sum(axis=0),
        }
        return loss, grads

    @staticmethod
    def accuracy(parameters: State, inputs: np.ndarray,
                 labels: np.ndarray) -> float:
        hidden = np.tanh(inputs @ parameters["fc1.weight"] +
                         parameters["fc1.bias"])
        logits = hidden @ parameters["fc2.weight"] + parameters["fc2.bias"]
        return float((logits.argmax(axis=1) == labels).mean())


def train_single(model: TinyMLP, task: SyntheticTask,
                 optimizer: Optimizer, steps: int,
                 global_batch: int) -> list[float]:
    """Reference single-worker training; returns per-step losses."""
    losses = []
    batches = task.batches(global_batch)
    for _ in range(steps):
        try:
            inputs, labels = next(batches)
        except StopIteration:
            batches = task.batches(global_batch)
            inputs, labels = next(batches)
        loss, grads = TinyMLP.loss_and_grads(model.parameters, inputs,
                                             labels)
        optimizer.step(model.parameters, grads)
        losses.append(loss)
    return losses


def train_data_parallel(model: TinyMLP, task: SyntheticTask,
                        optimizer: Optimizer, steps: int,
                        num_workers: int, global_batch: int,
                        config: AIACCConfig | None = None
                        ) -> tuple[list[State], list[float]]:
    """Data-parallel training through the full Perseus pipeline.

    The global batch is sharded across ``num_workers``; each worker
    computes local gradients, the session averages them (sync + pack +
    ring all-reduce + unpack), and every worker applies the update.
    Returns (per-worker final parameters, per-step global losses).
    """
    if global_batch % num_workers != 0:
        raise TrainingError(
            f"global batch {global_batch} not divisible by "
            f"{num_workers} workers"
        )
    shard = global_batch // num_workers
    session = PerseusSession(num_workers, config=config)
    dist_optimizer = DistributedOptimizer(optimizer, session)
    worker_params = [model.clone_parameters() for _ in range(num_workers)]

    losses = []
    batches = task.batches(global_batch)
    for _ in range(steps):
        try:
            inputs, labels = next(batches)
        except StopIteration:
            batches = task.batches(global_batch)
            inputs, labels = next(batches)
        worker_grads = []
        step_losses = []
        for worker in range(num_workers):
            lo, hi = worker * shard, (worker + 1) * shard
            loss, grads = TinyMLP.loss_and_grads(
                worker_params[worker], inputs[lo:hi], labels[lo:hi])
            worker_grads.append(grads)
            step_losses.append(loss)
        dist_optimizer.step(worker_params, worker_grads)
        losses.append(float(np.mean(step_losses)))
    return worker_params, losses
