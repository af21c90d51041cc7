"""Time-to-accuracy model (DAWNBench, paper §VIII-C).

"AIACC-Training achieved the training goal [93% top-5 on ImageNet] within
158 seconds using 128 V100 GPUs across 16 computing instances with a
training cost of $7.43."

We cannot train ImageNet, so the convergence side is a calibrated model:
the *epochs to reach 93% top-5* for each optimizer recipe is a constant
measured by the community (and by the paper's DAWNBench entry, which
folds in fp16, progressive resizing and the AdamSGD/linear-decay recipe).
Given epochs-to-target and a simulated throughput, time-to-accuracy and
dollar cost follow directly.
"""

from __future__ import annotations

import dataclasses

from repro.errors import TrainingError, require_count, require_real
from repro.models.datasets import IMAGENET, DatasetSpec

#: Effective ImageNet epochs to 93% top-5 with the AIACC DAWNBench recipe
#: (fp16 + progressive resizing + AdamSGD + linear decay).  Calibrated so
#: that the measured 128-GPU throughput reproduces the paper's 158 s.
AIACC_RECIPE_EPOCHS = 5.5

#: Epochs to 93% top-5 with the standard SGD + step-decay recipe
#: (classic 90-epoch schedule reaches it around epoch 35).
BASELINE_RECIPE_EPOCHS = 35.0

#: On-demand hourly price of one 8xV100 cloud instance (USD), from the
#: paper's $7.43 @ 158 s @ 16 instances.
INSTANCE_PRICE_PER_HOUR = 7.43 / (158.0 / 3600.0) / 16.0


@dataclasses.dataclass(frozen=True)
class TimeToAccuracy:
    """DAWNBench-style result: wall time and public-cloud cost."""

    train_seconds: float
    num_instances: int
    cost_usd: float
    epochs: float
    throughput: float


def time_to_accuracy(throughput_samples_per_s: float, num_gpus: int,
                     epochs_to_target: float = AIACC_RECIPE_EPOCHS,
                     dataset: DatasetSpec = IMAGENET,
                     gpus_per_instance: int = 8) -> TimeToAccuracy:
    """Compute DAWNBench metrics from a measured training throughput."""
    require_real("throughput", throughput_samples_per_s, TrainingError,
                 positive=True)
    require_count("num_gpus", num_gpus, 1, TrainingError)
    require_count("gpus_per_instance", gpus_per_instance, 1, TrainingError)
    require_real("epochs_to_target", epochs_to_target, TrainingError,
                 positive=True)
    total_samples = dataset.num_samples * epochs_to_target
    seconds = total_samples / throughput_samples_per_s
    instances = max(1, num_gpus // gpus_per_instance)
    cost = instances * INSTANCE_PRICE_PER_HOUR * seconds / 3600.0
    return TimeToAccuracy(
        train_seconds=seconds,
        num_instances=instances,
        cost_usd=cost,
        epochs=epochs_to_target,
        throughput=throughput_samples_per_s,
    )
