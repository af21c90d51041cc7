"""Training substrate: optimizers, schedules, drivers, convergence.

- :mod:`repro.training.trainer` — timed throughput measurement;
- :mod:`repro.training.optimizer` — SGD / Adam / AdamSGD (paper §IV) and
  the Horovod-style ``DistributedOptimizer``;
- :mod:`repro.training.lr_schedule` — linear decay (AIACC default);
- :mod:`repro.training.numeric` — end-to-end numeric data-parallel
  training on a numpy MLP (correctness proof for the whole pipeline);
- :mod:`repro.training.hybrid` — data + model parallelism (Fig. 13);
- :mod:`repro.training.convergence` — DAWNBench time-to-accuracy model.
"""

from repro.training.convergence import (
    AIACC_RECIPE_EPOCHS,
    BASELINE_RECIPE_EPOCHS,
    TimeToAccuracy,
    time_to_accuracy,
)
from repro.training.hybrid import (
    HybridPlan,
    make_hybrid_plan,
    run_hybrid_training,
)
from repro.training.lr_schedule import LinearDecay
from repro.training.resilience import (
    FaultInjectionResult,
    RecoveryRecord,
    ResilienceResult,
    optimal_checkpoint_interval,
    run_fault_injected_training,
    simulate_resilient_training,
)
from repro.training.numeric import (
    SyntheticTask,
    TinyMLP,
    make_synthetic_task,
    train_data_parallel,
    train_single,
)
from repro.training.optimizer import (
    SGD,
    Adam,
    AdamSGD,
    DistributedOptimizer,
    Optimizer,
)
from repro.training.trainer import (
    ThroughputResult,
    build_train_context,
    run_training,
)

__all__ = [
    "AIACC_RECIPE_EPOCHS",
    "Adam",
    "AdamSGD",
    "BASELINE_RECIPE_EPOCHS",
    "DistributedOptimizer",
    "FaultInjectionResult",
    "HybridPlan",
    "LinearDecay",
    "RecoveryRecord",
    "ResilienceResult",
    "build_train_context",
    "optimal_checkpoint_interval",
    "run_fault_injected_training",
    "simulate_resilient_training",
    "Optimizer",
    "SGD",
    "SyntheticTask",
    "ThroughputResult",
    "TimeToAccuracy",
    "TinyMLP",
    "make_hybrid_plan",
    "make_synthetic_task",
    "run_hybrid_training",
    "run_training",
    "time_to_accuracy",
    "train_data_parallel",
    "train_single",
]
