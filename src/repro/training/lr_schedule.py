"""The learning-rate schedule.

"It uses linear decay to adjust the learning rate rather than the
commonly used step decay because we found linear decay works better with
the communication optimization and gradient compression implemented in
AIACC-Training" (paper §IV).  Linear decay is the schedule provided;
warm-up is included because every large-batch recipe the paper builds
on (DAWNBench) uses it.
"""

from __future__ import annotations

from repro.errors import TrainingError, require_count, require_real


class LinearDecay:
    """AIACC's default: linear decay to ``final_fraction x base_lr``."""

    def __init__(self, base_lr: float, total_steps: int,
                 warmup_steps: int = 0, final_fraction: float = 0.0) -> None:
        self.base_lr = require_real("base_lr", base_lr, TrainingError,
                                    positive=True)
        self.total_steps = require_count("total_steps", total_steps, 1,
                                         TrainingError)
        self.warmup_steps = require_count("warmup_steps", warmup_steps, 0,
                                          TrainingError)
        if self.warmup_steps >= self.total_steps:
            raise TrainingError("warmup_steps must be within total_steps")
        if require_real("final_fraction", final_fraction, TrainingError) > 1:
            raise TrainingError("final_fraction must be in [0, 1]")
        self.final_fraction = final_fraction

    def lr_at(self, step: int) -> float:
        """Learning rate for ``step`` (0-based)."""
        require_count("step", step, 0, TrainingError)
        if self.warmup_steps and step < self.warmup_steps:
            # Linear warm-up from base_lr / warmup_steps.
            return self.base_lr * (step + 1) / self.warmup_steps
        step = min(step, self.total_steps - 1)
        span = self.total_steps - self.warmup_steps
        progress = (step - self.warmup_steps) / max(1, span - 1)
        scale = 1.0 - (1.0 - self.final_fraction) * progress
        return self.base_lr * scale
