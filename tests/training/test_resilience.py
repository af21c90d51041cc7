"""Tests for failure-injected training."""

import math

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.training.resilience import (
    checkpoint_write_time_s,
    optimal_checkpoint_interval,
    simulate_resilient_training,
)


class TestResilience:
    def test_no_failures_only_checkpoint_overhead(self):
        result = simulate_resilient_training(
            "resnet50", iteration_time_s=0.25, total_iterations=100,
            checkpoint_interval=10)
        assert result.failures == 0
        assert result.wasted_iterations == 0
        assert result.recovery_time_s == 0.0
        expected_ckpts = 10 * checkpoint_write_time_s("resnet50")
        assert result.checkpoint_time_s == pytest.approx(expected_ckpts)
        assert result.goodput < 1.0

    def test_failure_loses_work_since_checkpoint(self):
        result = simulate_resilient_training(
            "resnet50", iteration_time_s=0.25, total_iterations=100,
            checkpoint_interval=10, failure_at=[25])
        # Failure after iteration 26 (index 25): 6 iterations past the
        # checkpoint at 20 are lost.
        assert result.failures == 1
        assert result.wasted_iterations == 6
        assert result.recovery_time_s > 30.0

    def test_failure_right_after_checkpoint_loses_one(self):
        result = simulate_resilient_training(
            "resnet50", iteration_time_s=0.25, total_iterations=50,
            checkpoint_interval=10, failure_at=[10])
        assert result.wasted_iterations == 1

    def test_multiple_failures(self):
        result = simulate_resilient_training(
            "resnet50", iteration_time_s=0.25, total_iterations=100,
            checkpoint_interval=20, failure_at=[30, 70])
        assert result.failures == 2
        assert result.wasted_iterations > 0
        assert result.goodput < 0.95

    def test_tighter_checkpoints_help_under_failures(self):
        failures = list(range(9, 200, 20))
        loose = simulate_resilient_training(
            "bert-large", 1.0, 200, checkpoint_interval=100,
            failure_at=failures)
        tight = simulate_resilient_training(
            "bert-large", 1.0, 200, checkpoint_interval=10,
            failure_at=failures)
        assert tight.total_time_s < loose.total_time_s

    def test_goodput_definition(self):
        result = simulate_resilient_training(
            "resnet50", 0.5, 40, 10, failure_at=[15])
        assert result.goodput == pytest.approx(
            result.ideal_time_s / result.total_time_s)

    def test_validation(self):
        with pytest.raises(TrainingError):
            simulate_resilient_training("resnet50", 0, 10, 5)
        with pytest.raises(TrainingError):
            simulate_resilient_training("resnet50", 1.0, 10, 5,
                                        failure_at=[99])

    def test_optimal_interval_monotone_in_mtbf(self):
        stable = optimal_checkpoint_interval(0.25, 100_000, "resnet50")
        flaky = optimal_checkpoint_interval(0.25, 1_000, "resnet50")
        assert stable > flaky >= 1

    def test_optimal_interval_validation(self):
        with pytest.raises(TrainingError):
            optimal_checkpoint_interval(0, 100, "resnet50")


#: ``simulate_resilient_training`` arguments each entry breaks, over a
#: valid ``("resnet50", 1.0, 10, 5)`` call.  Before validation these
#: returned a ``nan`` or negative goodput, or checkpointed on a cadence
#: other than the one asked for.
BAD_WALKS = {
    "iteration-nan": dict(iteration_time_s=math.nan),
    "iteration-inf": dict(iteration_time_s=math.inf),
    "iteration-negative": dict(iteration_time_s=-1.0),
    "total-fractional": dict(total_iterations=2.5),
    "total-nan": dict(total_iterations=math.nan),
    "total-zero": dict(total_iterations=0),
    "interval-fractional": dict(checkpoint_interval=2.5),
    "interval-float": dict(checkpoint_interval=5.0),
    "interval-zero": dict(checkpoint_interval=0),
    "overhead-negative": dict(restart_overhead_s=-100, failure_at=[3]),
    "overhead-nan": dict(restart_overhead_s=math.nan, failure_at=[3]),
    "overhead-inf": dict(restart_overhead_s=math.inf, failure_at=[3]),
    "failure-fractional": dict(failure_at=[2.5]),
    "failure-negative": dict(failure_at=[-1]),
    "failure-past-the-end": dict(failure_at=[10]),
}


class TestResilienceInputs:
    @pytest.mark.parametrize("bad", BAD_WALKS.values(), ids=BAD_WALKS)
    def test_walk_rejects_bad_values(self, bad):
        args = dict(model="resnet50", iteration_time_s=1.0,
                    total_iterations=10, checkpoint_interval=5)
        args.update(bad)
        with pytest.raises(TrainingError):
            simulate_resilient_training(**args)

    def test_walk_accepts_integral_counts_of_any_int_type(self):
        exact = simulate_resilient_training("resnet50", 1.0, 10, 5,
                                            failure_at=[3])
        numpy = simulate_resilient_training(
            "resnet50", 1.0, np.int64(10), np.int64(5),
            failure_at=[np.int64(3)])
        assert numpy == exact

    @pytest.mark.parametrize("iteration_s,mtbf", [
        (math.nan, 100), (math.inf, 100), (-0.25, 100),
        (0.25, math.nan), (0.25, math.inf), (0.25, 0)],
        ids=["iteration-nan", "iteration-inf", "iteration-negative",
             "mtbf-nan", "mtbf-inf", "mtbf-zero"])
    def test_optimal_interval_rejects_bad_values(self, iteration_s, mtbf):
        with pytest.raises(TrainingError):
            optimal_checkpoint_interval(iteration_s, mtbf, "resnet50")
