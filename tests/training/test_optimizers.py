"""Tests for optimizers and learning-rate schedules."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.training.lr_schedule import LinearDecay
from repro.training.optimizer import SGD, Adam, AdamSGD


def quadratic_grads(params):
    """Gradient of f(x) = 0.5 * ||x||^2 is x itself."""
    return {name: value.copy() for name, value in params.items()}


class TestSGD:
    def test_plain_step(self):
        optimizer = SGD(lr=0.1)
        params = {"w": np.array([1.0, -2.0])}
        optimizer.step(params, {"w": np.array([0.5, 0.5])})
        np.testing.assert_allclose(params["w"], [0.95, -2.05])

    def test_momentum_accumulates(self):
        optimizer = SGD(lr=0.1, momentum=0.9)
        params = {"w": np.array([1.0])}
        optimizer.step(params, {"w": np.array([1.0])})
        first = params["w"].copy()
        optimizer.step(params, {"w": np.array([1.0])})
        # Second step moves further due to velocity.
        assert (1.0 - first[0]) < (first[0] - params["w"][0])

    def test_weight_decay(self):
        optimizer = SGD(lr=0.1, weight_decay=0.1)
        params = {"w": np.array([1.0])}
        optimizer.step(params, {"w": np.array([0.0])})
        assert params["w"][0] == pytest.approx(0.99)

    def test_converges_on_quadratic(self):
        optimizer = SGD(lr=0.3, momentum=0.5)
        params = {"w": np.array([5.0, -3.0])}
        for _ in range(100):
            optimizer.step(params, quadratic_grads(params))
        np.testing.assert_allclose(params["w"], [0.0, 0.0], atol=1e-6)

    def test_state_dict_roundtrip(self):
        optimizer = SGD(lr=0.1, momentum=0.9)
        params = {"w": np.array([1.0])}
        optimizer.step(params, {"w": np.array([1.0])})
        state = optimizer.state_dict()
        fresh = SGD(lr=0.1, momentum=0.9)
        fresh.load_state_dict(state)
        assert fresh.steps == 1
        np.testing.assert_array_equal(fresh._velocity["w"],
                                      optimizer._velocity["w"])

    def test_validation(self):
        with pytest.raises(TrainingError):
            SGD(lr=0)
        with pytest.raises(TrainingError):
            SGD(lr=0.1, momentum=1.0)
        optimizer = SGD(lr=0.1)
        with pytest.raises(TrainingError):
            optimizer.step({"a": np.zeros(1)}, {"b": np.zeros(1)})


class TestAdam:
    def test_converges_on_quadratic(self):
        optimizer = Adam(lr=0.1)
        params = {"w": np.array([5.0, -3.0])}
        for _ in range(300):
            optimizer.step(params, quadratic_grads(params))
        np.testing.assert_allclose(params["w"], [0.0, 0.0], atol=1e-3)

    def test_bias_correction_first_step(self):
        optimizer = Adam(lr=0.1)
        params = {"w": np.array([1.0])}
        optimizer.step(params, {"w": np.array([1.0])})
        # With bias correction the first step is ~lr in magnitude.
        assert params["w"][0] == pytest.approx(0.9, abs=1e-6)

    def test_validation(self):
        with pytest.raises(TrainingError):
            Adam(beta1=1.0)


class TestAdamSGD:
    def test_switches_phase_at_configured_step(self):
        optimizer = AdamSGD(switch_step=3)
        params = {"w": np.array([5.0])}
        for step in range(6):
            expected = optimizer.adam if step < 3 else optimizer.sgd
            assert optimizer.active is expected
            optimizer.step(params, quadratic_grads(params))

    def test_converges_on_quadratic(self):
        optimizer = AdamSGD(lr=0.1, sgd_lr=0.2, switch_step=50)
        params = {"w": np.array([5.0])}
        for _ in range(300):
            optimizer.step(params, quadratic_grads(params))
        assert abs(params["w"][0]) < 1e-3

    def test_set_lr_reaches_active_phase(self):
        optimizer = AdamSGD(switch_step=1)
        params = {"w": np.array([1.0])}
        optimizer.step(params, {"w": np.array([0.1])})
        optimizer.set_lr(0.5)
        assert optimizer.sgd.lr == 0.5

    def test_validation(self):
        with pytest.raises(TrainingError):
            AdamSGD(switch_step=0)


class TestSchedules:
    def test_linear_decay_endpoints(self):
        schedule = LinearDecay(base_lr=1.0, total_steps=11)
        assert schedule.lr_at(0) == pytest.approx(1.0)
        assert schedule.lr_at(10) == pytest.approx(0.0, abs=1e-12)
        assert schedule.lr_at(5) == pytest.approx(0.5)

    def test_linear_decay_with_floor(self):
        schedule = LinearDecay(base_lr=1.0, total_steps=11,
                               final_fraction=0.1)
        assert schedule.lr_at(10) == pytest.approx(0.1)

    def test_linear_decay_monotone_after_warmup(self):
        schedule = LinearDecay(base_lr=1.0, total_steps=100,
                               warmup_steps=10)
        rates = [schedule.lr_at(step) for step in range(10, 100)]
        assert rates == sorted(rates, reverse=True)

    def test_warmup_ramps_up(self):
        schedule = LinearDecay(base_lr=1.0, total_steps=100,
                               warmup_steps=10)
        ramp = [schedule.lr_at(step) for step in range(10)]
        assert ramp == sorted(ramp)
        assert ramp[0] == pytest.approx(0.1)

    def test_beyond_total_clamps(self):
        schedule = LinearDecay(base_lr=1.0, total_steps=10)
        assert schedule.lr_at(500) == schedule.lr_at(9)

    def test_validation(self):
        with pytest.raises(TrainingError):
            LinearDecay(base_lr=0, total_steps=10)
        with pytest.raises(TrainingError):
            LinearDecay(base_lr=1, total_steps=10, warmup_steps=10)
        with pytest.raises(TrainingError):
            LinearDecay(base_lr=1.0, total_steps=10).lr_at(-1)
