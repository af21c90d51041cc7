"""Tests for gradient registration and the synchronization vector."""

import numpy as np
import pytest

from repro.core.registration import GradientRegistry
from repro.errors import RegistrationError
from repro.models import ParameterSpec, get_model


def make_registry(names=("b", "a", "c")):
    registry = GradientRegistry()
    for index, name in enumerate(names):
        registry.register(ParameterSpec(name, 10 + index))
    registry.freeze()
    return registry


class TestRegistration:
    def test_ids_follow_sorted_name_order(self):
        registry = make_registry(("b", "a", "c"))
        assert registry.grad_id("a") == 0
        assert registry.grad_id("b") == 1
        assert registry.grad_id("c") == 2

    def test_identical_ids_across_workers_regardless_of_order(self):
        # The decentralized scheme relies on workers agreeing on ids
        # without coordination (paper §V-A.1).
        first = make_registry(("x", "y", "z"))
        second = make_registry(("z", "x", "y"))
        for name in ("x", "y", "z"):
            assert first.grad_id(name) == second.grad_id(name)

    def test_duplicate_registration_rejected(self):
        registry = GradientRegistry()
        registry.register(ParameterSpec("w", 5))
        with pytest.raises(RegistrationError):
            registry.register(ParameterSpec("w", 5))

    def test_register_after_freeze_rejected(self):
        registry = make_registry()
        with pytest.raises(RegistrationError):
            registry.register(ParameterSpec("late", 3))

    def test_freeze_twice_rejected(self):
        registry = make_registry()
        with pytest.raises(RegistrationError):
            registry.freeze()

    def test_freeze_empty_rejected(self):
        with pytest.raises(RegistrationError):
            GradientRegistry().freeze()

    def test_unknown_name_rejected(self):
        registry = make_registry()
        with pytest.raises(RegistrationError):
            registry.grad_id("missing")

    def test_use_before_freeze_rejected(self):
        registry = GradientRegistry()
        registry.register(ParameterSpec("w", 5))
        with pytest.raises(RegistrationError):
            registry.grad_id("w")

    def test_register_model(self):
        registry = GradientRegistry()
        model = get_model("resnet50")
        registry.register_model(model)
        registry.freeze()
        assert len(registry) == model.num_gradients


    def test_ordered_specs(self):
        registry = make_registry(("b", "a"))
        assert [s.name for s in registry.ordered_specs()] == ["a", "b"]


class TestSyncVector:
    def test_vector_starts_zeroed(self):
        registry = make_registry()
        np.testing.assert_array_equal(registry.sync_vector, [0, 0, 0])

    def test_mark_ready_sets_bit(self):
        registry = make_registry()
        grad_id = registry.mark_ready("b")
        assert registry.sync_vector[grad_id] == 1
        assert registry.sync_vector.sum() == 1

    def test_reset_vector(self):
        registry = make_registry()
        registry.mark_ready("a")
        registry.mark_ready("c")
        registry.reset_vector()
        np.testing.assert_array_equal(registry.sync_vector, [0, 0, 0])

    def test_vector_dtype_is_bitwise(self):
        registry = make_registry()
        assert registry.sync_vector.dtype == np.uint8
