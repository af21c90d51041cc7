"""Tests for the workload model specs (Table I reproduction)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.models import (
    IMAGENET,
    LayerSpec,
    ModelSpec,
    ModelSpecError,
    ParameterSpec,
    available_models,
    get_model,
    table1,
)


class TestTable1:
    """Table I: model characteristics must match the paper."""

    EXPECTED = {
        "vgg16": (138.3e6, 31e9),
        "resnet50": (25.6e6, 4e9),
        "resnet101": (29.4e6, 8e9),
        "transformer": (66.5e6, 145e9),
        "bert-large": (302.2e6, 232e9),
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_parameter_counts_match_paper(self, name):
        params, _ = self.EXPECTED[name]
        spec = get_model(name)
        assert spec.num_parameters == pytest.approx(params, rel=0.001)

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_flops_match_paper(self, name):
        _, flops = self.EXPECTED[name]
        spec = get_model(name)
        assert spec.reported_flops == pytest.approx(flops, rel=0.001)

    def test_table1_rows(self):
        rows = table1()
        assert [r["model"] for r in rows] == [
            "vgg16", "resnet50", "resnet101", "transformer", "bert-large"]
        for row in rows:
            assert row["parameters"] > 0
            assert row["flops"] > 0

    def test_gpt2_xl_size(self):
        spec = get_model("gpt2-xl")
        assert spec.num_parameters == pytest.approx(1558e6, rel=0.001)


class TestModelShape:
    def test_vgg_dominated_by_fc(self):
        spec = get_model("vgg16")
        fc_bytes = sum(layer.nbytes for layer in spec.layers
                       if layer.name.startswith("fc"))
        assert fc_bytes > 0.8 * spec.gradient_bytes

    def test_resnet50_has_many_small_gradients(self):
        spec = get_model("resnet50")
        assert spec.num_gradients > 100
        # Median gradient is small (batch-norm scale / small convs).
        sizes = sorted(p.nbytes for p in spec.parameters())
        assert sizes[len(sizes) // 2] < 1e6

    def test_ctr_has_thousands_of_gradients(self):
        spec = get_model("ctr")
        assert spec.num_gradients >= 2000
        assert spec.compute_occupancy < 0.5

    def test_bert_more_compute_intensive_than_resnet(self):
        bert = get_model("bert-large")
        resnet = get_model("resnet50")
        assert bert.compute_occupancy > resnet.compute_occupancy

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError):
            get_model("alexnet")

    def test_all_models_buildable(self):
        for name in available_models():
            spec = get_model(name)
            assert spec.num_parameters > 0
            assert spec.gradient_bytes == 4 * spec.num_parameters


class TestBackwardSchedule:
    @pytest.mark.parametrize("name", ["vgg16", "resnet50", "bert-large"])
    def test_schedule_is_reverse_ordered_and_monotone(self, name):
        spec = get_model(name)
        events = spec.backward_schedule()
        indices = [e.layer_index for e in events]
        assert indices == sorted(indices, reverse=True)
        fractions = [e.time_fraction for e in events]
        assert all(0 < f <= 1 for f in fractions)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_schedule_covers_all_parameters(self, ):
        spec = get_model("resnet50")
        scheduled = sum(len(e.parameters) for e in spec.backward_schedule())
        assert scheduled == spec.num_gradients

    def test_output_layer_gradients_first(self):
        spec = get_model("vgg16")
        first = spec.backward_schedule()[0]
        assert spec.layers[first.layer_index].name == "fc8"


class TestValidation:
    def test_empty_model_rejected(self):
        with pytest.raises(ModelSpecError):
            ModelSpec(name="empty", layers=(), compute_occupancy=0.5)

    def test_duplicate_parameter_names_rejected(self):
        layer = LayerSpec("l", (ParameterSpec("w", 10),), 1.0)
        with pytest.raises(ModelSpecError):
            ModelSpec(name="dup", layers=(layer, layer),
                      compute_occupancy=0.5)

    def test_bad_occupancy_rejected(self):
        layer = LayerSpec("l", (ParameterSpec("w", 10),), 1.0)
        with pytest.raises(ModelSpecError):
            ModelSpec(name="m", layers=(layer,), compute_occupancy=0.0)

    def test_zero_element_parameter_rejected(self):
        with pytest.raises(ModelSpecError):
            ParameterSpec("w", 0)

    def test_bad_dtype_rejected(self):
        with pytest.raises(ModelSpecError):
            ParameterSpec("w", 10, dtype_bytes=3)

    @given(target=st.integers(1_000, 10_000_000))
    def test_scaled_to_hits_parameter_target(self, target):
        spec = get_model("resnet50")
        scaled = spec.scaled_to(target, 1e9)
        # Rounding error bounded by number of tensors.
        assert abs(scaled.num_parameters - target) <= spec.num_gradients
        assert scaled.forward_flops == pytest.approx(1e9)


class TestDatasets:
    def test_imagenet_size(self):
        assert IMAGENET.num_samples == 1_281_167
