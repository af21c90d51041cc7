"""Tests for the InsightFace workload and zoo completeness."""

import dataclasses

import pytest

from repro.models import available_models, get_model
from repro.models.insightface import EMBEDDING_DIM, NUM_IDENTITIES


class TestInsightFace:
    def test_registered_in_zoo(self):
        assert "insightface-r50" in available_models()

    def test_head_dominates_parameters(self):
        spec = get_model("insightface-r50")
        head = next(layer for layer in spec.layers
                    if layer.name == "arcface_head")
        assert head.num_parameters == EMBEDDING_DIM * NUM_IDENTITIES
        assert head.num_parameters > 0.9 * spec.num_parameters

    def test_backbone_preserved(self):
        face = get_model("insightface-r50")
        resnet = get_model("resnet50")
        assert face.num_gradients == resnet.num_gradients + 1
        assert face.num_parameters == pytest.approx(
            resnet.num_parameters + EMBEDDING_DIM * NUM_IDENTITIES)

    def test_far_more_comm_bound_than_resnet(self):
        face = get_model("insightface-r50")
        resnet = get_model("resnet50")
        face_ratio = face.gradient_bytes / face.forward_flops
        resnet_ratio = resnet.gradient_bytes / resnet.forward_flops
        assert face_ratio > 5 * resnet_ratio

    def test_head_gradient_appears_first_in_backward(self):
        spec = get_model("insightface-r50")
        first_event = spec.backward_schedule()[0]
        names = [p.name for p in first_event.parameters]
        assert "arcface_head.weight" in names

    def test_custom_identity_count(self):
        from repro.models.insightface import build_insightface

        small = build_insightface(num_identities=10_000)
        assert small.num_parameters < get_model(
            "insightface-r50").num_parameters


class TestZooCompleteness:
    def test_eight_workloads(self):
        assert len(available_models()) == 8

    def test_every_model_has_valid_schedule(self):
        for name in available_models():
            spec = get_model(name)
            events = spec.backward_schedule()
            assert events, name
            assert events[-1].time_fraction == pytest.approx(1.0), name

    def test_specs_are_fresh_instances(self):
        # Builders must not share mutable state across calls.
        a = get_model("resnet50")
        b = get_model("resnet50")
        assert a is not b
        assert a.num_parameters == b.num_parameters

    @pytest.mark.parametrize("name", available_models())
    def test_shared_layer_tree_is_immutable(self, name):
        # Each model is built once per process and its layers shared by
        # every spec handed out, so no node of the tree may be mutable.
        spec = get_model(name)
        assert get_model(name).layers is spec.layers
        nodes = [spec, *spec.layers,
                 *(p for layer in spec.layers for p in layer.parameters)]
        for node in nodes:
            for field in dataclasses.fields(node):
                value = getattr(node, field.name)
                assert isinstance(value, (str, int, float, tuple,
                                          type(None))), (node, field.name)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(node, field.name, value)
