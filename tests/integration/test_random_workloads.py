"""Property-based tests over randomly generated DNN workloads.

These verify that the library's headline behaviours are properties of the
*mechanisms*, not artefacts of the hand-built model zoo: for any
plausible workload, iterations respect physics, AIACC never loses to
Horovod by more than noise, and multi-streaming never hurts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import AIACCConfig
from repro.frameworks import make_backend
from repro.models.synthetic import random_model_spec
from repro.training.trainer import run_training


def quick(model, backend, gpus=16, **kw):
    return run_training(model, backend, gpus, measure_iterations=1,
                        warmup_iterations=1, **kw)


class TestRandomWorkloadProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_layers=st.integers(2, 60),
        params=st.integers(1_000_000, 400_000_000),
        spread=st.floats(0.0, 2.5),
    )
    def test_iteration_never_beats_compute_floor(self, seed, num_layers,
                                                 params, spread):
        spec = random_model_spec(seed, num_layers=num_layers,
                                 total_parameters=params,
                                 size_spread=spread)
        result = quick(spec, "aiacc")
        assert result.mean_iteration_s >= result.compute_time_s * 0.999
        assert 0 < result.scaling_efficiency <= 1.001

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_aiacc_at_least_matches_horovod(self, seed):
        spec = random_model_spec(seed, num_layers=30,
                                 total_parameters=120_000_000,
                                 total_forward_flops=15e9)
        aiacc = quick(spec, make_backend(
            "aiacc", config=AIACCConfig(num_streams=8)))
        horovod = quick(spec, "horovod")
        # 2% tolerance for compute-bound ties.
        assert aiacc.throughput >= horovod.throughput * 0.98

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_more_streams_never_slower(self, seed):
        spec = random_model_spec(seed, num_layers=20,
                                 total_parameters=200_000_000,
                                 total_forward_flops=10e9)
        one = quick(spec, make_backend(
            "aiacc", config=AIACCConfig(num_streams=1)))
        eight = quick(spec, make_backend(
            "aiacc", config=AIACCConfig(num_streams=8)))
        assert eight.throughput >= one.throughput * 0.99

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), gpus=st.sampled_from([8, 32, 64]))
    def test_throughput_scales_positively(self, seed, gpus):
        spec = random_model_spec(seed, total_parameters=30_000_000)
        small = quick(spec, "aiacc", gpus=8)
        large = quick(spec, "aiacc", gpus=gpus)
        assert large.throughput >= small.throughput * 0.95 * (gpus / 8) \
            / 4  # generous floor: at least quarter-linear scaling

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        spread=st.floats(0.0, 2.5),
    )
    def test_schedule_well_formed(self, seed, spread):
        spec = random_model_spec(seed, size_spread=spread)
        events = spec.backward_schedule()
        fractions = [e.time_fraction for e in events]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)
        scheduled = sum(len(e.parameters) for e in events)
        assert scheduled == spec.num_gradients


class TestGeneratorValidation:
    def test_totals_respected(self):
        spec = random_model_spec(0, num_layers=10,
                                 total_parameters=1_000_000,
                                 total_forward_flops=1e9)
        assert spec.num_parameters == pytest.approx(1_000_000, rel=0.05)
        assert spec.forward_flops == pytest.approx(1e9, rel=1e-6)

    def test_deterministic_per_seed(self):
        a = random_model_spec(7)
        b = random_model_spec(7)
        assert a.num_parameters == b.num_parameters
        assert [l.name for l in a.layers] == [l.name for l in b.layers]

    def test_spread_zero_gives_equal_layers(self):
        spec = random_model_spec(1, num_layers=8, size_spread=0.0,
                                 total_parameters=8_000_000)
        sizes = [layer.num_parameters for layer in spec.layers]
        assert max(sizes) < 1.5 * min(sizes)

    def test_validation(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            random_model_spec(0, num_layers=0)
        with pytest.raises(ReproError):
            random_model_spec(0, total_forward_flops=0)
