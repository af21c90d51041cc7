"""Tests for compression, debugging, fault tolerance and the translator."""

import numpy as np
import pytest

from repro.core.compression import FP16Compressor, NullCompressor
from repro.core.debugging import GradientDebugger, check_finite
from repro.core.elastic import ElasticRuntime
from repro.core.fault_tolerance import CheckpointManager
from repro.core.translator import (
    translate_horovod_source,
    translate_sequential_source,
)
from repro.errors import CheckpointError, NaNGradientError, TrainingError, \
    TranslationError


class TestCompression:
    def test_fp16_roundtrip_precision(self):
        compressor = FP16Compressor()
        data = np.linspace(-5, 5, 100, dtype=np.float32)
        restored = compressor.decompress(compressor.compress(data))
        np.testing.assert_allclose(restored, data, rtol=1e-3, atol=1e-3)

    def test_fp16_halves_bytes(self):
        compressor = FP16Compressor()
        compressor.compress(np.zeros(1000, dtype=np.float32))
        assert compressor.stats.ratio == pytest.approx(2.0)

    def test_fp16_clamps_overflow(self):
        compressor = FP16Compressor()
        out = compressor.compress(np.array([1e38, -1e38], dtype=np.float32))
        assert np.all(np.isfinite(out.astype(np.float32)))

    def test_null_compressor_identity(self):
        compressor = NullCompressor()
        data = np.arange(10.0)
        np.testing.assert_array_equal(compressor.compress(data), data)
        assert compressor.stats.ratio == pytest.approx(1.0)


class TestDebugging:
    def test_check_finite_raises_on_nan(self):
        with pytest.raises(NaNGradientError):
            check_finite("w", np.array([1.0, np.nan]), worker_rank=3)

    def test_check_finite_passes_clean(self):
        check_finite("w", np.array([1.0, 2.0]), worker_rank=0)

    def test_debugger_collects_stats(self):
        debugger = GradientDebugger(nan_check=False)
        debugger.observe("w", np.array([3.0, 4.0]))
        assert debugger.stats["w"].last_norm == pytest.approx(5.0)
        assert debugger.stats["w"].max_abs == pytest.approx(4.0)

    def test_debugger_warns_on_explosion(self):
        debugger = GradientDebugger(nan_check=False,
                                    explosion_threshold=10.0)
        debugger.observe("w", np.array([100.0]))
        assert any("exceeds" in w for w in debugger.warnings())

    def test_debugger_counts_nans_when_lenient(self):
        debugger = GradientDebugger(nan_check=False)
        debugger.observe("w", np.array([np.nan, 1.0, np.inf]))
        assert debugger.stats["w"].nan_count == 2
        assert any("non-finite" in w for w in debugger.warnings())


class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        params = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)}
        opt = {"velocity/w": np.zeros((2, 3))}
        manager.save(42, params, opt, metadata={"lr": 0.1})
        iteration, loaded, opt_loaded, meta = manager.load()
        assert iteration == 42
        np.testing.assert_array_equal(loaded["w"], params["w"])
        np.testing.assert_array_equal(opt_loaded["velocity/w"],
                                      opt["velocity/w"])
        assert meta["lr"] == 0.1

    def test_latest_returns_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(1, {"w": np.zeros(2)})
        manager.save(5, {"w": np.ones(2)})
        iteration, params, _, _ = manager.load()
        assert iteration == 5
        np.testing.assert_array_equal(params["w"], np.ones(2))

    def test_prune_keeps_last_n(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        for i in range(5):
            manager.save(i, {"w": np.zeros(1)})
        assert len(list(tmp_path.glob("ckpt-*.npz"))) == 2

    def test_load_empty_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path).load()

    def test_negative_iteration_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path).save(-1, {"w": np.zeros(1)})


class TestElasticity:
    def test_failure_restores_from_checkpoint(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(10, {"w": np.full(3, 7.0)})
        runtime = ElasticRuntime(manager, range(4), gpus_per_node=1)
        iteration, params, _ = runtime.failure([3], at_s=0.0,
                                               reconfigure_time_s=0.0)
        assert iteration == 10
        assert runtime.view.world_size == 3
        np.testing.assert_array_equal(params["w"], np.full(3, 7.0))

    def test_cannot_lose_all_workers(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        runtime = ElasticRuntime(manager, range(2), gpus_per_node=1)
        with pytest.raises(TrainingError):
            runtime.failure([0, 1], at_s=0.0, reconfigure_time_s=0.0)

    def test_join_broadcasts_parameters(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        runtime = ElasticRuntime(manager, range(2), gpus_per_node=1)
        live = [{"w": np.arange(4.0)}, {"w": np.arange(4.0)}]
        result, _ = runtime.scale_up([2, 3], at_s=0.0, live_parameters=live,
                                     resumed_iteration=0,
                                     reconfigure_time_s=0.0)
        assert runtime.view.world_size == 4
        assert len(result) == 4
        for worker in result:
            np.testing.assert_array_equal(worker["w"], np.arange(4.0))

    def test_join_validates_live_state(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        runtime = ElasticRuntime(manager, range(3), gpus_per_node=1)
        with pytest.raises(TrainingError):
            runtime.scale_up([3], at_s=0.0,
                             live_parameters=[{"w": np.zeros(1)}],
                             resumed_iteration=0, reconfigure_time_s=0.0)


class TestTranslator:
    def test_horovod_import_rewritten(self):
        source = "import horovod.torch as hvd\nhvd.init()\n"
        out = translate_horovod_source(source)
        assert "import repro.core.perseus as hvd" in out
        assert "horovod" not in out

    def test_horovod_from_import_rewritten(self):
        source = "from horovod.tensorflow import allreduce\n"
        out = translate_horovod_source(source)
        assert "from repro.core.perseus import allreduce" in out

    def test_non_horovod_source_untouched(self):
        source = "import numpy as np\nx = np.zeros(3)\n"
        assert translate_horovod_source(source) == source

    def test_invalid_python_rejected(self):
        with pytest.raises(TranslationError):
            translate_horovod_source("def broken(:\n")

    def test_sequential_script_gets_init_and_wrapper(self):
        source = (
            "lr = 0.1\n"
            "optimizer = SGD(lr=lr, momentum=0.9)\n"
        )
        out = translate_sequential_source(source, num_workers=4)
        assert "perseus.init(size=4)" in out
        assert "DistributedOptimizer(SGD(" in out
        assert "lr * _perseus.size()" in out
        compile(out, "<translated>", "exec")  # must stay valid Python

    def test_sequential_docstring_preserved_first(self):
        source = '"""My training script."""\nopt = Adam(lr=1e-3)\n'
        out = translate_sequential_source(source)
        assert out.splitlines()[0].startswith("'''My training script.'''") \
            or out.splitlines()[0].startswith('"""My training script."""')

    def test_sequential_without_optimizer_rejected(self):
        with pytest.raises(TranslationError):
            translate_sequential_source("x = 1\n")

    def test_sequential_bad_worker_count_rejected(self):
        with pytest.raises(TranslationError):
            translate_sequential_source("opt = SGD(lr=0.1)\n",
                                        num_workers=0)

    def test_attribute_optimizer_calls_recognised(self):
        source = "opt = torch.optim.SGD(params, lr=0.01)\n"
        out = translate_sequential_source(source, num_workers=2)
        assert "DistributedOptimizer" in out
