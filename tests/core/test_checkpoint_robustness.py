"""Checkpoint robustness (ISSUE satellites: atomic temp names, stale-temp
sweep, corrupt-newest fallback, elastic cold start)."""

import numpy as np
import pytest

from repro.core.elastic import ElasticRuntime
from repro.core.fault_tolerance import CheckpointManager
from repro.errors import CheckpointError


def params(seed):
    return {"theta": np.asarray([seed], dtype=np.float32)}


class TestAtomicSave:
    def test_temp_name_never_matches_checkpoint_glob(self, tmp_path):
        """A writer crashing between write and rename must not leave a
        file that latest() would return as a checkpoint."""
        manager = CheckpointManager(tmp_path)
        manager.save(1, params(1))
        # Simulate a crash mid-save: the temp file exists, the rename
        # never happened.
        partial = tmp_path / ".tmp-ckpt-0000000002.npz"
        partial.write_bytes(b"partial garbage")
        assert manager.latest().name == "ckpt-0000000001.npz"

    def test_init_sweeps_stale_temp_files(self, tmp_path):
        stale = tmp_path / ".tmp-ckpt-0000000007.npz"
        stale.write_bytes(b"half-written")
        manager = CheckpointManager(tmp_path)
        assert not stale.exists()
        assert manager.latest() is None

    def test_init_does_not_touch_real_checkpoints(self, tmp_path):
        CheckpointManager(tmp_path).save(3, params(3))
        manager = CheckpointManager(tmp_path)
        iteration, restored, _, _ = manager.load()
        assert iteration == 3
        np.testing.assert_array_equal(restored["theta"], params(3)["theta"])


class TestCorruptFallback:
    def test_load_falls_back_past_corrupt_newest(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(1, params(1))
        newest = manager.save(2, params(2))
        newest.write_bytes(b"not a zip archive")  # died mid-overwrite
        iteration, restored, _, _ = manager.load()
        assert iteration == 1
        np.testing.assert_array_equal(restored["theta"], params(1)["theta"])
        assert manager.skipped == [newest]

    def test_load_raises_when_all_corrupt(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        for i in (1, 2):
            manager.save(i, params(i)).write_bytes(b"garbage")
        with pytest.raises(CheckpointError, match="corrupt"):
            manager.load()
        assert len(manager.skipped) == 2

    def test_explicit_path_does_not_fall_back(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(1, params(1))
        bad = manager.save(2, params(2))
        bad.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            manager.load(bad)
        assert manager.skipped == []


class TestElasticColdStart:
    def test_failure_before_first_checkpoint_restarts_fresh(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        elastic = ElasticRuntime(manager, range(2), gpus_per_node=8,
                                 init_parameters=lambda: params(0))
        iteration, restored, _ = elastic.failure([1], at_s=0.0,
                                                 reconfigure_time_s=0.0)
        assert iteration == 0
        np.testing.assert_array_equal(restored["theta"], params(0)["theta"])
        assert elastic.view.world_size == 8
        assert [t.kind for t in elastic.transitions] == ["failure"]

    def test_cold_start_without_factory_gives_empty_state(self, tmp_path):
        elastic = ElasticRuntime(CheckpointManager(tmp_path), range(4),
                                 gpus_per_node=1)
        iteration, restored, _ = elastic.failure([3], at_s=0.0,
                                                 reconfigure_time_s=0.0)
        assert (iteration, restored) == (0, {})

    def test_failure_after_checkpoint_restores_it(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        elastic = ElasticRuntime(manager, range(4), gpus_per_node=1,
                                 init_parameters=lambda: params(0))
        manager.save(9, params(9))
        iteration, restored, _ = elastic.failure([3], at_s=0.0,
                                                 reconfigure_time_s=0.0)
        assert iteration == 9
        np.testing.assert_array_equal(restored["theta"], params(9)["theta"])


class TestCheckpointInputs:
    @pytest.mark.parametrize("keep_last", [2.5, 2.0, float("nan"), 0, "3"])
    def test_keep_last_must_be_a_whole_number(self, tmp_path, keep_last):
        # A fractional count used to fail with a TypeError at the first
        # save's prune, not at construction.
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path, keep_last=keep_last)

    @pytest.mark.parametrize("iteration", [-1, 2.5, float("nan")])
    def test_save_iteration_must_be_a_whole_number(self, tmp_path,
                                                   iteration):
        with pytest.raises(CheckpointError):
            CheckpointManager(tmp_path).save(iteration, params(0))
