"""Chaos soak harness tests (`repro.harness.chaos`).

The contract under test: every random schedule terminates — completion
or a *typed* clean error — with a per-seed outcome digest that is
deterministic across replays.
"""

import json

import pytest

from repro.errors import ReproError
from repro.harness.chaos import (
    ChaosOutcome,
    default_chaos_model,
    run_chaos_case,
    run_chaos_soak,
)


class TestChaosCase:
    def test_single_seed_terminates(self):
        outcome, result = run_chaos_case(seed=1)
        assert outcome.seed == 1
        assert outcome.completed == (result is not None)
        assert outcome.status == "completed" or outcome.error
        assert len(outcome.outcome_digest()) == 32

    def test_replay_determinism_per_case(self):
        first, _ = run_chaos_case(seed=3)
        second, _ = run_chaos_case(seed=3)
        assert first.outcome_digest() == second.outcome_digest()
        assert first == second

    def test_typed_clean_failures_with_no_restarts(self):
        # With restarts forbidden, seeds whose schedule crashes a node
        # must fail *cleanly*: a ReproError subclass caught by the
        # harness, never a hang or a bare exception.
        statuses = {}
        for seed in range(8):
            outcome, _ = run_chaos_case(seed=seed, max_restarts=0)
            statuses[seed] = outcome.status
            if not outcome.completed:
                assert outcome.error
                # Replays of a failing seed are just as deterministic.
                again, _ = run_chaos_case(seed=seed, max_restarts=0)
                assert again.outcome_digest() == outcome.outcome_digest()
        assert "TrainingError" in statuses.values()

    @pytest.mark.parametrize("kwargs", [
        {"num_gpus": 3}, {"num_gpus": 2}, {"gpus_per_node": 0},
        {"total_iterations": 0}, {"checkpoint_interval": 0}])
    def test_misconfigured_soak_rejected(self, kwargs):
        # Checked before the schedule is drawn, so no input reaches the
        # try block as a "clean failure" or escapes as a raw exception.
        (name,) = kwargs
        with pytest.raises(ReproError, match=f"^{name} must be a whole "):
            run_chaos_case(seed=0, **kwargs)


class TestChaosSoak:
    def test_twenty_seeds_terminate_deterministically(self):
        report = run_chaos_soak(range(20), replays=2)
        assert len(report.outcomes) == 20
        assert report.replays == 2
        assert report.completed + report.clean_failures == 20
        # The soak actually exercises the elastic runtime: membership
        # transitions happen across the sweep, at varying world sizes.
        transitions = sum(o.epoch_transitions for o in report.outcomes)
        assert transitions > 0
        worlds = {o.final_world for o in report.outcomes if o.completed}
        assert len(worlds) > 1

    def test_jsonl_artifact_structure(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        report = run_chaos_soak(range(3), replays=1, jsonl_path=path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        for line, outcome in zip(lines, report.outcomes):
            record = json.loads(line)
            assert record["seed"] == outcome.seed
            assert record["status"] == outcome.status
            assert record["outcome_digest"] == outcome.outcome_digest()
            assert isinstance(record["recoveries"], list)
            assert isinstance(record["epoch_transitions"], list)
            for transition in record["epoch_transitions"]:
                assert transition["kind"] in \
                    ("scale-down", "scale-up", "failure")
                assert transition["epoch"] >= 1

    def test_rejects_empty_seed_set_and_bad_replays(self):
        with pytest.raises(ReproError):
            run_chaos_soak([])
        with pytest.raises(ReproError):
            run_chaos_soak([1], replays=0)

    def test_default_model_is_stable(self):
        assert default_chaos_model().name == default_chaos_model().name


class TestOutcomeDigest:
    def make(self, **overrides):
        base = dict(seed=0, status="completed", error=None,
                    planned_faults=3, planned_membership_events=1,
                    state_digest="abc", final_world=8, final_epoch=1,
                    epoch_transitions=1, recoveries=0,
                    wasted_iterations=0, total_time_s=1.5)
        base.update(overrides)
        return ChaosOutcome(**base)

    def test_digest_covers_terminal_state(self):
        base = self.make()
        assert base.outcome_digest() == self.make().outcome_digest()
        for change in (dict(status="TrainingError"),
                       dict(final_world=6),
                       dict(final_epoch=2),
                       dict(state_digest="xyz"),
                       dict(total_time_s=2.0)):
            assert self.make(**change).outcome_digest() != \
                base.outcome_digest()
