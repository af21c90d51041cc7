"""The committed diagnosis scenario suite.

One test per seeded pathology, each asserting the run yields *exactly*
the expected typed finding — plus the healthy shapes staying quiet and
the live/recorded diagnosis digest contract.  These are the scenarios
the ISSUE pins: clean, straggler rank, oversubscribed spine, injected
tuner mis-pick, crash/recovery.
"""

import pytest

from repro.core.runtime import AIACCConfig
from repro.models.synthetic import random_model_spec
from repro.obs import (
    Observability,
    Severity,
    diagnose,
    load_artifacts,
    write_diagnosis_artifacts,
)
from repro.obs.report import build_step_report

#: SHA-256 of the canonical empty findings list: the digest every
#: healthy run must produce.
EMPTY_FINDINGS_DIGEST = \
    "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"


def small_spec(seed=0):
    return random_model_spec(seed, num_layers=8, total_parameters=400_000,
                             total_forward_flops=1e9,
                             compute_occupancy=0.5)


def diagnosed_step_report(compute_skew=None, seed=0):
    obs = Observability(enabled=True)
    obs.attach_detectors()
    report = build_step_report(
        model=small_spec(seed), num_nodes=2, gpus_per_node=2,
        config=AIACCConfig(num_streams=4), seed=seed, obs=obs,
        compute_skew=compute_skew)
    return obs, diagnose(obs, attributions=report.attributions)


class TestCleanScenario:
    def test_clean_run_produces_zero_findings(self):
        _obs, report = diagnosed_step_report()
        assert report.findings == ()
        assert report.findings_digest == EMPTY_FINDINGS_DIGEST

    def test_healthy_trainer_shape_is_quiet(self):
        from repro.training.trainer import run_training

        obs = Observability(enabled=True)
        obs.attach_detectors()
        run_training("resnet50", "aiacc", 8, measure_iterations=2,
                     warmup_iterations=1, obs=obs)
        assert diagnose(obs).findings == ()


class TestStragglerScenario:
    def test_skewed_rank_yields_exactly_one_straggler_finding(self):
        _obs, report = diagnosed_step_report(compute_skew={2: 3.0})
        assert [(f.kind, f.subject, f.component) for f in report.findings] \
            == [("straggler", "rank 2", "runtime")]
        # 3x compute is past the 2x escalation point.
        assert report.findings[0].severity is Severity.ERROR
        evidence = dict(report.findings[0].evidence)
        assert evidence["value"] > evidence["threshold"]

    def test_diagnosis_is_digest_stable(self):
        _obs, first = diagnosed_step_report(compute_skew={2: 3.0})
        _obs, second = diagnosed_step_report(compute_skew={2: 3.0})
        assert first.findings_digest == second.findings_digest
        assert first.findings_digest != EMPTY_FINDINGS_DIGEST


class TestCongestionScenario:
    def test_oversubscribed_spine_blames_only_the_core(self):
        from repro.training.trainer import run_training

        obs = Observability(enabled=True)
        obs.attach_detectors()
        run_training("resnet50", "aiacc", 16, gpus_per_node=4,
                     measure_iterations=2, warmup_iterations=1,
                     core_oversubscription=4.0, obs=obs)
        report = diagnose(obs)
        # The NICs are victims (throttled but not saturated) and the
        # NVLinks are healthy pipelining (hot but unthrottled): only the
        # shared 4:1 core is diagnosed.
        assert [(f.kind, f.subject, f.component) for f in report.findings] \
            == [("congestion", "link core", "network")]


class TestTunerScenario:
    def test_mis_pick_vs_warm_start_yields_tuner_regression(self):
        from repro.autotune import AutoTuner
        from repro.autotune.space import ParameterPoint

        obs = Observability(enabled=True)
        obs.attach_detectors()
        warm = ParameterPoint(num_streams=4, granularity_bytes=64e6,
                              algorithm="ring")

        def evaluate(point):
            # The cached setting is genuinely the best; every ensemble
            # proposal measures worse — a converged-on-worse run.
            return 0.10 if point == warm else 0.20

        AutoTuner(budget=12, initial_point=warm, seed=0,
                  obs=obs).tune(evaluate)
        report = diagnose(obs)
        assert [(f.kind, f.subject, f.component) for f in report.findings] \
            == [("tuner-regression", "tuner", "autotune")]
        assert report.findings[0].severity is Severity.WARN


class TestCrashRecoveryScenario:
    def test_crash_yields_exactly_one_recovery_finding(self):
        from repro.sim.faults import FaultPlan, NodeCrash
        from repro.training.resilience import run_fault_injected_training

        obs = Observability(enabled=True)
        obs.attach_detectors()
        run_fault_injected_training(
            "resnet50", FaultPlan([NodeCrash(at_s=0.4, node=1)]),
            num_gpus=8, gpus_per_node=4, total_iterations=4,
            checkpoint_interval=2, obs=obs)
        report = diagnose(obs)
        assert [(f.kind, f.component) for f in report.findings] == \
            [("crash-recovery", "resilience")]
        assert report.findings[0].severity is Severity.WARN
        # The recovery SLO measurement comes straight from the pairing.
        assert 0.0 < report.measurements["recovery_time_s"] < 60.0


class TestArtifactRoundTrip:
    # The two FINDINGS_CELLS of the golden registry: clean and straggler.
    @pytest.mark.parametrize("skew", [None, {2: 3.0}],
                             ids=["clean", "straggler"])
    def test_live_and_recorded_digests_are_bit_identical(self, tmp_path,
                                                         skew):
        obs, live = diagnosed_step_report(compute_skew=skew)
        write_diagnosis_artifacts(tmp_path, live, obs=obs)

        replayed = diagnose(load_artifacts(tmp_path))
        assert replayed.findings_digest == live.findings_digest
        assert dict(replayed.measurements) == dict(live.measurements)

    def test_link_state_survives_the_round_trip(self, tmp_path):
        # Link utilisation is fed live by the network and recorded only
        # through the registry; diagnosing must write it there so the
        # artifacts carry the congested core.
        from repro.harness.experiments import measure

        obs = Observability(enabled=True)
        obs.attach_detectors()
        measure("resnet50", "aiacc", 32, streams=4,
                core_oversubscription=4.0, iterations=1, obs=obs)
        live = diagnose(obs)
        assert [(f.kind, f.subject) for f in live.findings] == \
            [("congestion", "link core")]
        write_diagnosis_artifacts(tmp_path, live, obs=obs)

        replayed = diagnose(load_artifacts(tmp_path))
        assert replayed.findings == live.findings
        assert replayed.findings_digest == live.findings_digest

    def test_markdown_and_jsonl_cross_reference_the_digest(self, tmp_path):
        obs, report = diagnosed_step_report(compute_skew={2: 3.0})
        written = write_diagnosis_artifacts(tmp_path, report, obs=obs)
        assert report.findings_digest in \
            written["findings_md"].read_text()
        assert written["findings_jsonl"].read_text().count(
            '"record": "finding"') == len(report.findings)
        # The Perfetto trace carries one diagnosis instant per finding.
        assert written["trace"].read_text().count("finding.straggler") >= 1
