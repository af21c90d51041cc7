"""The seed x config determinism matrix.

Three layers of replay guarantee, strongest first:

1. **Golden digests** — every invariant-checked cell of the
   ranks x streams x faults matrix must reproduce the event-sequence
   digest pinned in ``golden_digests.json``.  This is cross-*commit*
   determinism: a hot-path rewrite that shifts one event time or name by
   one ulp fails here.  Every pinned cell is declared once, in
   ``repro.harness.determinism.GOLDEN_CELLS``; re-pin only after an
   intentional, reviewed behaviour change (``tools/capture_golden.py``).
2. **Replay stability** — running the same cell twice in one process
   yields the same digest (cross-*run* determinism; catches leaked
   global state, id()-ordered iteration, allocation-history effects).
3. **Seed sensitivity** — different seeds yield *different* digests, so
   the digest provably covers the seed-dependent inputs rather than
   hashing a constant.

With invariants off there is no digest; those cells assert the
simulated iteration times instead, which also proves the invariant
checker itself never perturbs simulated time.
"""

import copy
import json
import math
import pathlib
import re

import pytest

from repro.harness.determinism import (
    CHAOS_CELLS,
    CLUSTER_CELLS,
    FINDINGS_CELLS,
    GOLDEN_CELLS,
    chaos_entry,
    chaos_key,
    cluster_entry,
    cluster_key,
    diagnosis_probe,
    findings_entry,
    findings_key,
    golden_entry,
    golden_key,
    golden_report,
    run_probe,
)
from repro.sim.invariants import ENV_FLAG

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

GOLDEN_FINDINGS_PATH = pathlib.Path(__file__).parent / \
    "golden_findings.json"
GOLDEN_FINDINGS = json.loads(GOLDEN_FINDINGS_PATH.read_text())

GOLDEN_CHAOS_PATH = pathlib.Path(__file__).parent / "golden_chaos.json"
GOLDEN_CHAOS = json.loads(GOLDEN_CHAOS_PATH.read_text())

GOLDEN_CLUSTER_PATH = pathlib.Path(__file__).parent / "golden_cluster.json"
GOLDEN_CLUSTER = json.loads(GOLDEN_CLUSTER_PATH.read_text())


class TestGoldenDigests:
    @pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=golden_key)
    def test_digest_matches_golden(self, cell):
        assert golden_entry(cell) == GOLDEN[golden_key(cell)], (
            f"{golden_key(cell)}: event schedule diverged from the pinned "
            f"golden entry — if this change is intentional, re-pin with "
            f"tools/capture_golden.py"
        )

    def test_golden_file_covers_whole_matrix(self):
        assert sorted(GOLDEN) == sorted(map(golden_key, GOLDEN_CELLS))


class TestReplayStability:
    @pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=golden_key)
    def test_same_cell_twice_same_digest(self, cell):
        first = run_probe(**cell, invariants=True, seed=0)
        second = run_probe(**cell, invariants=True, seed=0)
        assert first.digest == second.digest
        assert first.iteration_times_s == second.iteration_times_s

    @pytest.mark.parametrize(
        "cell", [c for c in GOLDEN_CELLS if c["streams"] == 4],
        ids=golden_key)
    def test_invariants_off_same_times(self, cell):
        # No digest without the checker, but simulated time must be
        # bit-identical — i.e. observing a run never alters it.
        golden = GOLDEN[golden_key(cell)]
        probe = run_probe(**cell, invariants=False, seed=0)
        assert probe.digest is None
        assert list(probe.iteration_times_s) == golden["iteration_times_s"]


class TestEnvironmentIndependence:
    """An explicit ``invariants`` choice wins over the environment.

    ``REPRO_CHECK_INVARIANTS=1`` must neither attach a checker to a run
    that declined one nor move the point where a requested checker
    attaches, so a cell's digest and times are the same either way.
    """

    @pytest.mark.parametrize("invariants", [True, False],
                             ids=["inv", "noinv"])
    def test_fault_probe_ignores_the_variable(self, monkeypatch,
                                              invariants):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        unset = run_probe(8, 4, faults=True, invariants=invariants, seed=0)
        monkeypatch.setenv(ENV_FLAG, "1")
        armed = run_probe(8, 4, faults=True, invariants=invariants, seed=0)
        assert armed.digest == unset.digest
        assert armed.iteration_times_s == unset.iteration_times_s
        assert (unset.digest is not None) == invariants


class TestSeedSensitivity:
    @pytest.mark.parametrize("faults", [False, True],
                             ids=["clean", "faults"])
    def test_different_seed_different_digest(self, faults):
        base = run_probe(8, 4, faults=faults, invariants=True, seed=0)
        other = run_probe(8, 4, faults=faults, invariants=True, seed=3)
        assert base.digest != other.digest

    def test_seed_zero_matches_golden(self):
        # seed=0 is documented to be byte-identical to the unseeded run,
        # which is what the golden file pins.
        probe = run_probe(8, 4, faults=False, invariants=True, seed=0)
        assert probe.digest == GOLDEN["r8-s4-nofaults-inv-seed0"]["digest"]


class TestDiagnosisDigests:
    """The diagnosis layer gets the same cross-commit pin as the sim.

    A detector-threshold tweak, finding-field rename or sort-order
    change must fail here; re-pin only after an intentional change
    (``tools/capture_golden.py``).
    """

    @pytest.mark.parametrize("cell", FINDINGS_CELLS, ids=findings_key)
    def test_findings_digest_matches_golden(self, cell):
        assert findings_entry(cell) == GOLDEN_FINDINGS[findings_key(cell)], (
            f"{findings_key(cell)}: findings diverged from the pinned "
            f"golden entry — if this change is intentional, re-pin with "
            f"tools/capture_golden.py"
        )

    @pytest.mark.parametrize("cell", FINDINGS_CELLS, ids=findings_key)
    def test_same_cell_twice_same_digest(self, cell):
        first = diagnosis_probe(**cell)
        second = diagnosis_probe(**cell)
        assert first.findings_digest == second.findings_digest

    def test_clean_cell_is_empty(self):
        # The clean cell's golden digest IS the empty-findings digest:
        # a healthy run must stay finding-free.
        probe = diagnosis_probe()
        assert probe.findings == 0

    def test_golden_file_covers_diagnosis_matrix(self):
        assert sorted(GOLDEN_FINDINGS) == sorted(
            map(findings_key, FINDINGS_CELLS))


class TestChaosOutcomes:
    """Each CI soak seed's terminal state is pinned across commits.

    The soak itself only checks replay determinism within one run; this
    pin fails when a change to the failure detector or the recovery
    driver moves a seed's status, recoveries, final membership or total
    simulated time.  Re-pin only after an intentional change
    (``tools/capture_golden.py``).
    """

    @pytest.mark.parametrize("seed", CHAOS_CELLS, ids=chaos_key)
    def test_outcome_matches_golden(self, seed):
        assert chaos_entry(seed) == GOLDEN_CHAOS[chaos_key(seed)], (
            f"{chaos_key(seed)}: chaos outcome diverged from the pinned "
            f"golden entry — if this change is intentional, re-pin with "
            f"tools/capture_golden.py"
        )

    def test_golden_file_covers_the_soak(self):
        assert sorted(GOLDEN_CHAOS) == sorted(map(chaos_key, CHAOS_CELLS))

    def test_pins_cover_recoveries_and_transitions(self):
        assert any(entry["recoveries"] for entry in GOLDEN_CHAOS.values())
        assert any(entry["epoch_transitions"] > 1
                   for entry in GOLDEN_CHAOS.values())


class TestClusterDigests:
    """The multi-tenant run's digests are pinned across commits.

    The cluster digest folds every tenant's outcome and every finding;
    the per-job numeric digests are the isolation contract's pins.
    Re-pin only after an intentional change to the scenario, the
    fabric or the degradation policy (``tools/capture_golden.py``).
    """

    @pytest.mark.parametrize("cell", CLUSTER_CELLS, ids=cluster_key)
    def test_digests_match_golden(self, cell):
        assert cluster_entry(cell) == GOLDEN_CLUSTER[cluster_key(cell)], (
            f"{cluster_key(cell)}: cluster run diverged from the pinned "
            f"golden entry — if this change is intentional, re-pin with "
            f"tools/capture_golden.py"
        )

    def test_golden_file_covers_the_cells(self):
        assert sorted(GOLDEN_CLUSTER) == sorted(
            map(cluster_key, CLUSTER_CELLS))


class TestGoldenReport:
    """``golden_report`` flags exactly the entries that moved."""

    def test_marks_moved_changed_and_new_cells(self):
        committed = {**GOLDEN, **GOLDEN_FINDINGS}
        fresh = copy.deepcopy(committed)
        times = fresh["r8-s4-nofaults-inv-seed0"]["iteration_times_s"]
        times[0] = math.nextafter(times[0], math.inf)
        fresh["r2-s1-faults-inv-seed0"]["digest"] = "0" * 32
        fresh["diag-straggler-r2-x3-seed0"]["findings"] = 2
        fresh["r4-s4-nofaults-inv-seed0"] = dict(
            GOLDEN["r2-s1-nofaults-inv-seed0"])

        report = {}
        for line in golden_report(committed, fresh):
            key, state, old, new = re.fullmatch(
                r"(\S+): (?:times|count) (\w+), (?:findings_)?digest "
                r"(\S+) -> (\S+)",
                line).groups()
            report[key] = (state, old != new)

        assert report == {
            **{key: ("held", False) for key in committed},
            "r8-s4-nofaults-inv-seed0": ("MOVED", False),
            "r2-s1-faults-inv-seed0": ("held", True),
            "diag-straggler-r2-x3-seed0": ("MOVED", False),
            "r4-s4-nofaults-inv-seed0": ("new", True),
        }

    def test_marks_moved_chaos_outcomes(self):
        committed = dict(GOLDEN_CHAOS)
        fresh = copy.deepcopy(committed)
        fresh["chaos-seed1"]["total_time_s"] = math.nextafter(
            fresh["chaos-seed1"]["total_time_s"], math.inf)
        fresh["chaos-seed20"] = dict(GOLDEN_CHAOS["chaos-seed0"])

        report = {}
        for line in golden_report(committed, fresh):
            key, state, old, new = re.fullmatch(
                r"(\S+): outcome (\w+), status (\S+) -> (\S+)",
                line).groups()
            report[key] = (state, old, new)

        assert report == {
            **{key: ("held", entry["status"], entry["status"])
               for key, entry in committed.items()},
            "chaos-seed1": ("MOVED", "completed", "completed"),
            "chaos-seed20": ("new", "-", "completed"),
        }

    def test_marks_moved_cluster_digests(self):
        committed = {"three-job-chaos": GOLDEN_CLUSTER["three-job-chaos"]}
        fresh = copy.deepcopy(committed)
        fresh["three-job-chaos"]["numeric_digests"]["jobB"] = "0" * 32
        fresh["three-job-clean"] = dict(GOLDEN_CLUSTER["three-job-chaos"])
        digest = GOLDEN_CLUSTER["three-job-chaos"]["cluster_digest"]

        assert golden_report(committed, fresh) == [
            f"three-job-chaos: digests MOVED, cluster_digest {digest} -> "
            f"{digest}",
            f"three-job-clean: digests new, cluster_digest - -> {digest}",
        ]
