"""The seed x config determinism matrix.

Three layers of replay guarantee, strongest first:

1. **Golden digests** — every invariant-checked cell of the
   ranks x streams x faults matrix must reproduce the event-sequence
   digest pinned in ``golden_digests.json``.  This is cross-*commit*
   determinism: a hot-path rewrite that shifts one event time or name by
   one ulp fails here.  Regenerate only after an intentional, reviewed
   behaviour change (``tools/capture_golden_digests.py``).
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

import json
import pathlib

import pytest

from repro.harness.determinism import (
    diagnosis_probe,
    diagnosis_probe_key,
    probe_key,
    run_probe,
)
from repro.sim.invariants import ENV_FLAG

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

GOLDEN_FINDINGS_PATH = pathlib.Path(__file__).parent / \
    "golden_findings.json"
GOLDEN_FINDINGS = json.loads(GOLDEN_FINDINGS_PATH.read_text())

DIAGNOSIS_MATRIX = [
    {"straggler_rank": None, "straggler_factor": 3.0, "seed": 0},
    {"straggler_rank": 2, "straggler_factor": 3.0, "seed": 0},
]


def diagnosis_cell_id(cell):
    return diagnosis_probe_key(**cell)

MATRIX = [
    {"ranks": ranks, "streams": streams, "faults": faults}
    for ranks in (2, 8, 32)
    for streams in (1, 4)
    for faults in (False, True)
] + [
    # Planner-backend cell: the in-network-aggregation schedule runs
    # through the fluid network's multi-phase planned path, so its event
    # schedule gets the same cross-commit pin as the legacy algorithms.
    {"ranks": 8, "streams": 4, "faults": False, "algorithm": "ina"},
    # Hierarchical cell: every unit holds one CUDA stream per local GPU
    # for its inter-node rings, so the stream pool grants multi-slot
    # requests and the collective runs its three-phase chain.
    {"ranks": 32, "streams": 4, "faults": False,
     "algorithm": "hierarchical"},
] + [
    # Multi-node planner cells: the 8-rank ina cell fits on one node,
    # so it takes the planner's single-node ring.  At 32 ranks every
    # planner schedule runs its inter-node phases.
    {"ranks": 32, "streams": 4, "faults": False, "algorithm": algorithm}
    for algorithm in ("ina", "multi-tree", "halving-doubling")
] + [
    # Large-scale cell: pins the bundled-ring tier (GroupFlow fan-outs,
    # the network's wakeup timer) at 1024 ranks.  Symmetric, so it
    # runs in representative mode — cheap enough for the matrix while
    # still covering the 128-node schedule's event stream.
    {"ranks": 1024, "streams": 4, "faults": False},
] + [
    # Parameter-server baselines: single flows through ``start_flow``.
    {"ranks": 16, "streams": 4, "faults": False, "backend": backend}
    for backend in ("byteps", "mxnet-kvstore")
]


def cell_id(cell):
    return probe_key(cell["ranks"], cell["streams"], cell["faults"],
                     True, 0, cell.get("algorithm", "ring"),
                     cell.get("backend", "aiacc"))


class TestGoldenDigests:
    @pytest.mark.parametrize("cell", MATRIX, ids=cell_id)
    def test_digest_matches_golden(self, cell):
        golden = GOLDEN[cell_id(cell)]
        probe = run_probe(**cell, invariants=True, seed=0)
        assert probe.digest == golden["digest"], (
            f"{cell_id(cell)}: event schedule diverged from the pinned "
            f"golden digest — if this change is intentional, regenerate "
            f"with tools/capture_golden_digests.py"
        )
        assert list(probe.iteration_times_s) == golden["iteration_times_s"]

    def test_golden_file_covers_whole_matrix(self):
        assert sorted(GOLDEN) == sorted(cell_id(cell) for cell in MATRIX)


class TestReplayStability:
    @pytest.mark.parametrize("cell", MATRIX, ids=cell_id)
    def test_same_cell_twice_same_digest(self, cell):
        first = run_probe(**cell, invariants=True, seed=0)
        second = run_probe(**cell, invariants=True, seed=0)
        assert first.digest == second.digest
        assert first.iteration_times_s == second.iteration_times_s

    @pytest.mark.parametrize(
        "cell", [c for c in MATRIX if c["streams"] == 4], ids=cell_id)
    def test_invariants_off_same_times(self, cell):
        # No digest without the checker, but simulated time must be
        # bit-identical — i.e. observing a run never alters it.
        golden = GOLDEN[cell_id(cell)]
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
    change must fail here; regenerate the golden file only after an
    intentional change (``tools/capture_golden_findings.py``).
    """

    @pytest.mark.parametrize("cell", DIAGNOSIS_MATRIX,
                             ids=diagnosis_cell_id)
    def test_findings_digest_matches_golden(self, cell):
        golden = GOLDEN_FINDINGS[diagnosis_cell_id(cell)]
        probe = diagnosis_probe(**cell)
        assert probe.findings == golden["findings"]
        assert probe.findings_digest == golden["findings_digest"], (
            f"{diagnosis_cell_id(cell)}: findings diverged from the "
            f"pinned golden digest — if this change is intentional, "
            f"regenerate with tools/capture_golden_findings.py"
        )

    @pytest.mark.parametrize("cell", DIAGNOSIS_MATRIX,
                             ids=diagnosis_cell_id)
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
            diagnosis_cell_id(cell) for cell in DIAGNOSIS_MATRIX)
