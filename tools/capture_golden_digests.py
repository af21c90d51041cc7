"""Regenerate ``tests/sim/golden_digests.json``.

Runs every invariant-checked cell of the determinism matrix through
:func:`repro.harness.determinism.run_probe` and records the resulting
event-sequence digests.  The golden file pins the simulator's observable
event schedule: any hot-path rewrite that shifts an event time or name
by even one ulp fails ``tests/sim/test_determinism_matrix.py``.

Only regenerate after an *intentional*, reviewed behaviour change:

    PYTHONPATH=src python tools/capture_golden_digests.py

Before writing, it compares each cell with the committed file and
prints whether its ``iteration_times_s`` held.  A change that only
reorders same-instant events moves digests but must print ``held``
for every cell.
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.harness.determinism import probe_key, run_probe

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "tests" / "sim" / "golden_digests.json"

#: The invariant-checked matrix cells that get pinned digests.
GOLDEN_CELLS: tuple[dict, ...] = tuple(
    {"ranks": ranks, "streams": streams, "faults": faults,
     "invariants": True, "seed": 0}
    for ranks in (2, 8, 32)
    for streams in (1, 4)
    for faults in (False, True)
) + (
    # Planner-backend cell (in-network aggregation schedule).
    {"ranks": 8, "streams": 4, "faults": False, "invariants": True,
     "seed": 0, "algorithm": "ina"},
    # Hierarchical cell: multi-slot stream grants (one stream per local
    # GPU per unit) and the three-phase hierarchical chain.
    {"ranks": 32, "streams": 4, "faults": False, "invariants": True,
     "seed": 0, "algorithm": "hierarchical"},
) + tuple(
    # Multi-node planner cells: the 8-rank ina cell fits on one node,
    # so it takes the planner's single-node ring.  At 32 ranks every
    # planner schedule runs its inter-node phases.
    {"ranks": 32, "streams": 4, "faults": False, "invariants": True,
     "seed": 0, "algorithm": algorithm}
    for algorithm in ("ina", "multi-tree", "halving-doubling")
) + (
    # Large-scale cell: 1024 ranks pins the bundled-ring tier
    # (GroupFlow fan-outs, the network's wakeup timer) at the scale the
    # flow-bundling work targets.  Symmetric, so it runs in
    # representative mode — cheap enough for the test matrix while
    # still covering the 128-node schedule's event stream.
    {"ranks": 1024, "streams": 4, "faults": False, "invariants": True,
     "seed": 0},
) + tuple(
    # Parameter-server baselines: their push/pulls are single flows
    # through ``FluidNetwork.start_flow``, a path the AIACC cells barely
    # touch.  ``streams`` is ignored by these backends.
    {"ranks": 16, "streams": 4, "faults": False, "invariants": True,
     "seed": 0, "backend": backend}
    for backend in ("byteps", "mxnet-kvstore")
)


def capture(committed: dict) -> dict:
    digests = {}
    for cell in GOLDEN_CELLS:
        probe = run_probe(**cell)
        assert probe.digest is not None
        key = probe_key(**cell)
        times = list(probe.iteration_times_s)
        digests[key] = {"digest": probe.digest, "iteration_times_s": times}
        old = committed.get(key)
        if old is None:
            times_state = "new"
        elif old["iteration_times_s"] == times:
            times_state = "held"
        else:
            times_state = "MOVED"
        old_digest = old["digest"] if old else "-"
        print(f"{key}: times {times_state}, digest {old_digest} -> "
              f"{probe.digest}", file=sys.stderr)
    return digests


def main() -> None:
    committed = json.loads(GOLDEN_PATH.read_text()) \
        if GOLDEN_PATH.exists() else {}
    GOLDEN_PATH.write_text(json.dumps(capture(committed), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
