"""Re-pin the golden files under ``tests/sim``.

Runs every cell of the registry in ``repro.harness.determinism`` through
the pin functions ``tests/sim/test_determinism_matrix.py`` checks,
prints per cell whether it ``held`` against the committed file, and
rewrites ``golden_digests.json``, ``golden_findings.json``,
``golden_chaos.json`` and ``golden_cluster.json``.  On a committed tree
this is a no-op; a change that only reorders same-instant events moves
digests but must hold every cell's times, every findings count, every
chaos outcome and the cluster digests.  Only re-pin after an
intentional, reviewed behaviour change:

    PYTHONPATH=src python tools/capture_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.harness.determinism import (
    CHAOS_CELLS,
    CLUSTER_CELLS,
    FINDINGS_CELLS,
    GOLDEN_CELLS,
    chaos_entry,
    chaos_key,
    cluster_entry,
    cluster_key,
    findings_entry,
    findings_key,
    golden_entry,
    golden_key,
    golden_report,
)

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / \
    "tests" / "sim"


def main() -> None:
    for name, cells, key, entry in (
            ("golden_digests.json", GOLDEN_CELLS, golden_key, golden_entry),
            ("golden_findings.json", FINDINGS_CELLS, findings_key,
             findings_entry),
            ("golden_chaos.json", CHAOS_CELLS, chaos_key, chaos_entry),
            ("golden_cluster.json", CLUSTER_CELLS, cluster_key,
             cluster_entry)):
        path = GOLDEN_DIR / name
        committed = json.loads(path.read_text()) if path.exists() else {}
        fresh = {key(cell): entry(cell) for cell in cells}
        for line in golden_report(committed, fresh):
            print(line, file=sys.stderr)
        path.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
