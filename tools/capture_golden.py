"""Re-pin the golden files under ``tests/sim``.

Runs every cell of the registry in ``repro.harness.determinism`` through
the pin functions ``tests/sim/test_determinism_matrix.py`` checks,
prints per cell whether it ``held`` against the committed file, and
rewrites ``golden_digests.json``, ``golden_findings.json`` and
``golden_chaos.json``.  On a committed tree this is a no-op; a change
that only reorders same-instant events moves digests but must hold
every cell's times, every findings count and every chaos outcome.  Only
re-pin after an intentional, reviewed behaviour change:

    PYTHONPATH=src python tools/capture_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.harness.determinism import (
    CHAOS_CELLS,
    FINDINGS_CELLS,
    GOLDEN_CELLS,
    chaos_entry,
    chaos_key,
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
            ("golden_chaos.json", CHAOS_CELLS, chaos_key, chaos_entry)):
        path = GOLDEN_DIR / name
        committed = json.loads(path.read_text()) if path.exists() else {}
        fresh = {key(cell): entry(cell) for cell in cells}
        for line in golden_report(committed, fresh):
            print(line, file=sys.stderr)
        path.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
