"""Shared helpers for the paper-reproduction benchmarks.

Every shape test runs its experiment from the registry
(:data:`repro.harness.experiments.EXPERIMENTS`) exactly once (the
simulator is deterministic), asserts the paper's *shape* criteria, and
writes the regenerated table to ``results/`` so a benchmark run leaves
all paper tables on disk.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness.experiments import experiment_rows, write_table

#: Where regenerated tables are written.
RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture
def record_table():
    """Fixture: ``record_table(stem)`` runs registry experiment ``stem``,
    saves its table under results/, echoes it to stdout and returns the
    rows; ``record_table(stem, rows)`` saves given rows instead."""
    def _record(stem: str, rows: list[dict] | None = None) -> list[dict]:
        if rows is None:
            ((_, rows),) = experiment_rows([stem])
        print()
        print(write_table(stem, rows, RESULTS_DIR))
        return rows
    return _record
