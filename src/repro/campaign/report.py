"""Campaign reporting: tables, artifacts and the resume-invariant digest.

The **report digest** is the campaign's correctness witness: it hashes
every cell's terminal outcome — ``spec_id``, state, the result payload
for ``done`` cells, the error *class* for failed/quarantined ones — and
deliberately excludes wall times, attempt counts and timestamps.  A
campaign that was ``kill -9``-ed and resumed therefore produces a digest
bit-identical to an uninterrupted run of the same grid and seeds, which
is exactly the invariant the robustness tests and the CI smoke job
assert.

Artifacts (all written atomically via :mod:`repro.ioutil`):

* ``summary.md`` — state counts, per-figure tables, the digest;
* ``runs.jsonl`` — one self-describing record per cell;
* ``metrics.prom`` — campaign metrics through the standard obs
  exporter (:func:`repro.obs.exporters.prometheus_text`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import typing as t

from repro.campaign.store import (
    STATES,
    CampaignStore,
    RunRow,
    open_store_readonly,
)
from repro.errors import CampaignStoreError, ReportInputError
from repro.ioutil import atomic_write_jsonl, atomic_write_text

#: Result keys surfaced into the per-figure tables, in display order.
_TABLE_RESULT_KEYS = ("throughput", "scaling_efficiency",
                      "mean_iteration_s", "status", "outcome_digest")


@dataclasses.dataclass(frozen=True)
class CampaignReport:
    """A campaign's durable outcome, loaded from the store."""

    campaign_id: int
    name: str
    counts: dict[str, int]
    rows: tuple[RunRow, ...]

    @property
    def total(self) -> int:
        return len(self.rows)

    @property
    def complete(self) -> bool:
        """Every cell reached a terminal state."""
        return all(self.counts[state] == 0
                   for state in ("pending", "claimed", "running"))

    def digest(self) -> str:
        """Deterministic digest of every cell's terminal outcome.

        Invariant under interruption + resume: excludes wall time,
        attempts, timestamps and error text (which may embed times) —
        only (spec, state, result payload | error class) contribute.
        """
        blob = json.dumps(self._outcomes(), sort_keys=True)
        return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()

    def _outcomes(self) -> dict[str, dict]:
        """Every cell's terminal outcome by spec id: its state, its
        ``done`` result payload and its failed/quarantined error class."""
        return {
            row.spec_id: {
                "state": row.state,
                "result": row.result if row.state == "done" else None,
                "error_class": (row.error_class
                                if row.state in ("failed", "quarantined")
                                else None),
            }
            for row in self.rows
        }

    # -- table rows ------------------------------------------------------------

    def summary_rows(self) -> list[dict]:
        return [{"state": state, "runs": self.counts[state]}
                for state in STATES]

    def result_rows(self) -> list[dict]:
        """One flat row per cell: parameters + headline results."""
        rows = []
        for row in self.rows:
            flat: dict[str, object] = {"spec": row.spec_id,
                                       "state": row.state,
                                       "attempts": row.attempt}
            flat.update(sorted(row.params.items()))
            if row.result:
                for key in _TABLE_RESULT_KEYS:
                    if key in row.result:
                        flat[key] = row.result[key]
            if row.state in ("failed", "quarantined"):
                flat["error_class"] = row.error_class
            if row.reused_from is not None:
                flat["reused_from"] = row.reused_from
            rows.append(flat)
        return rows

    def figure_groups(self) -> dict[str, list[dict]]:
        """Result rows grouped by their ``figure`` parameter."""
        groups: dict[str, list[dict]] = {}
        for flat in self.result_rows():
            figure = str(flat.get("figure", "ungrouped"))
            groups.setdefault(figure, []).append(flat)
        return groups


def load_report(store: CampaignStore,
                campaign_id: int | None = None) -> CampaignReport:
    """Build a report from the store (latest campaign when id is None)."""
    if campaign_id is None:
        campaigns = store.campaigns()
        if not campaigns:
            raise CampaignStoreError(
                f"store {store.path} has no campaigns")
        campaign_id = campaigns[-1].id
    info = store.campaign(campaign_id)
    rows = tuple(store.runs(campaign_id))
    return CampaignReport(campaign_id=info.id, name=info.name,
                          counts=store.counts(campaign_id), rows=rows)


def load_report_from_path(path: str | pathlib.Path,
                          campaign_id: int | None = None) -> CampaignReport:
    """Report straight from a store file, with typed input errors.

    Raises :class:`~repro.errors.ReportInputError` when the file is
    missing or not a campaign store — the contract the report CLIs
    expose instead of an unhandled traceback.
    """
    try:
        with open_store_readonly(path) as store:
            return load_report(store, campaign_id)
    except CampaignStoreError as exc:
        raise ReportInputError(str(exc)) from exc


@dataclasses.dataclass(frozen=True)
class CellDiff:
    """One divergent cell between two campaign reports."""

    spec_id: str
    #: ``missing`` (cell absent on one side), ``state``, ``result`` or
    #: ``error_class`` — the first field that differs.
    field: str
    a: object
    b: object

    def render(self) -> str:
        return f"{self.spec_id}: {self.field} differs " \
               f"({self.a!r} vs {self.b!r})"


def diff_reports(a: CampaignReport, b: CampaignReport) -> list[CellDiff]:
    """Cell-by-cell comparison of two campaigns' terminal outcomes.

    Compares exactly what :meth:`CampaignReport.digest` hashes — state,
    ``done`` result payload, failed/quarantined error class — so two
    reports diff clean if and only if their digests match.  Returns the
    divergent cells sorted by spec id (empty when identical).
    """
    cells_a, cells_b = a._outcomes(), b._outcomes()
    diffs: list[CellDiff] = []
    for spec_id in sorted(set(cells_a) | set(cells_b)):
        if spec_id not in cells_a:
            diffs.append(CellDiff(spec_id, "missing", None,
                                  cells_b[spec_id]["state"]))
            continue
        if spec_id not in cells_b:
            diffs.append(CellDiff(spec_id, "missing",
                                  cells_a[spec_id]["state"], None))
            continue
        cell_a, cell_b = cells_a[spec_id], cells_b[spec_id]
        for field in ("state", "result", "error_class"):
            if cell_a[field] != cell_b[field]:
                diffs.append(CellDiff(spec_id, field, cell_a[field],
                                      cell_b[field]))
                break
    return diffs


def render_report(report: CampaignReport) -> str:
    """Markdown rendering: summary, per-figure tables, digest."""
    from repro.harness.report import format_table

    sections = [
        f"# Campaign {report.campaign_id}: {report.name}",
        "",
        format_table(report.summary_rows(), title="run states"),
        "",
    ]
    for figure, rows in sorted(report.figure_groups().items()):
        columns = _stable_columns(rows)
        sections.append(format_table(rows, columns=columns,
                                     title=f"{figure} ({len(rows)} cells)"))
        sections.append("")
    sections.append(f"report digest: `{report.digest()}`")
    sections.append(f"complete: {'yes' if report.complete else 'no'}")
    return "\n".join(sections)


def _stable_columns(rows: t.Sequence[dict]) -> list[str]:
    """Union of row keys in first-seen order (rows may differ by state)."""
    columns: dict[str, None] = {}
    for row in rows:
        for key in row:
            columns.setdefault(key)
    return list(columns)


def build_metrics(report: CampaignReport) -> t.Any:
    """Fold the campaign outcome into a standard obs MetricsRegistry."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    states = registry.counter(
        "repro_campaign_runs_total",
        help="campaign runs by terminal/in-flight state")
    attempts = registry.counter(
        "repro_campaign_attempts_total",
        help="attempts started across all runs")
    wall = registry.histogram(
        "repro_campaign_run_wall_time_s",
        help="per-run wall time of recorded attempts",
        buckets=(0.1, 0.5, 1.0, 5.0, 30.0, 120.0))
    registry.counter(
        "repro_campaign_runs_reused_total",
        help="done runs that copied a twin's result instead of simulating"
    ).inc(sum(row.reused_from is not None for row in report.rows))
    for state, count in report.counts.items():
        if count:
            states.inc(count, state=state)
    for row in report.rows:
        if row.attempt:
            attempts.inc(row.attempt, runner=row.runner)
        if row.wall_time_s is not None:
            wall.observe(row.wall_time_s, runner=row.runner)
    return registry


def run_records(report: CampaignReport) -> t.Iterator[dict]:
    """Self-describing JSONL records (``kind`` field) for every cell."""
    yield {"kind": "campaign", "id": report.campaign_id,
           "name": report.name, "digest": report.digest(),
           "counts": report.counts}
    for row in report.rows:
        yield {"kind": "run", "spec": row.spec_id, "runner": row.runner,
               "state": row.state, "attempts": row.attempt,
               "params": dict(sorted(row.params.items())),
               "result": row.result, "error_class": row.error_class,
               "wall_time_s": row.wall_time_s,
               "reused_from": row.reused_from}


def write_report_artifacts(directory: str | pathlib.Path,
                           report: CampaignReport
                           ) -> dict[str, pathlib.Path]:
    """Persist summary.md / runs.jsonl / metrics.prom atomically."""
    from repro.obs.exporters import prometheus_text

    out_dir = pathlib.Path(directory)
    written = {
        "summary": atomic_write_text(out_dir / "summary.md",
                                     render_report(report) + "\n"),
        "jsonl": atomic_write_jsonl(out_dir / "runs.jsonl",
                                    run_records(report)),
        "prometheus": atomic_write_text(
            out_dir / "metrics.prom",
            prometheus_text(build_metrics(report))),
    }
    return written
