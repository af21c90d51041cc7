"""Compare run records of a parent commit and a change.

Each side is a JSONL file of run records (``python -m bench run --out``).
Records pair up per workload in file order, so record ``i`` of the
parent and record ``i`` of the change form pair ``i``; run the two
commits alternately to fill them.  The rules, for a machine whose
run-to-run noise is of the order of the gains being claimed:

* a claim (``METRIC@WORKLOAD``) needs at least 10 pairs, a change win in
  at least nine tenths of them (ties count for neither side), and a
  median gap wider than the parent's own quartile distance;
* every other metric is ``worse`` when the change's median is worse than
  the parent's by more than the metric's bound, ``unresolved`` when the
  run-to-run spread is wider than the bound (unless every change run
  beats every parent run), and ``unchanged`` otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing as t

from bench.stats import iqr_share, quartiles

MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9
#: Fingerprint fields expected to differ between runs.
VOLATILE_FINGERPRINT = ("commit", "loadavg_1m")


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    name: str
    unit: str
    better: str
    bound: float

    def improves(self, new: float, old: float) -> bool:
        return new > old if self.better == "higher" else new < old

    def worsening(self, new: float, old: float) -> float:
        """How much worse ``new`` is than ``old``, as a share of ``old``."""
        gap = (old - new) if self.better == "higher" else (new - old)
        return gap / abs(old) if old else 0.0


@dataclasses.dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    pairs: int
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    verdict: str

    def render(self, unit: str) -> str:
        def side(q: tuple[float, float, float]) -> str:
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

        delta = (self.change[1] - self.parent[1]) / abs(self.parent[1]) \
            if self.parent[1] else 0.0
        return (f"{self.workload:<17} {self.metric:<11} {self.pairs:>3}  "
                f"{side(self.parent):<30} {side(self.change):<30} "
                f"{delta:+8.2%} {unit:<6} {self.verdict}")


def load_specs(benchmark: pathlib.Path) -> dict[str, MetricSpec]:
    data = json.loads(benchmark.read_text())
    return {m["name"]: MetricSpec(m["name"], m["unit"], m["better"],
                                  float(m["bound"]))
            for m in data["end_to_end"]}


def load_records(path: pathlib.Path) -> dict[str, list[dict]]:
    """Run records grouped by workload, in file order."""
    grouped: dict[str, list[dict]] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            grouped.setdefault(record["workload"], []).append(record)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{number}: not a run record ({exc})") \
                from exc
    return grouped


def verdict(spec: MetricSpec, parent: t.Sequence[float],
            change: t.Sequence[float]) -> str:
    """``worse``, ``unresolved`` or ``unchanged`` for a non-claimed metric."""
    p = quartiles(parent)
    c = quartiles(change)
    if spec.worsening(c[1], p[1]) > spec.bound:
        return "worse"
    spread = max(iqr_share(parent), iqr_share(change))
    beats_all = all(spec.improves(new, old)
                    for new in change for old in parent)
    if spread > spec.bound and not beats_all:
        return "unresolved"
    return "unchanged"


def claim_verdict(spec: MetricSpec, parent: t.Sequence[float],
                  change: t.Sequence[float]) -> str:
    """``gain`` when the claim holds, else ``claim not met``."""
    pairs = min(len(parent), len(change))
    wins = sum(spec.improves(new, old)
               for new, old in zip(change[:pairs], parent[:pairs]))
    p = quartiles(parent)
    c = quartiles(change)
    gap_clears_spread = spec.improves(c[1], p[1]) \
        and abs(c[1] - p[1]) > p[2] - p[0]
    if pairs >= MIN_PAIRS and wins >= CLAIM_WIN_SHARE * pairs \
            and gap_clears_spread:
        return "gain"
    return f"claim not met ({wins}/{pairs} wins)"


def fingerprint_warnings(parent: dict[str, list[dict]],
                         change: dict[str, list[dict]]) -> list[str]:
    """One warning per fingerprint field that differs across records."""
    seen: dict[str, set[str]] = {}
    for grouped in (parent, change):
        for records in grouped.values():
            for record in records:
                for key, value in record.get("fingerprint", {}).items():
                    if key not in VOLATILE_FINGERPRINT:
                        seen.setdefault(key, set()).add(json.dumps(value))
    return [f"warning: runs differ in {key}: {', '.join(sorted(values))}"
            for key, values in sorted(seen.items()) if len(values) > 1]


def failed_frac(records: t.Sequence[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(parent_path: pathlib.Path, change_path: pathlib.Path,
            benchmark: pathlib.Path, claims: t.Sequence[str] = ()
            ) -> tuple[list[str], bool]:
    """Report lines, and whether the change passes (no regression, no
    higher failure share, every claim met)."""
    specs = load_specs(benchmark)
    parent = load_records(parent_path)
    change = load_records(change_path)
    wanted: dict[tuple[str, str], None] = {}
    for claim in claims:
        metric, _, workload = claim.partition("@")
        if metric not in specs or not workload:
            raise ValueError(f"claim {claim!r} is not METRIC@WORKLOAD with "
                             f"METRIC one of {sorted(specs)}")
        if workload not in parent or workload not in change:
            raise ValueError(f"claim {claim!r}: no records of {workload!r}")
        wanted[(metric, workload)] = None
    lines = fingerprint_warnings(parent, change)
    lines.append(f"{'workload':<17} {'metric':<11} {'n':>3}  "
                 f"{'parent median [q1, q3]':<30} "
                 f"{'change median [q1, q3]':<30} {'delta':>8} "
                 f"{'unit':<6} verdict")
    ok = True
    for workload in sorted(set(parent) & set(change)):
        p_fail = failed_frac(parent[workload])
        c_fail = failed_frac(change[workload])
        if c_fail > p_fail:
            ok = False
            lines.append(f"{workload}: failed_frac rose from {p_fail:.4g} "
                         f"to {c_fail:.4g}")
        # A run whose set-up failed has no metrics; it counted above.
        p_runs = [r for r in parent[workload] if r["metrics"]]
        c_runs = [r for r in change[workload] if r["metrics"]]
        pairs = min(len(p_runs), len(c_runs))
        if pairs < MIN_PAIRS:
            lines.append(f"warning: {workload} has {pairs} pairs; "
                         f"a claim needs {MIN_PAIRS}")
        if not pairs:
            ok &= not any(w == workload for _m, w in wanted)
            continue
        for name, spec in specs.items():
            p_vals = [r["metrics"][name] for r in p_runs[:pairs]]
            c_vals = [r["metrics"][name] for r in c_runs[:pairs]]
            if (name, workload) in wanted:
                result = claim_verdict(spec, p_vals, c_vals)
                ok &= result == "gain"
            else:
                result = verdict(spec, p_vals, c_vals)
                ok &= result != "worse"
            lines.append(Row(workload, name, pairs, quartiles(p_vals),
                             quartiles(c_vals), result).render(spec.unit))
    for workload in sorted(set(parent) ^ set(change)):
        lines.append(f"warning: {workload} has records on one side only")
    return lines, ok
