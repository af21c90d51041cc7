"""One benchmark run: set up, measure for a fixed time, check, report."""

from __future__ import annotations

import dataclasses
import gc
import importlib.metadata
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import typing as t

from bench import ROOT
from bench.speed import REFERENCE_S, SpeedTracker, probe
from bench.stats import chunked_percentile, chunked_rate
from bench.trace import LAYER_METRICS, Tracer
from bench.workloads import WORKLOADS, CheckFailed, Workload, load_golden

#: End-to-end metrics of an untraced run: name -> (unit, better).
E2E_METRICS: dict[str, tuple[str, str]] = {
    "ops_per_s": ("ops/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Failure messages kept per run for the report.
MAX_ERRORS_SHOWN = 5


@dataclasses.dataclass
class Phase:
    """The ops of one measured phase, their times at reference speed."""

    latencies: list[float] = dataclasses.field(default_factory=list)
    round_ops: list[int] = dataclasses.field(default_factory=list)
    speed: SpeedTracker = dataclasses.field(default_factory=SpeedTracker)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(message)

    @property
    def ops_per_s(self) -> float:
        return chunked_rate(self.latencies, self.round_ops)

    @property
    def op_ms_p50(self) -> float:
        return chunked_percentile(self.latencies, self.round_ops, 50) * 1e3


def measure(workload: Workload, seconds: float, max_ops: int | None = None,
            tracer: Tracer | None = None) -> Phase:
    """Run whole rounds for about ``seconds`` (or exactly ``max_ops`` ops).

    Another round starts only while it is expected to end within half a
    round of the deadline, so a workload whose round is long (the
    figures grid) runs whole rounds instead of a seed-dependent part.
    """
    phase = Phase()
    gc.collect()
    clock = time.perf_counter
    start = clock()
    index = 0
    while True:
        ops = workload.round(index)
        ran = 0
        for work, check in ops:
            if max_ops is not None and phase.attempted >= max_ops:
                break
            factor = phase.speed.factor()
            if tracer is not None:
                tracer.begin_op(phase.attempted)
            began = clock()
            try:
                value = work()
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            latency = clock() - began
            if tracer is not None:
                tracer.end_op(latency)
            phase.attempted += 1
            ran += 1
            phase.latencies.append(latency * factor)
            if error is None:
                try:
                    check(value)
                except CheckFailed as exc:
                    error = f"check failed: {exc}"
            if error is not None:
                phase.fail(error)
        for message in workload.finish_round(ran == len(ops)):
            phase.attempted += 1  # a failed round check counts as an op
            phase.fail(message)
        phase.round_ops.append(ran)
        index += 1
        if max_ops is not None:
            if phase.attempted >= max_ops:
                return phase
            continue
        elapsed = clock() - start
        if elapsed + 0.5 * elapsed / index >= seconds:
            return phase


def set_up(name: str, seed: int, scratch: pathlib.Path,
           golden: dict) -> tuple[Workload, float, list[float]]:
    """Set the workload up :data:`SETUP_REPEATS` times; keep the last.

    Returns it with the median set-up time at reference speed and the
    probe taken before each set-up.  The first set-up also pays the
    program's imports; the median leaves that out.
    """
    times, probes = [], []
    workload: Workload | None = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
            workload = None
        gc.collect()
        probes.append(probe())
        began = time.perf_counter()
        workload = WORKLOADS[name](golden, scratch)
        workload.setup(seed)
        times.append((time.perf_counter() - began) * REFERENCE_S / probes[-1])
    return t.cast(Workload, workload), statistics.median(times), probes


def e2e_metrics(phase: Phase, setup_s: float) -> dict[str, float]:
    return {
        "ops_per_s": phase.ops_per_s,
        "op_ms_p50": phase.op_ms_p50,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def fingerprint() -> dict[str, object]:
    """The environment a run record was measured in."""
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }


@dataclasses.dataclass
class RunResult:
    attempted: int
    failed: int
    #: End-to-end metrics of the untraced phase (empty if set-up failed).
    e2e: dict[str, float]
    #: Per-layer metrics of the traced phase, for a traced run.
    layers: dict[str, float] | None
    record: dict[str, object]
    errors: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The reported metrics with their units."""
        if self.layers is not None:
            return {key: (value, LAYER_METRICS[key])
                    for key, value in self.layers.items()}
        return {key: (value, E2E_METRICS[key][0])
                for key, value in self.e2e.items()}


def run(name: str, seed: int, seconds: float, trace: bool,
        max_ops: int | None = None,
        spans_path: pathlib.Path | None = None) -> RunResult:
    """One run of workload ``name``.

    Untraced, the metrics are :data:`E2E_METRICS`.  Traced, an untraced
    phase is followed by a traced phase over the same rounds, each for
    half the time; the metrics are :data:`~bench.trace.LAYER_METRICS`,
    and the traced phase's slowdown is ``trace.overhead_frac``.  An
    aborted run counts as one failed op.
    """
    record: dict[str, object] = {"workload": name, "seed": seed,
                                 "seconds": seconds, "trace": trace,
                                 "fingerprint": fingerprint()}
    golden = load_golden()
    scratch = pathlib.Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    workload: Workload | None = None
    phases: list[Phase] = []
    errors: list[str] = []
    probes: list[float] = []
    e2e: dict[str, float] = {}
    layers: dict[str, float] | None = None
    try:
        workload, setup_s, probes = set_up(name, seed, scratch, golden)
        # A traced run splits its time between the two phases.
        seconds = seconds / 2 if trace else seconds
        plain = measure(workload, seconds, max_ops)
        phases.append(plain)
        e2e = e2e_metrics(plain, setup_s)
        if trace:
            tracer = Tracer()
            try:
                tracer.install()
                traced = measure(workload, seconds, max_ops, tracer)
            finally:
                tracer.remove()
            phases.append(traced)
            layers = tracer.metrics(
                overhead_frac=plain.ops_per_s / traced.ops_per_s - 1.0)
            if spans_path is not None:
                tracer.write_spans(spans_path)
    except Exception as exc:  # reported as a failed run
        errors.append(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    if not phases or (trace and layers is None):
        attempted, failed = attempted + 1, failed + 1
    for phase in phases:
        errors.extend(phase.errors)
        probes.extend(phase.speed.samples)
    record.update(attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, metrics=e2e,
                  probe_ms=statistics.median(probes) * 1e3 if probes else None)
    if layers is not None:
        record["layers"] = layers
    return RunResult(attempted, failed, e2e, layers, record, errors)


def render(name: str, result: RunResult) -> list[str]:
    """Human-readable lines: metrics by name with unit, then the verdict."""
    lines = [f"workload {name}"]
    sections = [("end to end", {key: (value, E2E_METRICS[key][0])
                                for key, value in result.e2e.items()})]
    if result.layers is not None:
        sections.append(("per layer (traced phase)", result.metrics()))
    for title, metrics in sections:
        if not metrics:
            continue
        lines.append(f"  {title}:")
        width = max(len(key) for key in metrics)
        for key, (value, unit) in metrics.items():
            lines.append(f"    {key:<{width}}  {value:.6g} {unit}")
    if result.record.get("probe_ms") is not None:
        lines.append(f"  speed probe: median {result.record['probe_ms']:.4g} "
                     f"ms; times above are scaled to a "
                     f"{REFERENCE_S * 1e3:g} ms probe")
    verdict = "pass" if result.correct else "FAIL"
    lines.append(f"  checks: {verdict} ({result.failed} of "
                 f"{result.attempted} ops failed)")
    lines.extend(f"  error: {message}" for message in result.errors)
    return lines


def result_line(result: RunResult) -> dict[str, object]:
    """The last stdout line of a run."""
    return {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in result.metrics().items()}}


def main_run(name: str, seed: int, seconds: float, trace: bool,
             max_ops: int | None, out: pathlib.Path | None) -> int:
    spans = out.with_name(out.name + ".spans.jsonl") \
        if out is not None and trace else None
    result = run(name, seed, seconds, trace, max_ops, spans)
    for line in render(name, result):
        print(line)
    if out is not None:
        with open(out, "a") as records:
            records.write(json.dumps(result.record, sort_keys=True) + "\n")
    print(json.dumps(result_line(result)))
    sys.stdout.flush()
    return 0 if result.correct else 1
