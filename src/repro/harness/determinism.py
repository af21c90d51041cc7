"""Deterministic-replay probes for the seed x config determinism matrix.

The simulator's replay-determinism guarantee (PR 2) is only worth
anything if it survives hot-path rewrites.  This module packages one
training run per matrix cell — ranks x streams x {faults on/off} x
{invariants on/off} — behind a single function so the determinism test
suite, the benchmark harness and ad-hoc debugging all probe the exact
same configurations.

Each probe returns the run's :meth:`~repro.sim.kernel.Simulator.
state_digest` (``None`` when the invariant checker is off — the digest
is the checker's event-sequence fold) plus the measured iteration times,
which stay comparable even without a digest.

Seed semantics
--------------
The training pipeline itself draws no random numbers, so the probe
derives every seed-sensitive input deterministically from ``seed``:

* with faults on, the seed selects the crash victim and the crash time
  of the injected :class:`~repro.sim.faults.NodeCrash`;
* with faults off, the seed adds ``seed * SEED_JITTER_S`` of forward
  time — a deliberately tiny, seed-keyed perturbation whose only job is
  to shift every subsequent event timestamp so that two different seeds
  provably produce two different digests.

Both channels leave ``seed=0`` byte-identical to the unseeded run.
"""

from __future__ import annotations

import dataclasses
import typing as t

from repro.core.runtime import AIACCConfig
from repro.errors import TrainingError
from repro.frameworks import make_backend
from repro.sim.faults import FaultPlan, NodeCrash
from repro.training.trainer import run_training

#: Forward-time jitter per seed unit in the fault-free probe (seconds).
SEED_JITTER_S = 1e-6

#: Model used by every probe: mid-sized, exercises packing + streams.
PROBE_MODEL = "resnet50"


@dataclasses.dataclass(frozen=True)
class DeterminismProbe:
    """Outcome of one determinism-matrix cell."""

    ranks: int
    streams: int
    faults: bool
    invariants: bool
    seed: int
    #: Event-sequence digest; ``None`` when invariants are off.
    digest: str | None
    iteration_times_s: tuple[float, ...]
    #: All-reduce algorithm of the probed run.
    algorithm: str = "ring"
    #: Communication backend of the probed run.
    backend: str = "aiacc"

    @property
    def key(self) -> str:
        """Stable identifier used by the golden-digest file."""
        return probe_key(self.ranks, self.streams, self.faults,
                         self.invariants, self.seed, self.algorithm,
                         self.backend)


def probe_key(ranks: int, streams: int, faults: bool, invariants: bool,
              seed: int, algorithm: str = "ring",
              backend: str = "aiacc") -> str:
    """Canonical name of one matrix cell (JSON key in the golden file).

    The default AIACC ring keeps the legacy key format so existing
    golden entries stay addressable; planner-backend cells append an
    ``-<algorithm>`` suffix and baseline-backend cells a ``-<backend>``
    suffix.
    """
    key = (f"r{ranks}-s{streams}"
           f"-{'faults' if faults else 'nofaults'}"
           f"-{'inv' if invariants else 'noinv'}-seed{seed}")
    if algorithm != "ring":
        key += f"-{algorithm}"
    if backend != "aiacc":
        key += f"-{backend}"
    return key


@dataclasses.dataclass(frozen=True)
class DiagnosisProbe:
    """Outcome of one diagnosis-determinism cell."""

    straggler_rank: int | None
    straggler_factor: float
    seed: int
    #: Canonical findings digest (see ``repro.obs.diagnosis``).
    findings_digest: str
    findings: int

    @property
    def key(self) -> str:
        """Stable identifier used by the golden-findings file."""
        return diagnosis_probe_key(self.straggler_rank,
                                   self.straggler_factor, self.seed)


def diagnosis_probe_key(straggler_rank: int | None,
                        straggler_factor: float = 3.0,
                        seed: int = 0) -> str:
    """Canonical name of one diagnosis cell (golden-findings JSON key)."""
    scenario = ("clean" if straggler_rank is None
                else f"straggler-r{straggler_rank}-x{straggler_factor:g}")
    return f"diag-{scenario}-seed{seed}"


def diagnosis_probe(straggler_rank: int | None = None,
                    straggler_factor: float = 3.0,
                    seed: int = 0) -> DiagnosisProbe:
    """Diagnose one message-level iteration; returns the findings digest.

    The workload is a seed-keyed synthetic model on 2 nodes x 2 GPUs
    with streaming detectors attached; ``straggler_rank`` injects a
    compute-skewed straggler.  The digest must be bit-identical across
    runs and commits — it is pinned in ``golden_findings.json`` next to
    the event-sequence golden digests.
    """
    from repro.models.synthetic import random_model_spec
    from repro.obs import Observability, diagnose
    from repro.obs.report import build_step_report

    spec = random_model_spec(seed, num_layers=8, total_parameters=400_000,
                             total_forward_flops=1e9,
                             compute_occupancy=0.5)
    obs = Observability(enabled=True)
    obs.attach_detectors()
    skew = None if straggler_rank is None \
        else {straggler_rank: straggler_factor}
    report = build_step_report(
        model=t.cast(str, spec), num_nodes=2, gpus_per_node=2,
        config=AIACCConfig(num_streams=4), seed=seed, obs=obs,
        compute_skew=skew)
    diagnosis = diagnose(obs, attributions=report.attributions)
    return DiagnosisProbe(
        straggler_rank=straggler_rank, straggler_factor=straggler_factor,
        seed=seed, findings_digest=diagnosis.findings_digest,
        findings=len(diagnosis.findings))


def _fault_layout(ranks: int) -> int:
    """GPUs per node for the fault probe (needs >= 2 whole nodes)."""
    if ranks < 2:
        raise TrainingError("fault probes need at least 2 ranks")
    return min(8, ranks // 2)


def run_probe(ranks: int, streams: int = 4, faults: bool = False,
              invariants: bool = True, seed: int = 0,
              iterations: int = 2, model: str = PROBE_MODEL,
              algorithm: str = "ring",
              backend: str = "aiacc") -> DeterminismProbe:
    """Run one matrix cell and return its digest + iteration times.

    ``streams`` and ``algorithm`` configure the AIACC engine; any other
    ``backend`` runs with its default settings and ignores them.
    """
    if faults:
        if algorithm != "ring" or backend != "aiacc":
            raise TrainingError(
                "fault probes only cover the AIACC ring algorithm")
        return _run_fault_probe(ranks, streams, invariants, seed,
                                iterations, model)
    return _run_clean_probe(ranks, streams, invariants, seed,
                            iterations, model, algorithm, backend)


def _run_clean_probe(ranks: int, streams: int, invariants: bool,
                     seed: int, iterations: int, model: str,
                     algorithm: str = "ring",
                     backend: str = "aiacc") -> DeterminismProbe:
    if backend == "aiacc":
        comm = make_backend("aiacc", config=AIACCConfig(
            num_streams=streams, algorithm=algorithm))
    else:
        comm = make_backend(backend)
    result = run_training(
        model, comm, ranks,
        measure_iterations=iterations, warmup_iterations=0,
        extra_forward_time_s=seed * SEED_JITTER_S,
        check_invariants=invariants)
    return DeterminismProbe(
        ranks=ranks, streams=streams, faults=False, invariants=invariants,
        seed=seed, digest=result.state_digest,
        iteration_times_s=result.iteration_times_s, algorithm=algorithm,
        backend=backend)


def _run_fault_probe(ranks: int, streams: int, invariants: bool,
                     seed: int, iterations: int,
                     model: str) -> DeterminismProbe:
    from repro.training.resilience import run_fault_injected_training

    gpus_per_node = _fault_layout(ranks)
    num_nodes = ranks // gpus_per_node
    # Seed-keyed single crash: victim node and crash time both derive
    # from the seed, so different seeds yield different fault timelines.
    victim = seed % num_nodes
    crash_at = 0.4 + 0.01 * (seed % 7)
    plan = FaultPlan([NodeCrash(at_s=crash_at, node=victim)])
    result = run_fault_injected_training(
        model, plan, config=AIACCConfig(num_streams=streams),
        num_gpus=ranks, gpus_per_node=gpus_per_node,
        total_iterations=iterations,
        checkpoint_interval=max(1, iterations // 2),
        check_invariants=invariants)
    return DeterminismProbe(
        ranks=ranks, streams=streams, faults=True, invariants=invariants,
        seed=seed, digest=result.state_digest,
        iteration_times_s=tuple(result.iteration_times_s))
