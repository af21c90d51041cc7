"""Deterministic-replay probes for the seed x config determinism matrix.

The simulator's replay-determinism guarantee is only worth anything if
it survives hot-path rewrites.  This module packages one training run
per matrix cell — ranks x streams x {faults on/off} x {invariants
on/off} — behind a single function, and declares every golden-pinned
cell once (:data:`GOLDEN_CELLS`, :data:`FINDINGS_CELLS`,
:data:`CHAOS_CELLS`, :data:`CLUSTER_CELLS`), so the
determinism test and ``tools/capture_golden.py`` check and re-pin the
exact same configurations.

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
from repro.errors import TrainingError, require_count
from repro.frameworks import make_backend
from repro.sim.faults import WINDOW_FAULTS, FaultPlan, NodeCrash
from repro.training.trainer import ThroughputResult, run_training

if t.TYPE_CHECKING:
    from repro.training.resilience import FaultInjectionResult

#: Forward-time jitter per seed unit in the fault-free probe (seconds).
SEED_JITTER_S = 1e-6

#: Model used by every probe: mid-sized, exercises packing + streams.
PROBE_MODEL = "resnet50"


@dataclasses.dataclass(frozen=True)
class DeterminismProbe:
    """Outcome of one determinism-matrix cell."""

    #: Event-sequence digest; ``None`` when invariants are off.
    digest: str | None
    iteration_times_s: tuple[float, ...]


@dataclasses.dataclass(frozen=True)
class DiagnosisProbe:
    """Outcome of one diagnosis-determinism cell (its golden entry)."""

    #: Canonical findings digest (see ``repro.obs.diagnosis``).
    findings_digest: str
    findings: int


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
    return DiagnosisProbe(findings_digest=diagnosis.findings_digest,
                          findings=len(diagnosis.findings))


#: Every cell pinned in ``tests/sim/golden_digests.json``.  Each runs
#: with the invariant checker on and seed 0; :func:`golden_entry` is its
#: pin, and ``tools/capture_golden.py`` re-pins the whole registry.
GOLDEN_CELLS: tuple[dict, ...] = tuple(
    {"ranks": ranks, "streams": streams, "faults": faults}
    for ranks in (2, 8, 32)
    for streams in (1, 4)
    for faults in (False, True)
) + (
    # Planner cell on one node: the in-network-aggregation schedule
    # takes the planner's single-node ring.
    {"ranks": 8, "streams": 4, "faults": False, "algorithm": "ina"},
) + tuple(
    # 32-rank cells: a hierarchical unit holds one CUDA stream per local
    # GPU, so the stream pool grants multi-slot requests and the
    # collective runs its three-phase chain; every planner schedule
    # runs its inter-node phases.
    {"ranks": 32, "streams": 4, "faults": False, "algorithm": algorithm}
    for algorithm in ("hierarchical", "ina", "multi-tree",
                      "halving-doubling")
) + (
    # Large-scale cell: pins the bundled-ring tier (GroupFlow fan-outs,
    # the network's wakeup timer) at 1024 ranks.  Each fan-out's 128
    # NIC hops enter as one bundled class, so the full link set is
    # cheap enough for the matrix while covering the 128-node
    # schedule's event stream.
    {"ranks": 1024, "streams": 4, "faults": False},
) + tuple(
    # Baselines, which ignore ``streams``: the parameter servers'
    # push/pulls are single flows through ``FluidNetwork.start_flow``, a
    # path the AIACC cells barely touch; Horovod and PyTorch-DDP run
    # one coordinated all-reduce stream per rank.
    {"ranks": 16, "streams": 4, "faults": False, "backend": backend}
    for backend in ("byteps", "mxnet-kvstore", "horovod", "pytorch-ddp")
) + tuple(
    # Parameter servers on one node: each transfer is one NVLink flow
    # carrying the push and the pull, with no inter-node hop.
    {"ranks": 8, "streams": 4, "faults": False, "backend": backend}
    for backend in ("byteps", "mxnet-kvstore")
) + (
    # Spine cells: an oversubscribed core link carries every node's
    # hops, the inter-node hops of a launch as one group weighed once
    # per hop on the shared core.  The last two use 9 nodes and odd
    # stream counts, so the core's per-flow share ``core / (m * w)`` is
    # not a power-of-two fraction.
    {"ranks": 32, "streams": 4, "faults": False, "core_oversubscription": 4.0},
    {"ranks": 32, "streams": 4, "faults": False, "algorithm": "hierarchical",
     "core_oversubscription": 4.0},
    {"ranks": 256, "streams": 4, "faults": False,
     "core_oversubscription": 2.0},
    {"ranks": 72, "streams": 5, "faults": False,
     "core_oversubscription": 1.5},
    {"ranks": 72, "streams": 3, "faults": False,
     "core_oversubscription": 1.3},
)

#: Every cell pinned in ``tests/sim/golden_findings.json``: a clean run,
#: which must stay at the empty-findings digest, and an injected
#: straggler.  :func:`findings_entry` is its pin.
FINDINGS_CELLS: tuple[dict, ...] = (
    {"straggler_rank": None, "straggler_factor": 3.0, "seed": 0},
    {"straggler_rank": 2, "straggler_factor": 3.0, "seed": 0},
)


#: Every chaos-soak seed pinned in ``tests/sim/golden_chaos.json``: the
#: first 20 of the 100 seeds the CI soak runs (``python -m repro chaos
#: --seeds 100``); the rest must only terminate and replay equal.
#: :func:`chaos_entry` is its pin.
CHAOS_CELLS: tuple[int, ...] = tuple(range(20))

#: Every multi-tenant cell pinned in ``tests/sim/golden_cluster.json``:
#: the committed three-job scenario with chaos on one tenant, the run
#: the CI cluster smoke replays, and the same jobs with a mixed-kind
#: Poisson plan on jobA, the fault process of the bench's tenants-chaos
#: workload.  Seed 6 draws a straggler, a degradation ahead of a flap,
#: and two crashes.  :func:`cluster_entry` is its pin.
CLUSTER_CELLS: tuple[dict, ...] = ({"chaos": True}, {"poisson_seed": 6})

#: The :class:`~repro.harness.chaos.ChaosOutcome` fields a chaos pin
#: holds: the terminal state and simulated time of the run, not its
#: event digest, which a same-instant reordering moves.
CHAOS_FIELDS = ("status", "error", "final_world", "final_epoch",
                "epoch_transitions", "recoveries", "wasted_iterations",
                "total_time_s")


def golden_key(cell: dict) -> str:
    """JSON key of one :data:`GOLDEN_CELLS` cell.

    Every cell runs invariant-checked at seed 0, which the key spells
    out; planner cells append ``-<algorithm>``, baseline cells
    ``-<backend>`` and spine cells ``-core<k>``.
    """
    key = (f"r{cell['ranks']}-s{cell['streams']}"
           f"-{'faults' if cell['faults'] else 'nofaults'}-inv-seed0")
    for field, default in (("algorithm", "ring"), ("backend", "aiacc")):
        if cell.get(field, default) != default:
            key += f"-{cell[field]}"
    core = cell.get("core_oversubscription", 1.0)
    if core != 1.0:
        key += f"-core{core:g}"
    return key


def golden_entry(cell: dict) -> dict:
    """Run one :data:`GOLDEN_CELLS` cell and return its pinned entry."""
    probe = run_probe(**cell, invariants=True, seed=0)
    return {"digest": probe.digest,
            "iteration_times_s": list(probe.iteration_times_s)}


def findings_key(cell: dict) -> str:
    """JSON key of one :data:`FINDINGS_CELLS` cell."""
    rank = cell["straggler_rank"]
    scenario = ("clean" if rank is None else
                f"straggler-r{rank}-x{cell['straggler_factor']:g}")
    return f"diag-{scenario}-seed{cell['seed']}"


def findings_entry(cell: dict) -> dict:
    """Diagnose one :data:`FINDINGS_CELLS` cell; return its pinned entry."""
    return dataclasses.asdict(diagnosis_probe(**cell))


def chaos_key(seed: int) -> str:
    """JSON key of one :data:`CHAOS_CELLS` seed."""
    return f"chaos-seed{seed}"


def chaos_entry(seed: int) -> dict:
    """Soak one chaos seed once; return its pinned outcome fields."""
    from repro.harness.chaos import run_chaos_case

    outcome, _result = run_chaos_case(seed)
    return {field: getattr(outcome, field) for field in CHAOS_FIELDS}


def cluster_key(cell: dict) -> str:
    """JSON key of one :data:`CLUSTER_CELLS` cell."""
    if "poisson_seed" in cell:
        return f"three-job-poisson-seed{cell['poisson_seed']}"
    return f"three-job-{'chaos' if cell['chaos'] else 'clean'}"


def cluster_entry(cell: dict) -> dict:
    """Run one cluster cell; return its cluster and per-job digests."""
    from repro.cluster.runtime import ClusterRuntime, three_job_scenario

    runtime = three_job_scenario(chaos=cell.get("chaos", False))
    if "poisson_seed" in cell:
        plan = FaultPlan.poisson(
            mtbf_s=0.5, horizon_s=6.0, num_nodes=2,
            seed=cell["poisson_seed"], kinds=(NodeCrash, *WINDOW_FAULTS))
        runtime = ClusterRuntime(runtime.specs, chaos={"jobA": plan})
    result = runtime.run()
    return {"cluster_digest": result.cluster_digest,
            "numeric_digests": {job_id: result.job_digest(job_id)
                                for job_id in result.jobs}}


#: How :func:`golden_report` reads each pin kind, keyed by a field only
#: that kind has: the word for what must hold, the fields that must
#: hold, and the field shown old -> new.
_REPORT_KINDS = {
    "iteration_times_s": ("times", ("iteration_times_s",), "digest"),
    "findings": ("count", ("findings",), "findings_digest"),
    "total_time_s": ("outcome", CHAOS_FIELDS, "status"),
    "numeric_digests": ("digests", ("cluster_digest", "numeric_digests"),
                        "cluster_digest"),
}


def golden_report(committed: t.Mapping[str, dict],
                  fresh: t.Mapping[str, dict]) -> list[str]:
    """One line per fresh entry, comparing it with the committed one.

    A golden entry's times, a findings entry's count, a chaos entry's
    outcome or a cluster entry's digests are ``held``, ``MOVED`` or
    ``new``; the line ends with the old -> new digest (chaos: status).
    """
    lines = []
    for key, entry in fresh.items():
        label, held_fields, shown = next(
            kind for marker, kind in _REPORT_KINDS.items()
            if marker in entry)
        old = committed.get(key)
        if old is None:
            state, old_shown = "new", "-"
        else:
            same = all(old[f] == entry[f] for f in held_fields)
            state = "held" if same else "MOVED"
            old_shown = old[shown]
        lines.append(f"{key}: {label} {state}, {shown} {old_shown} -> "
                     f"{entry[shown]}")
    return lines


def _fault_layout(ranks: int) -> int:
    """GPUs per node for the fault probe (needs >= 2 whole nodes)."""
    return min(8, require_count("fault probe ranks", ranks, 2,
                                TrainingError) // 2)


def run_probe(ranks: int, streams: int = 4, faults: bool = False,
              invariants: bool = True, seed: int = 0,
              iterations: int = 2, model: str = PROBE_MODEL,
              algorithm: str = "ring",
              backend: str = "aiacc",
              core_oversubscription: float = 1.0) -> DeterminismProbe:
    """Run one matrix cell and return its digest + iteration times.

    ``streams`` and ``algorithm`` configure the AIACC engine; any other
    ``backend`` runs with its default settings and ignores them.
    ``core_oversubscription`` above 1 puts the ranks behind a shared
    oversubscribed core link.
    """
    if faults:
        if (algorithm != "ring" or backend != "aiacc"
                or core_oversubscription != 1.0):
            raise TrainingError(
                "fault probes only cover the AIACC ring algorithm on a "
                "non-blocking fabric")
        result = _run_fault_probe(ranks, streams, invariants, seed,
                                  iterations, model)
    else:
        result = _run_clean_probe(ranks, streams, invariants, seed,
                                  iterations, model, algorithm, backend,
                                  core_oversubscription)
    return DeterminismProbe(digest=result.state_digest,
                            iteration_times_s=result.iteration_times_s)


def _run_clean_probe(ranks: int, streams: int, invariants: bool,
                     seed: int, iterations: int, model: str,
                     algorithm: str, backend: str,
                     core_oversubscription: float) -> ThroughputResult:
    if backend == "aiacc":
        comm = make_backend("aiacc", config=AIACCConfig(
            num_streams=streams, algorithm=algorithm))
    else:
        comm = make_backend(backend)
    return run_training(
        model, comm, ranks,
        measure_iterations=iterations, warmup_iterations=0,
        extra_forward_time_s=seed * SEED_JITTER_S,
        core_oversubscription=core_oversubscription,
        check_invariants=invariants)


def _run_fault_probe(ranks: int, streams: int, invariants: bool,
                     seed: int, iterations: int,
                     model: str) -> FaultInjectionResult:
    from repro.training.resilience import run_fault_injected_training

    gpus_per_node = _fault_layout(ranks)
    num_nodes = ranks // gpus_per_node
    # Seed-keyed single crash: victim node and crash time both derive
    # from the seed, so different seeds yield different fault timelines.
    victim = seed % num_nodes
    crash_at = 0.4 + 0.01 * (seed % 7)
    plan = FaultPlan([NodeCrash(at_s=crash_at, node=victim)])
    return run_fault_injected_training(
        model, plan, config=AIACCConfig(num_streams=streams),
        num_gpus=ranks, gpus_per_node=gpus_per_node,
        total_iterations=iterations,
        checkpoint_interval=max(1, iterations // 2),
        check_invariants=invariants)
