"""Paper experiments and the registry of their committed tables.

Each experiment function runs the relevant simulations and returns a
list of row dicts.  :data:`EXPERIMENTS` declares every committed
``results/<stem>.md`` table once: its title, columns, optional chart
and row function.  ``python -m repro bench <stem>|all`` and the shape
tests in ``benchmarks/`` both write tables through it.  Figs. 9-13 have
no function of their own: :func:`figure_rows` pivots the campaign
``figures`` grid cells into their rows.

The AIACC configuration per deployment comes from
:func:`tuned_aiacc_config`, a deterministic heuristic matching what the
auto-tuner converges to (streams grow with node count; granularity larger
for Transformer-family models — paper §VIII-D); the autotuner experiment
itself runs the real ensemble search.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import pathlib
import typing as t

from repro.core.runtime import AIACCConfig
from repro.errors import TrainingError
from repro.frameworks import make_backend
from repro.harness.report import format_table, save_report
from repro.models.base import ModelSpec
from repro.models.zoo import get_model, table1
from repro.obs import Observability
from repro.sim.rdma import RDMA, RDMA_DEFAULT_BANDWIDTH_BPS
from repro.sim.tcp import TCP
from repro.training.convergence import time_to_accuracy
from repro.training.hybrid import run_hybrid_training
from repro.training.trainer import ThroughputResult, run_training

if t.TYPE_CHECKING:
    from repro.campaign.grid import RunSpec
    from repro.sim.faults import FaultPlan
    from repro.training.resilience import (
        FaultInjectionResult,
        ResilienceResult,
    )

#: GPU counts of the paper's scalability axes (8 GPUs per node).
SCALE_AXIS = (8, 16, 32, 64, 128, 256)

#: Backends in the paper's Fig. 9/10 comparison.
PYTORCH_BACKENDS = ("aiacc", "horovod", "pytorch-ddp", "byteps")

#: Declarative axes of the paper's figure sweeps (Figs. 9-13).
#:
#: The campaign service expands them into cells
#: (:func:`repro.campaign.grid.figures_grids`), each one a durable,
#: individually retryable run, and :func:`figure_rows` pivots those
#: cells into the published tables.
FIGURE_SWEEPS: dict[str, dict] = {
    "fig9": {"models": ("vgg16", "resnet50", "resnet101"),
             "backends": PYTORCH_BACKENDS, "gpus": SCALE_AXIS},
    "fig10": {"models": ("transformer", "bert-large"),
              "backends": PYTORCH_BACKENDS, "gpus": SCALE_AXIS},
    # TensorFlow's distribution path is Horovod's all-reduce engine, and
    # the unified AIACC library applies the same optimization there.
    "fig11": {"models": ("vgg16", "resnet50", "bert-large"),
              "backends": ("aiacc", "horovod"), "gpus": SCALE_AXIS},
    "fig12": {"models": ("vgg16", "resnet50"),
              "backends": ("aiacc", "mxnet-kvstore"), "gpus": SCALE_AXIS},
    "fig13": {"models": ("resnet50",),
              "backends": ("aiacc", "mxnet-kvstore"),
              "gpus": (8, 16, 32, 64), "runner": "hybrid",
              "base": {"model_parallel_degree": 2}},
}


def tuned_aiacc_config(model: str | ModelSpec,
                       num_gpus: int) -> AIACCConfig:
    """Heuristic stand-in for the auto-tuner's converged setting.

    Streams scale with node count ("AIACC-Training tends to use a larger
    number of CUDA streams when a higher number of GPUs is available");
    granularity is larger for Transformer-family workloads ("the chosen
    communication granularity is larger for the Transformer-based model").
    """
    spec = get_model(model) if isinstance(model, str) else model
    nodes = max(1, num_gpus // 8)
    streams = min(24, max(2, 2 * nodes))
    if spec.category == "NLP":
        granularity = 32e6
    elif spec.category == "CTR":
        granularity = 4e6
    else:
        granularity = 8e6
    return AIACCConfig(num_streams=streams, granularity_bytes=granularity)


#: Kinds of ``measure`` parameter value :func:`_checked` accepts.
_KINDS = {"count": "whole number >= 1", "finite": "finite number",
          "flag": "bool"}


def _checked(name: str, value: t.Any, kind: str) -> t.Any:
    """``value`` if it is of ``kind`` (see :data:`_KINDS`), a count as an
    int; bools are not numbers and strings are neither."""
    if kind == "flag":
        valid = isinstance(value, bool)
    else:
        valid = isinstance(value, (int, float)) \
            and not isinstance(value, bool) and math.isfinite(value) \
            and (kind == "finite" or (value >= 1 and value == int(value)))
    if not valid:
        raise TrainingError(
            f"{name} must be a {_KINDS[kind]}, got {value!r}")
    return int(value) if kind == "count" else value


def measure(model: str | ModelSpec, backend: str, gpus: int,
            batch_per_gpu: int | None = None, *,
            streams: int | None = None,
            granularity_mb: float | None = None,
            algorithm: str | None = None,
            rdma: bool = False,
            iterations: int = 3,
            congested: bool = False,
            core_oversubscription: float = 1.0,
            obs: Observability | None = None) -> ThroughputResult:
    """One steady-state throughput measurement (§VII-D protocol).

    One warm-up iteration, then the mean of ``iterations``.  The only
    code that turns ``measure`` campaign-cell parameters into a run:
    ``repro train``, the harness figures, campaign cells and scenario
    ``diagnose`` all call it, so a printed ``spec_id`` replays its run.
    The keywords are the cell parameters tabled in ``docs/campaigns.md``;
    malformed values raise :class:`~repro.errors.TrainingError`.
    """
    gpus = _checked("gpus", gpus, "count")
    spec = get_model(model) if isinstance(model, str) else model
    if batch_per_gpu is not None:
        batch_per_gpu = _checked("batch_per_gpu", batch_per_gpu, "count")
    tuning = {"streams": streams, "granularity_mb": granularity_mb,
              "algorithm": algorithm}
    if backend == "aiacc":
        overrides: dict[str, t.Any] = {}
        if streams is not None:
            overrides["num_streams"] = _checked("streams", streams, "count")
        if granularity_mb is not None:
            overrides["granularity_bytes"] = \
                _checked("granularity_mb", granularity_mb, "finite") * 1e6
        if algorithm is not None:
            overrides["algorithm"] = algorithm
        engine: t.Any = make_backend("aiacc", config=tuned_aiacc_config(
            spec, gpus).replace(**overrides))
    elif any(value is not None for value in tuning.values()):
        raise TrainingError(
            f"{', '.join(k for k, v in tuning.items() if v is not None)} "
            f"only apply to the aiacc backend, not {backend!r}")
    else:
        engine = make_backend(backend)
    rdma = _checked("rdma", rdma, "flag")
    return run_training(
        spec, engine, gpus, batch_per_gpu=batch_per_gpu,
        measure_iterations=_checked("iterations", iterations, "count"),
        warmup_iterations=1,
        transport=RDMA if rdma else TCP,
        nic_bandwidth_bps=RDMA_DEFAULT_BANDWIDTH_BPS if rdma else 30e9,
        congested_links={0: 0.9}
        if _checked("congested", congested, "flag") else None,
        core_oversubscription=_checked(
            "core_oversubscription", core_oversubscription, "finite"),
        obs=obs)


def measure_hybrid(model: str, backend: str, gpus: int,
                   model_parallel_degree: int = 2) -> ThroughputResult:
    """One hybrid data+model-parallel measurement (Fig. 13).

    The same protocol as :func:`measure` (one warm-up iteration, then
    the mean of three), with aiacc on its :func:`tuned_aiacc_config`
    setting.  Fig. 13 and campaign ``hybrid`` cells both call it.
    """
    gpus = _checked("gpus", gpus, "count")
    model_parallel_degree = _checked(
        "model_parallel_degree", model_parallel_degree, "count")
    engine = make_backend("aiacc", config=tuned_aiacc_config(model, gpus)) \
        if backend == "aiacc" else make_backend(backend)
    return run_hybrid_training(
        model, engine, gpus, model_parallel_degree=model_parallel_degree,
        measure_iterations=3, warmup_iterations=1)


#: Every ``measure`` campaign-cell parameter: :func:`measure`'s keywords.
MEASURE_PARAMS = tuple(name for name in inspect.signature(measure).parameters
                       if name != "obs")


# --------------------------------------------------------------------------
# Motivation and microbenchmarks
# --------------------------------------------------------------------------

def fig2_motivation(gpu_counts: t.Sequence[int] = (1, 8, 16, 32)
                    ) -> list[dict]:
    """Fig. 2: Horovod throughput vs. the theoretical linear speedup."""
    rows = []
    single: float | None = None
    for gpus in gpu_counts:
        result = measure("resnet50", "horovod", gpus)
        if single is None:
            single = result.single_gpu_throughput
        rows.append({
            "gpus": gpus,
            "horovod_throughput": result.throughput,
            "linear_throughput": single * gpus,
            "scaling_efficiency": result.throughput / (single * gpus),
        })
    return rows


def bandwidth_utilization(streams_axis: t.Sequence[int] = (1, 2, 4, 8, 16)
                          ) -> list[dict]:
    """§III claim: one TCP stream reaches ≤30% of the link bandwidth."""
    from repro.collectives import TimedCollectives
    from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster

    rows = []
    size = 240e6
    for streams in streams_axis:
        sim = Simulator()
        net = FluidNetwork(sim)
        cluster = alibaba_v100_cluster(sim, 16)
        timed = TimedCollectives(sim, net, cluster)
        events = [timed.allreduce(size / streams) for _ in range(streams)]
        sim.run(until=sim.all_of(events))
        raw_bandwidth = 30e9
        hop_bits = 2 * size * (15 / 16) * 8
        utilization = hop_bits / sim.now / raw_bandwidth
        rows.append({
            "streams": streams,
            "transfer_s": sim.now,
            "utilization": min(1.0, utilization),
        })
    return rows


# --------------------------------------------------------------------------
# Main throughput figures (Figs. 9-13)
# --------------------------------------------------------------------------

def figure_rows(cells: t.Iterable[RunSpec]) -> dict[str, list[dict]]:
    """Pivot Fig. 9-13 campaign cells into each figure's table rows.

    ``cells`` are :func:`~repro.campaign.grid.figures_grids` cells, or
    a subset of them.  Each one runs through its campaign runner, once
    per distinct :func:`~repro.campaign.grid.run_key`, so a point two
    figures share is simulated once.  A figure gets one row per
    (model, gpus) point, in :data:`FIGURE_SWEEPS` order.  The row holds
    each backend's throughput and, where the runner reports it, its
    scaling efficiency as ``<backend>_eff``.  A two-backend figure also
    gets aiacc's ``speedup`` over the other backend.
    """
    from repro.campaign.grid import run_key
    from repro.campaign.worker import RUNNERS, RunContext

    payloads: dict[str | None, t.Mapping[str, t.Any]] = {}
    points: dict[str, dict[tuple, dict]] = {}
    for cell in cells:
        params = cell.params
        key = run_key(cell.runner, params)
        if key not in payloads:
            payloads[key] = RUNNERS[cell.runner](dict(params), RunContext(
                attempt=1, spec_id=cell.spec_id, campaign_id=0))
        payload = payloads[key]
        model, gpus = params["model"], params["gpus"]
        row = points.setdefault(t.cast(str, params["figure"]), {}) \
            .setdefault((model, gpus), {"model": model, "gpus": gpus})
        backend = params["backend"]
        row[backend] = payload["throughput"]
        if "scaling_efficiency" in payload:
            row[f"{backend}_eff"] = payload["scaling_efficiency"]
    tables = {}
    for figure, by_point in points.items():
        sweep = FIGURE_SWEEPS[figure]
        rows = [by_point[point] for point in
                itertools.product(sweep["models"], sweep["gpus"])
                if point in by_point]
        if len(sweep["backends"]) == 2:
            other = sweep["backends"][1]
            for row in rows:
                row["speedup"] = row["aiacc"] / row[other]
        tables[figure] = rows
    return tables


# --------------------------------------------------------------------------
# Further analysis (§VIII-D)
# --------------------------------------------------------------------------

def fig14_batchsize(batch_sizes: t.Sequence[int] = (2, 4, 8, 16, 32, 64),
                    num_gpus: int = 16) -> list[dict]:
    """Fig. 14: BERT-Large speedup over Horovod vs. per-GPU batch size."""
    rows = []
    for batch in batch_sizes:
        aiacc = measure("bert-large", "aiacc", num_gpus,
                        batch_per_gpu=batch)
        horovod = measure("bert-large", "horovod", num_gpus,
                          batch_per_gpu=batch)
        rows.append({
            "batch_per_gpu": batch,
            "aiacc": aiacc.throughput,
            "horovod": horovod.throughput,
            "speedup": aiacc.throughput / horovod.throughput,
        })
    return rows


def fig15_rdma(models: t.Sequence[str] = ("resnet50", "vgg16",
                                          "bert-large", "gpt2-xl"),
               num_gpus: int = 64) -> list[dict]:
    """Fig. 15: RDMA nodes (64 GPUs), speedup over PyTorch-DDP."""
    rows = []
    for model in models:
        aiacc = measure(model, "aiacc", num_gpus, rdma=True)
        ddp = measure(model, "pytorch-ddp", num_gpus, rdma=True)
        rows.append({
            "model": model,
            "aiacc": aiacc.throughput,
            "pytorch-ddp": ddp.throughput,
            "speedup": aiacc.throughput / ddp.throughput,
        })
    return rows


def scaling_efficiency_summary() -> list[dict]:
    """§VIII-A text claims: efficiencies and speedups at 32/256 GPUs."""
    rows = []
    for model, gpus in (("resnet50", 32), ("vgg16", 32),
                        ("resnet50", 256), ("vgg16", 256)):
        aiacc = measure(model, "aiacc", gpus)
        horovod = measure(model, "horovod", gpus)
        ddp = measure(model, "pytorch-ddp", gpus)
        rows.append({
            "model": model,
            "gpus": gpus,
            "aiacc_eff": aiacc.scaling_efficiency,
            "horovod_eff": horovod.scaling_efficiency,
            "speedup_vs_horovod": aiacc.throughput / horovod.throughput,
            "speedup_vs_ddp": aiacc.throughput / ddp.throughput,
        })
    return rows


def ctr_production(num_gpus: int = 128) -> list[dict]:
    """§VIII-C: the production CTR workload, AIACC vs Horovod."""
    aiacc = measure("ctr", "aiacc", num_gpus)
    horovod = measure("ctr", "horovod", num_gpus)
    return [{
        "gpus": num_gpus,
        "aiacc_entries_per_s": aiacc.throughput,
        "horovod_entries_per_s": horovod.throughput,
        "speedup": aiacc.throughput / horovod.throughput,
    }]


def dawnbench(num_gpus: int = 128) -> list[dict]:
    """§VIII-C: DAWNBench time/cost to 93% top-5 on ImageNet."""
    aiacc = measure("resnet50", "aiacc", num_gpus)
    tta = time_to_accuracy(aiacc.throughput, num_gpus)
    return [{
        "gpus": num_gpus,
        "throughput": aiacc.throughput,
        "train_seconds": tta.train_seconds,
        "instances": tta.num_instances,
        "cost_usd": tta.cost_usd,
    }]


def autotune_parameters(deployments: t.Sequence[tuple[str, int]] = (
        ("resnet50", 16), ("resnet50", 128), ("bert-large", 64)),
        budget: int = 30) -> list[dict]:
    """§VIII-D: what the real auto-tuner chooses per deployment."""
    from repro.autotune import AutoTuner, make_evaluator

    rows = []
    for model, gpus in deployments:
        tuner = AutoTuner(budget=budget, seed=0)
        result = tuner.tune(make_evaluator(model, gpus))
        rows.append({
            "model": model,
            "gpus": gpus,
            "streams": result.best_point.num_streams,
            "granularity_mb": result.best_point.granularity_bytes / 1e6,
            "algorithm": result.best_point.algorithm,
            "iteration_s": result.best_cost_s,
        })
    return rows


def congested_algorithm_choice(num_gpus: int = 32,
                               congestion: float = 0.25) -> list[dict]:
    """§V-B: the hierarchical ("tree") all-reduce pays off on congested
    links.

    "[The tree all-reduce] is useful when some of the physical network
    links become congested due to burst communications from other shared
    cloud users."  Compares ring vs hierarchical AIACC iterations on a
    healthy fabric and on one with a congested node NIC.
    """
    rows = []
    for scenario, links in (("healthy", None),
                            ("congested", {1: congestion})):
        times: dict[str, float] = {}
        for algorithm in ("ring", "hierarchical"):
            config = AIACCConfig(num_streams=16, granularity_bytes=8e6,
                                 algorithm=algorithm)
            result = run_training(
                "resnet50", make_backend("aiacc", config=config),
                num_gpus, measure_iterations=2, warmup_iterations=1,
                congested_links=links)
            times[algorithm] = result.mean_iteration_s
        rows.append({
            "scenario": scenario,
            "ring_iteration_s": times["ring"],
            "hierarchical_iteration_s": times["hierarchical"],
            "hierarchical_speedup": times["ring"] / times["hierarchical"],
        })
    return rows


def planner_backend_sweep(num_gpus: int = 32,
                          size_bytes: float = 100e6,
                          oversubscription: float = 4.0) -> list[dict]:
    """§V: planner-synthesized backends vs the built-in all-reduces.

    Times one steady-state all-reduce per algorithm — flat ring,
    hierarchical, and the three planner schedules (halving-doubling,
    multi-tree, in-network aggregation) — on a healthy fabric and on a
    leaf-spine core oversubscribed ``oversubscription``:1.  The ``ina``
    backend pushes ~S(1+1/m) bytes per node through the core instead of
    the ring's ~2S, so it should win exactly when the spine is the
    bottleneck and lose when the NICs are.
    """
    from repro.collectives.timed import ALGORITHMS, TimedCollectives
    from repro.sim.kernel import Simulator
    from repro.sim.network import FluidNetwork
    from repro.sim.topology import alibaba_v100_cluster

    rows = []
    for scenario, over in (("healthy", 1.0),
                           ("oversubscribed", oversubscription)):
        times: dict[str, float] = {}
        for algorithm in ALGORITHMS:
            sim = Simulator()
            cluster = alibaba_v100_cluster(
                sim, num_gpus, core_oversubscription=over)
            timed = TimedCollectives(sim, FluidNetwork(sim), cluster)
            done = timed.allreduce(size_bytes, algorithm=algorithm)
            sim.run(until=done)
            times[algorithm] = sim.now
        row: dict[str, t.Any] = {"scenario": scenario}
        row.update({f"{name}_ms": times[name] * 1e3
                    for name in ALGORITHMS})
        row["best"] = min(times, key=lambda name: times[name])
        rows.append(row)
    return rows


def insightface_speedup(num_gpus: int = 128) -> list[dict]:
    """§VIII-C: InsightFace face recognition, AIACC vs hand-tuned Horovod.

    "AIACC-Training improves the hand-tuned DDL code by 3.8x when using
    128 GPUs" — the 512 x 1M-identity ArcFace head makes this workload
    far more communication-bound than ImageNet ResNet-50.
    """
    aiacc = measure("insightface-r50", "aiacc", num_gpus)
    horovod = measure("insightface-r50", "horovod", num_gpus)
    return [{
        "gpus": num_gpus,
        "aiacc_images_per_s": aiacc.throughput,
        "horovod_images_per_s": horovod.throughput,
        "speedup": aiacc.throughput / horovod.throughput,
    }]


def future_gpu_whatif(num_gpus: int = 64) -> list[dict]:
    """§VIII-A what-if: "we expect AIACC-Training will deliver better
    performance on future high-end GPUs by leveraging the hardware
    parallelism."

    Swaps the V100 for an A100 (more SMs for concurrent communication
    streams, faster compute shrinking the overlap window) on the same
    30 Gbps network and compares the AIACC-vs-Horovod gap.
    """
    from repro.sim.cuda import A100, V100

    rows = []
    for label, gpu in (("V100", V100), ("A100", A100)):
        aiacc = run_training(
            "vgg16", make_backend(
                "aiacc", config=tuned_aiacc_config("vgg16", num_gpus)),
            num_gpus, measure_iterations=3, warmup_iterations=1,
            gpu_spec=gpu)
        horovod = run_training("vgg16", "horovod", num_gpus,
                               measure_iterations=3, warmup_iterations=1,
                               gpu_spec=gpu)
        rows.append({
            "gpu": label,
            "aiacc": aiacc.throughput,
            "horovod": horovod.throughput,
            "speedup": aiacc.throughput / horovod.throughput,
        })
    return rows


# --------------------------------------------------------------------------
# Ablations of the paper's three design decisions (DESIGN.md)
# --------------------------------------------------------------------------

def _aiacc_run(model: str, num_gpus: int,
               config: AIACCConfig) -> ThroughputResult:
    return run_training(model, make_backend("aiacc", config=config),
                        num_gpus, measure_iterations=2, warmup_iterations=1)


def ablation_streams() -> list[dict]:
    """Multi-streaming: VGG-16 on 64 GPUs vs the number of streams."""
    rows = []
    for streams in (1, 2, 4, 8, 16, 24):
        result = _aiacc_run("vgg16", 64, AIACCConfig(
            num_streams=streams, granularity_bytes=8e6))
        rows.append({"streams": streams,
                     "throughput": result.throughput,
                     "efficiency": result.scaling_efficiency})
    return rows


def ablation_granularity() -> list[dict]:
    """Adaptive packing: BERT-Large on 64 GPUs vs the all-reduce unit
    size."""
    rows = []
    for granularity in (1, 4, 16, 64, 256):
        result = _aiacc_run("bert-large", 64, AIACCConfig(
            num_streams=16, granularity_bytes=granularity * 1e6))
        rows.append({"granularity_mb": granularity,
                     "throughput": result.throughput})
    return rows


def ablation_sync() -> list[dict]:
    """Decentralized (AIACC) vs master-based (Horovod) negotiation on the
    gradient-count-heavy CTR workload, with the data plane equalised as
    far as the frameworks allow (single stream AIACC)."""
    aiacc = _aiacc_run("ctr", 128, AIACCConfig(
        num_streams=1, granularity_bytes=64e6))
    horovod = run_training("ctr", "horovod", 128,
                           measure_iterations=2, warmup_iterations=1)
    return [{
        "scheme": "decentralized (AIACC, 1 stream)",
        "iteration_s": aiacc.mean_iteration_s,
    }, {
        "scheme": "master-based (Horovod)",
        "iteration_s": horovod.mean_iteration_s,
    }]


def ablation_packing() -> list[dict]:
    """Tensor splitting on/off: VGG's 410 MB fc6 gradient with a packer
    that can slice it (16 MB units) vs Horovod-style whole-tensor
    transfers approximated by a huge granularity."""
    rows = []
    for label, granularity in (("split into 16MB units", 16e6),
                               ("whole tensors (256MB units)", 256e6)):
        result = _aiacc_run("vgg16", 64, AIACCConfig(
            num_streams=16, granularity_bytes=granularity))
        rows.append({"packing": label,
                     "throughput": result.throughput})
    return rows


def ablation_byteps_servers() -> list[dict]:
    """BytePS with/without dedicated CPU server machines (§VIII-A)."""
    from repro.frameworks import BytePSBackend

    rows = []
    for extra in (0, 2, 8, 16):
        result = run_training(
            "vgg16", BytePSBackend(extra_cpu_server_nodes=extra),
            64, measure_iterations=2, warmup_iterations=1)
        rows.append({"extra_cpu_servers": extra,
                     "throughput": result.throughput})
    return rows


# --------------------------------------------------------------------------
# Fault tolerance (§IV)
# --------------------------------------------------------------------------

def recovery_cell(model: str, gpus: int) -> dict[str, t.Any]:
    """The healthy ``measure`` cell that times a crash-recovery run:
    AIACC on the default engine settings, two measured iterations."""
    return {"model": model, "backend": "aiacc", "gpus": gpus,
            "streams": AIACCConfig.num_streams,
            "granularity_mb": AIACCConfig.granularity_bytes / 1e6,
            "iterations": 2}


def crash_recovery(cell: dict[str, t.Any],
                   plan: t.Callable[[float], FaultPlan],
                   iterations: int, checkpoint_interval: int,
                   **options: t.Any
                   ) -> tuple[FaultPlan, FaultInjectionResult,
                              ResilienceResult | None]:
    """A fault-injected run beside the closed-form walk of its failures.

    :func:`measure` of the healthy ``cell`` (see :func:`recovery_cell`)
    fixes the iteration time; ``plan`` turns it into the fault schedule.
    The event-driven run takes ``options`` as further keywords of
    :func:`~repro.training.resilience.run_fault_injected_training`.  Each
    recovery's injection time, in iterations, is a failure index of the
    :func:`~repro.training.resilience.simulate_resilient_training` walk.
    Returns the plan, the run and the walk (``None`` when nothing was
    recovered).
    """
    from repro.training.resilience import (
        run_fault_injected_training,
        simulate_resilient_training,
    )

    iter_s = measure(**cell).mean_iteration_s
    faults = plan(iter_s)
    result = run_fault_injected_training(
        cell["model"], faults, num_gpus=cell["gpus"],
        total_iterations=iterations,
        checkpoint_interval=checkpoint_interval, obs=Observability(),
        **options)
    failure_at = sorted({min(int(rec.injected_at_s // iter_s),
                             iterations - 1) for rec in result.recoveries})
    analytical = simulate_resilient_training(
        cell["model"], iter_s, iterations, checkpoint_interval,
        failure_at=failure_at) if failure_at else None
    return faults, result, analytical


def crash_recovery_run() -> tuple[FaultInjectionResult,
                                  ResilienceResult | None]:
    """A node crash mid-allreduce in a 16-worker AIACC run (§IV).

    Node 1 dies 40% into iteration 9: mid-allreduce, past the checkpoint
    written after iteration 5, in a 20-iteration run.  Returns the
    event-driven run and the closed-form walk of :func:`crash_recovery`.
    """
    from repro.sim.faults import FaultPlan, NodeCrash

    _, result, analytical = crash_recovery(
        recovery_cell("resnet50", 16),
        lambda iter_s: FaultPlan([NodeCrash(at_s=8.4 * iter_s, node=1)]),
        iterations=20, checkpoint_interval=5)
    return result, analytical


def fault_recovery_rows(result: FaultInjectionResult,
                        analytical: ResilienceResult) -> list[dict]:
    """The recovery trajectory of a :func:`crash_recovery_run`."""
    return [{
        "model": result.model,
        "workers": f"{result.initial_num_gpus} -> {result.final_num_gpus}",
        "detection_s": round(rec.detection_latency_s, 2),
        "rebuild_s": round(rec.rebuild_time_s, 1),
        "lost_iters": rec.lost_iterations,
        "goodput": round(result.goodput, 3),
        "analytical": round(analytical.goodput, 3),
    } for rec in result.recoveries]


# --------------------------------------------------------------------------
# The registry: one entry per committed results/ table
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Experiment:
    """One paper table, committed as ``results/<stem>.md``.

    ``rows`` builds the table's rows.  A Fig. 9-13 entry names its
    :data:`FIGURE_SWEEPS` key in ``figure`` instead, and its rows come
    from :func:`figure_rows`.  ``columns`` picks and orders the rendered
    columns (default: the first row's keys).  ``chart`` is the
    ``(label_key, value_keys)`` bar chart ``repro bench`` also prints.
    """

    title: str
    rows: t.Callable[[], list[dict]] | None = None
    columns: tuple[str, ...] | None = None
    chart: tuple[str, tuple[str, ...]] | None = None
    figure: str | None = None


_ALLREDUCE_COLUMNS = ("model", "gpus", "aiacc", "horovod", "pytorch-ddp",
                      "byteps", "aiacc_eff", "horovod_eff")

#: results/ stem -> its table.  ``repro bench`` and the shape tests in
#: ``benchmarks/`` both write through this registry.
EXPERIMENTS: dict[str, Experiment] = {
    "table1_models": Experiment(
        "Table I: DNN model characteristics", table1),
    "fig02_motivation": Experiment(
        "Fig. 2: Horovod vs linear scaling (ResNet-50)", fig2_motivation,
        chart=("gpus", ("horovod_throughput", "linear_throughput"))),
    "bandwidth_utilization": Experiment(
        "TCP utilisation vs number of concurrent streams (§III)",
        bandwidth_utilization, chart=("streams", ("utilization",))),
    "fig09_cv_pytorch": Experiment(
        "Fig. 9: PyTorch CV model throughput", figure="fig9",
        columns=_ALLREDUCE_COLUMNS),
    "fig10_nlp_pytorch": Experiment(
        "Fig. 10: PyTorch NLP model throughput", figure="fig10",
        columns=_ALLREDUCE_COLUMNS),
    "fig11_tensorflow": Experiment(
        "Fig. 11: TensorFlow throughput (AIACC vs Horovod engine)",
        figure="fig11", columns=("model", "gpus", "aiacc", "horovod",
                                 "aiacc_eff", "horovod_eff")),
    "fig12_mxnet": Experiment(
        "Fig. 12: MXNet throughput (AIACC vs KVStore PS)", figure="fig12",
        columns=("model", "gpus", "aiacc", "mxnet-kvstore", "aiacc_eff",
                 "mxnet-kvstore_eff")),
    "fig13_hybrid": Experiment(
        "Fig. 13: hybrid data+model parallelism (ResNet-50)",
        figure="fig13",
        columns=("gpus", "aiacc", "mxnet-kvstore", "speedup"),
        chart=("gpus", ("aiacc", "mxnet-kvstore"))),
    "fig14_batchsize": Experiment(
        "Fig. 14: BERT-Large speedup over Horovod vs batch size",
        fig14_batchsize, chart=("batch_per_gpu", ("speedup",))),
    "fig15_rdma": Experiment(
        "Fig. 15: RDMA (64 GPUs), speedup over PyTorch-DDP", fig15_rdma,
        chart=("model", ("speedup",))),
    "scaling_efficiency": Experiment(
        "Scaling efficiency and speedups (§VIII-A)",
        scaling_efficiency_summary),
    "future_gpu": Experiment(
        "What-if: V100 vs A100 (VGG-16, 64 GPUs, 30 Gbps TCP)",
        future_gpu_whatif),
    "ctr_production": Experiment(
        "Production CTR workload (128 GPUs)", ctr_production),
    "dawnbench": Experiment(
        "DAWNBench: ResNet-50 to 93% top-5 (128 GPUs)", dawnbench),
    "insightface": Experiment(
        "InsightFace face recognition (128 GPUs)", insightface_speedup),
    "autotune_params": Experiment(
        "Auto-tuned communication parameters (§VIII-D)",
        autotune_parameters),
    "congested_algorithm": Experiment(
        "Ring vs hierarchical all-reduce under congestion (§V-B)",
        congested_algorithm_choice,
        chart=("scenario", ("hierarchical_speedup",))),
    "planner_backends": Experiment(
        "Planner backends vs spine oversubscription (§V)",
        planner_backend_sweep,
        chart=("scenario", ("ring_ms", "hierarchical_ms", "ina_ms"))),
    "fault_recovery": Experiment(
        "Self-healing recovery from an injected node crash "
        "(16 workers, crash mid-allreduce)",
        lambda: fault_recovery_rows(*crash_recovery_run())),
    "ablation_streams": Experiment(
        "Ablation: number of communication streams (VGG-16, 64 GPUs)",
        ablation_streams),
    "ablation_granularity": Experiment(
        "Ablation: all-reduce unit granularity (BERT-Large, 64 GPUs)",
        ablation_granularity),
    "ablation_sync": Experiment(
        "Ablation: decentralized vs master-based synchronization "
        "(CTR, 128 GPUs)", ablation_sync),
    "ablation_packing": Experiment(
        "Ablation: tensor splitting (VGG-16, 64 GPUs)", ablation_packing),
    "ablation_byteps_servers": Experiment(
        "Ablation: BytePS dedicated CPU servers (VGG-16, 64 GPUs)",
        ablation_byteps_servers),
}


def experiment_rows(stems: t.Sequence[str]
                    ) -> t.Iterator[tuple[str, list[dict]]]:
    """``(stem, rows)`` for each of ``stems``, in order.

    The Fig. 9-13 stems among them share one :func:`figure_rows` call
    over their :func:`~repro.campaign.grid.figures_grids` cells, made
    when the first of them comes up.
    """
    from repro.campaign.grid import expand_grids, figures_grids

    figures = {EXPERIMENTS[stem].figure for stem in stems} - {None}
    pivoted: dict[str, list[dict]] | None = None
    for stem in stems:
        experiment = EXPERIMENTS[stem]
        if experiment.figure is None:
            yield stem, t.cast(t.Callable[[], list[dict]], experiment.rows)()
            continue
        if pivoted is None:
            pivoted = figure_rows(
                cell for cell in expand_grids(figures_grids())
                if cell.params["figure"] in figures)
        yield stem, pivoted[experiment.figure]


def write_table(stem: str, rows: t.Sequence[dict],
                directory: str | pathlib.Path = "results") -> str:
    """Write ``rows`` as ``stem``'s table to ``directory/<stem>.md``.

    Returns the rendered table.
    """
    experiment = EXPERIMENTS[stem]
    table = format_table(rows, columns=experiment.columns,
                         title=experiment.title)
    save_report(stem, table, directory=directory)
    return table
