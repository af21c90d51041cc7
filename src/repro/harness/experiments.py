"""Experiment definitions: one function per paper table/figure.

Each function runs the relevant simulations and returns a list of row
dicts; the benchmarks in ``benchmarks/`` drive these, assert the paper's
shape criteria, and persist the regenerated tables.

The AIACC configuration per deployment comes from
:func:`tuned_aiacc_config`, a deterministic heuristic matching what the
auto-tuner converges to (streams grow with node count; granularity larger
for Transformer-family models — paper §VIII-D); the autotuner experiment
itself runs the real ensemble search.
"""

from __future__ import annotations

import inspect
import math
import typing as t

from repro.core.runtime import AIACCConfig
from repro.errors import TrainingError
from repro.frameworks import make_backend
from repro.models.base import ModelSpec
from repro.models.zoo import get_model
from repro.obs import Observability
from repro.sim.rdma import RDMA, RDMA_DEFAULT_BANDWIDTH_BPS
from repro.sim.tcp import TCP
from repro.training.convergence import time_to_accuracy
from repro.training.hybrid import run_hybrid_training
from repro.training.trainer import ThroughputResult, run_training

#: GPU counts of the paper's scalability axes (8 GPUs per node).
SCALE_AXIS = (8, 16, 32, 64, 128, 256)

#: Backends in the paper's Fig. 9/10 comparison.
PYTORCH_BACKENDS = ("aiacc", "horovod", "pytorch-ddp", "byteps")

#: Declarative axes of the paper's figure sweeps (Figs. 9-13).
#:
#: One source of truth consumed both by the in-process harness
#: functions below and by the campaign service
#: (:func:`repro.campaign.grid.figures_grids`), so ``python -m repro
#: campaign run --grid figures`` regenerates exactly the published
#: cells — each one a durable, individually retryable run.
FIGURE_SWEEPS: dict[str, dict] = {
    "fig9": {"models": ("vgg16", "resnet50", "resnet101"),
             "backends": PYTORCH_BACKENDS, "gpus": SCALE_AXIS},
    "fig10": {"models": ("transformer", "bert-large"),
              "backends": PYTORCH_BACKENDS, "gpus": SCALE_AXIS},
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
            full_link: bool = False,
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
        representative=False
        if _checked("full_link", full_link, "flag") else None,
        obs=obs)


def measure_hybrid(model: str, backend: str, gpus: int,
                   model_parallel_degree: int = 2) -> ThroughputResult:
    """One hybrid data+model-parallel measurement (Fig. 13).

    The same protocol as :func:`measure` (one warm-up iteration, then
    the mean of three), with aiacc on its :func:`tuned_aiacc_config`
    setting.  Fig. 13 and campaign ``hybrid`` cells both call it.
    """
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
# Main throughput figures
# --------------------------------------------------------------------------

def throughput_matrix(models: t.Sequence[str],
                      backends: t.Sequence[str] = PYTORCH_BACKENDS,
                      gpu_counts: t.Sequence[int] = SCALE_AXIS,
                      **measure_kwargs: t.Any) -> list[dict]:
    """Generic (model x backend x #GPUs) throughput sweep."""
    rows = []
    for model in models:
        for gpus in gpu_counts:
            row: dict[str, object] = {"model": model, "gpus": gpus}
            for backend in backends:
                result = measure(model, backend, gpus, **measure_kwargs)
                row[backend] = result.throughput
                row[f"{backend}_eff"] = result.scaling_efficiency
            rows.append(row)
    return rows


def fig9_cv_pytorch(gpu_counts: t.Sequence[int] | None = None) -> list[dict]:
    """Fig. 9: PyTorch CV models, all four backends."""
    sweep = FIGURE_SWEEPS["fig9"]
    return throughput_matrix(sweep["models"], backends=sweep["backends"],
                             gpu_counts=gpu_counts or sweep["gpus"])


def fig10_nlp_pytorch(gpu_counts: t.Sequence[int] | None = None
                      ) -> list[dict]:
    """Fig. 10: PyTorch NLP models, all four backends."""
    sweep = FIGURE_SWEEPS["fig10"]
    return throughput_matrix(sweep["models"], backends=sweep["backends"],
                             gpu_counts=gpu_counts or sweep["gpus"])


def fig11_tensorflow(gpu_counts: t.Sequence[int] | None = None
                     ) -> list[dict]:
    """Fig. 11: TensorFlow models — AIACC vs. Horovod all-reduce.

    TensorFlow's distribution path is Horovod's all-reduce engine; the
    unified AIACC library applies the identical optimization, so the
    backend pair is (aiacc, horovod) over the TF workloads.
    """
    sweep = FIGURE_SWEEPS["fig11"]
    return throughput_matrix(sweep["models"], backends=sweep["backends"],
                             gpu_counts=gpu_counts or sweep["gpus"])


def fig12_mxnet(gpu_counts: t.Sequence[int] | None = None) -> list[dict]:
    """Fig. 12: MXNet models — AIACC vs. the native KVStore PS."""
    sweep = FIGURE_SWEEPS["fig12"]
    return throughput_matrix(sweep["models"], backends=sweep["backends"],
                             gpu_counts=gpu_counts or sweep["gpus"])


# --------------------------------------------------------------------------
# Further analysis (§VIII-D)
# --------------------------------------------------------------------------

def fig13_hybrid(gpu_counts: t.Sequence[int] | None = None
                 ) -> list[dict]:
    """Fig. 13: hybrid data+model parallelism, AIACC vs MXNet KVStore."""
    rows = []
    for gpus in gpu_counts or FIGURE_SWEEPS["fig13"]["gpus"]:
        aiacc = measure_hybrid("resnet50", "aiacc", gpus)
        kvstore = measure_hybrid("resnet50", "mxnet-kvstore", gpus)
        rows.append({
            "gpus": gpus,
            "aiacc": aiacc.throughput,
            "mxnet-kvstore": kvstore.throughput,
            "speedup": aiacc.throughput / kvstore.throughput,
        })
    return rows


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
