"""One input policy: every count, real and fraction check at an entry point.

Each row of :data:`SITES` names one check that a constructor,
``__post_init__`` or public entry point makes through
:func:`repro.errors.require_count` or :func:`repro.errors.require_real`,
a call that feeds it one value, and the site's typed error.  Counts get
NaN, inf, a negative value, ``2.5`` and ``True``; reals get NaN, inf, a
negative value and ``True``.  :data:`CLI` drives the same checks through
``python -m repro`` and expects exit 1 with an ``error:`` line.
"""

import dataclasses
import math
import re
import tempfile

import pytest

from repro.autotune import SearchSpace
from repro.autotune.bandit import AUCBandit
from repro.autotune.cache import SettingsCache
from repro.autotune.hyperband import Hyperband
from repro.autotune.pbt import PopulationBasedTraining
from repro.autotune.tuner import AutoTuner
from repro.campaign.policy import RetryPolicy
from repro.campaign.runner import CampaignRunner
from repro.campaign.worker import RunContext, hybrid_runner, parse_fault_plan
from repro.cli import main
from repro.cluster.fabric import SharedFabric
from repro.cluster.jobs import JobSpec
from repro.cluster.runtime import ClusterConfig
from repro.cluster.scheduler import backoff_delay_s
from repro.collectives.cost_model import CostParams, ring_volume_bytes
from repro.collectives.planner import CollectivePlanner
from repro.collectives.primitives import chunk_bounds
from repro.core.elastic import ElasticRuntime, EpochTransition, MembershipView
from repro.core.engine import AIACCBackend
from repro.core.fault_tolerance import CheckpointManager
from repro.core.message_engine import run_message_level_iteration
from repro.core.packing import GradientPacker, TensorSlice
from repro.core.perseus import PerseusSession
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig
from repro.core.streams import CommStreamPool
from repro.core.synchronization import DecentralizedSynchronizer
from repro.core.translator import translate_sequential_source
from repro.errors import (
    AutotuneError,
    CampaignError,
    ClusterError,
    CollectiveError,
    FaultInjectionError,
    NetworkError,
    PackingError,
    RegistrationError,
    ReproError,
    SimulationError,
    SynchronizationError,
    TopologyError,
    TrainingError,
    TranslationError,
)
from repro.frameworks import (
    BytePSBackend,
    HorovodBackend,
    MXNetKVStoreBackend,
    PyTorchDDPBackend,
)
from repro.harness.chaos import run_chaos_case, run_chaos_soak
from repro.harness.determinism import _fault_layout
from repro.harness.experiments import measure_hybrid
from repro.harness.report import ascii_chart
from repro.models import ModelSpecError, get_model
from repro.models.base import LayerSpec, ParameterSpec
from repro.models.datasets import DatasetSpec
from repro.models.synthetic import random_model_spec
from repro.obs.critical_path import attribute_window
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.slo import SLO, job_slos
from repro.obs.timeline import StepTimeline
from repro.sim import Simulator, alibaba_v100_cluster
from repro.sim.cuda import V100, GPUDevice
from repro.sim.faults import (
    BandwidthDegradation,
    FaultPlan,
    LinkFlap,
    NodeCrash,
    Straggler,
)
from repro.sim.mpi import Communicator
from repro.sim.network import Link
from repro.sim.resources import Resource
from repro.sim.tcp import TCP
from repro.sim.topology import Cluster, NodeSpec
from repro.training.convergence import time_to_accuracy
from repro.training.hybrid import make_hybrid_plan
from repro.training.lr_schedule import LinearDecay
from repro.training.optimizer import SGD, Adam, AdamSGD
from repro.training.trainer import build_train_context, run_training

COUNT = (math.nan, math.inf, -1, 2.5, True)
REAL = (math.nan, math.inf, -1.0, True)

CTX = RunContext(attempt=1, spec_id="cell", campaign_id=1)
COST_PARAMS = dict(world_size=8, num_nodes=1, nic_stream_bps=1e9,
                   nic_total_bps=1e9, nvlink_bps=1e9, inter_alpha_s=1e-6)
TRANSITION = dict(epoch=1, at_s=0.0, kind="failure", departed=(0,),
                  joined=(), world_before=2, world_after=1,
                  live_continuation=False, broadcast_identical=None,
                  resumed_iteration=0, lr_scale=1.0, reconfigure_time_s=0.0)


def _lr_scale(world):
    with tempfile.TemporaryDirectory() as directory:
        ElasticRuntime(CheckpointManager(directory), [0, 1], 1) \
            .lr_scale(world)


def _synchronizer(epoch):
    sim = Simulator()
    registry = GradientRegistry()
    registry.register(ParameterSpec("w", 4))
    registry.freeze()
    DecentralizedSynchronizer(sim, Communicator(sim, size=1), 0, registry,
                              epoch=epoch)


def _train_context(**changes):
    ctx = build_train_context(get_model("resnet50"), HorovodBackend(), 8,
                              batch_per_gpu=32)
    dataclasses.replace(ctx, **changes)


def _fields(cls, names, error, values=REAL, **base):
    """One row per field of a dataclass-style constructor."""
    return [(f"{cls.__name__}.{name}", values,
             lambda v, name=name: cls(**{**base, name: v}), error)
            for name in names]


#: ``(site, bad values, call(value), typed error)``; the error message
#: names the value by the site's last word.
SITES = [
    # autotune
    ("AUCBandit.window", COUNT, lambda v: AUCBandit(["a"], window=v),
     AutotuneError),
    ("SettingsCache.max_entries", COUNT,
     lambda v: SettingsCache(max_entries=v), AutotuneError),
    ("Hyperband.eta", COUNT, lambda v: Hyperband(SearchSpace(), eta=v),
     AutotuneError),
    ("Hyperband.bracket_size", COUNT,
     lambda v: Hyperband(SearchSpace(), bracket_size=v), AutotuneError),
    ("PopulationBasedTraining.population_size", COUNT,
     lambda v: PopulationBasedTraining(SearchSpace(), population_size=v),
     AutotuneError),
    ("AutoTuner.budget", COUNT, lambda v: AutoTuner(budget=v),
     AutotuneError),
    ("AutoTuner.tune cost", REAL,
     lambda v: AutoTuner(budget=1).tune(lambda _point: v), AutotuneError),
    # campaign
    *_fields(RetryPolicy, ["max_attempts"], CampaignError, COUNT),
    *_fields(RetryPolicy, ["base_backoff_s", "max_backoff_s", "multiplier"],
             CampaignError),
    ("CampaignRunner.max_workers", COUNT,
     lambda v: CampaignRunner("c.db", 1, max_workers=v), CampaignError),
    ("CampaignRunner.lease_s", REAL,
     lambda v: CampaignRunner("c.db", 1, lease_s=v), CampaignError),
    ("CampaignRunner.poll_s", REAL,
     lambda v: CampaignRunner("c.db", 1, poll_s=v), CampaignError),
    ("CampaignRunner.run max_wall_s", REAL,
     lambda v: CampaignRunner("c.db", 1).run(max_wall_s=v), CampaignError),
    ("parse_fault_plan mtbf", REAL,
     lambda v: parse_fault_plan(f"chaos:mtbf={v}"), CampaignError),
    ("hybrid_runner.gpus", COUNT,
     lambda v: hybrid_runner({"model": "resnet50", "gpus": v}, CTX),
     TrainingError),
    ("measure_hybrid.gpus", COUNT,
     lambda v: measure_hybrid("resnet50", "aiacc", v), TrainingError),
    ("measure_hybrid.model_parallel_degree", COUNT,
     lambda v: measure_hybrid("resnet50", "aiacc", 8,
                              model_parallel_degree=v), TrainingError),
    # cluster
    ("SharedFabric.num_nodes", COUNT,
     lambda v: SharedFabric(Simulator(), v), ClusterError),
    *[(f"SharedFabric.{name}", REAL,
       lambda v, name=name: SharedFabric(Simulator(), 2, **{name: v}),
       ClusterError)
      for name in ("nic_bps", "core_oversubscription",
                   "stream_cap_fraction")],
    ("SharedFabric.scale_node_nic fraction", REAL,
     lambda v: SharedFabric(Simulator(), 2).scale_node_nic(0, v),
     ClusterError),
    *_fields(JobSpec, ["num_nodes", "steps", "num_streams"], ClusterError,
             COUNT, job_id="j"),
    *_fields(JobSpec, ["arrival_s", "priority", "compute_s",
                       "bytes_per_step"], ClusterError, job_id="j"),
    *_fields(ClusterConfig, ["num_nodes", "slo_window", "breach_patience",
                             "max_preemptions"], ClusterError, COUNT),
    *_fields(ClusterConfig, ["nic_bps", "admission_deadline_s",
                             "restart_overhead_s", "preempt_requeue_s",
                             "warm_start_max_distance",
                             "core_oversubscription", "stream_cap_fraction",
                             "slo_slack"], ClusterError),
    ("backoff_delay_s attempt", COUNT, backoff_delay_s, ClusterError),
    # collectives
    *_fields(CostParams, ["world_size", "num_nodes"], CollectiveError,
             COUNT, **COST_PARAMS),
    *_fields(CostParams, ["nic_stream_bps", "nic_total_bps", "nvlink_bps",
                          "core_bps", "inter_alpha_s", "intra_alpha_s",
                          "inter_latency_s"], CollectiveError,
             **COST_PARAMS),
    ("ring_volume_bytes.participants", COUNT,
     lambda v: ring_volume_bytes(1e6, v), CollectiveError),
    ("CollectivePlanner.ina_agg_bps", REAL,
     lambda v: CollectivePlanner(alibaba_v100_cluster(Simulator(), 16),
                                 ina_agg_bps=v), CollectiveError),
    ("chunk_bounds.total", COUNT, lambda v: chunk_bounds(v, 2),
     CollectiveError),
    ("chunk_bounds.parts", COUNT, lambda v: chunk_bounds(4, v),
     CollectiveError),
    # core
    *_fields(MembershipView, ["epoch", "gpus_per_node"], TrainingError,
             COUNT, epoch=0, members=(0,), gpus_per_node=1),
    *_fields(EpochTransition, ["world_before", "world_after"],
             TrainingError, COUNT, **TRANSITION),
    *_fields(EpochTransition, ["reconfigure_time_s"], TrainingError,
             **TRANSITION),
    ("ElasticRuntime.lr_scale world_size", COUNT, _lr_scale, TrainingError),
    ("AIACCBackend.advance_epoch epoch", COUNT,
     lambda v: AIACCBackend().advance_epoch(v), TrainingError),
    ("GradientPacker.granularity_bytes", REAL, GradientPacker,
     PackingError),
    *_fields(TensorSlice, ["offset", "nbytes"], PackingError, grad_id=0,
             offset=0.0, nbytes=1.0),
    ("PerseusSession.size", COUNT, PerseusSession, RegistrationError),
    *_fields(AIACCConfig, ["num_streams", "comm_retries"], ReproError,
             COUNT),
    *_fields(AIACCConfig, ["granularity_bytes", "sync_timeout_s",
                           "unit_timeout_s", "max_detection_deadline_s",
                           "retry_backoff_s"], ReproError),
    ("CommStreamPool.num_streams", COUNT,
     lambda v: CommStreamPool(Simulator(), GPUDevice(V100), v, 0.5),
     ReproError),
    ("CommStreamPool.start_unit streams", COUNT,
     lambda v: CommStreamPool(Simulator(), GPUDevice(V100), 2, 0.5)
     .start_unit(Simulator().event, v), SimulationError),
    ("DecentralizedSynchronizer.epoch", COUNT, _synchronizer,
     SynchronizationError),
    ("translate_sequential_source.num_workers", COUNT,
     lambda v: translate_sequential_source("x = 1", num_workers=v),
     TranslationError),
    ("run_message_level_iteration.compute_skew rank", COUNT,
     lambda v: run_message_level_iteration(get_model("resnet50"),
                                           compute_skew={v: 2.0}),
     TrainingError),
    ("run_message_level_iteration.compute_skew factor", REAL,
     lambda v: run_message_level_iteration(get_model("resnet50"),
                                           compute_skew={0: v}),
     TrainingError),
    # frameworks
    ("TrainContext.batch_per_gpu", COUNT,
     lambda v: _train_context(batch_per_gpu=v), TrainingError),
    ("TrainContext.extra_forward_time_s", REAL,
     lambda v: _train_context(extra_forward_time_s=v), TrainingError),
    *_fields(HorovodBackend, ["cycle_time_s", "fusion_buffer_bytes",
                              "master_service_per_worker_s",
                              "master_service_per_entry_s"], TrainingError),
    *_fields(PyTorchDDPBackend, ["bucket_bytes", "launch_overhead_s",
                                 "stream_cap_scale"], TrainingError),
    *_fields(BytePSBackend, ["num_connections", "extra_cpu_server_nodes"],
             TrainingError, COUNT),
    *_fields(BytePSBackend, ["partition_bytes", "server_overhead_s"],
             TrainingError),
    *_fields(MXNetKVStoreBackend, ["num_connections"], TrainingError, COUNT),
    *_fields(MXNetKVStoreBackend, ["per_key_overhead_s"], TrainingError),
    # harness
    *[(f"run_chaos_case.{name}", COUNT,
       lambda v, name=name: run_chaos_case(0, **{name: v}), ReproError)
      for name in ("num_gpus", "gpus_per_node", "total_iterations",
                   "checkpoint_interval")],
    ("run_chaos_soak.replays", COUNT,
     lambda v: run_chaos_soak([0], replays=v), ReproError),
    ("fault probe ranks", COUNT, _fault_layout, TrainingError),
    # The chart reads its values through float(), so True is a 1.
    ("ascii_chart peak", REAL[:3],
     lambda v: ascii_chart([{"label": "a", "value": v}], "label",
                           ["value"]), ReproError),
    # models
    ("ParameterSpec.num_elements", COUNT, lambda v: ParameterSpec("p", v),
     ModelSpecError),
    ("LayerSpec.forward_flops", REAL, lambda v: LayerSpec("l", (), v),
     ModelSpecError),
    ("ModelSpec.compute_occupancy", REAL,
     lambda v: dataclasses.replace(get_model("resnet50"),
                                   compute_occupancy=v), ModelSpecError),
    ("ModelSpec.scaled_to parameters", COUNT,
     lambda v: get_model("resnet50").scaled_to(v, 1e9), ModelSpecError),
    ("ModelSpec.scaled_to flops", REAL,
     lambda v: get_model("resnet50").scaled_to(1000, v), ModelSpecError),
    ("DatasetSpec.num_samples", COUNT,
     lambda v: DatasetSpec("d", v, "images"), ReproError),
    *[(f"random_model_spec.{name}", COUNT,
       lambda v, name=name: random_model_spec(0, **{name: v}), ReproError)
      for name in ("num_layers", "total_parameters")],
    *[(f"random_model_spec.{name}", REAL,
       lambda v, name=name: random_model_spec(0, **{name: v}), ReproError)
      for name in ("total_forward_flops", "size_spread")],
    # obs
    ("attribute_window.start", REAL,
     lambda v: attribute_window(StepTimeline(), 0, v, 1.0), ReproError),
    ("attribute_window.end", REAL,
     lambda v: attribute_window(StepTimeline(), 0, 0.0, v), ReproError),
    ("Metric.max_label_sets", COUNT,
     lambda v: Counter("c", max_label_sets=v), ReproError),
    ("Histogram.quantile", REAL,
     lambda v: MetricsRegistry().histogram("h").quantile(v), ReproError),
    *_fields(SLO, ["max_value", "min_value"], ReproError, name="s",
             metric="m"),
    *_fields(SLO, ["baseline_ratio"], ReproError, name="s", metric="m",
             baseline_key="k"),
    *_fields(SLO, ["quantile"], ReproError, name="s", metric="m",
             max_value=1.0, histogram="h"),
    ("job_slos.baseline_step_s", REAL, lambda v: job_slos("j", v),
     ReproError),
    ("job_slos.slack_ratio", REAL, lambda v: job_slos("j", 1.0, v),
     ReproError),
    # sim
    *[(f"GPUSpec.{name}", values,
       lambda v, name=name: dataclasses.replace(V100, **{name: v}),
       SimulationError)
      for name, values in (("peak_fp32_flops", REAL), ("sm_count", COUNT),
                           ("compute_efficiency", REAL))],
    ("GPUDevice.compute_time_s flops", REAL,
     lambda v: GPUDevice(V100).compute_time_s(v), SimulationError),
    ("GPUDevice.max_concurrent_comm_streams compute_occupancy",
     REAL,
     lambda v: GPUDevice(V100).max_concurrent_comm_streams(v),
     SimulationError),
    ("GPUDevice.effective_streams streams", COUNT,
     lambda v: GPUDevice(V100).effective_streams(v, 0.5), SimulationError),
    ("Simulator.run until", REAL, lambda v: Simulator().run(until=v),
     SimulationError),
    ("Communicator.size", COUNT, lambda v: Communicator(Simulator(), v),
     SimulationError),
    ("Communicator.connections_per_pair", COUNT,
     lambda v: Communicator(Simulator(), 1, connections_per_pair=v),
     SimulationError),
    ("Link.latency_s", REAL, lambda v: Link("l", 1e9, v), NetworkError),
    ("Resource.capacity", COUNT, lambda v: Resource(Simulator(), v),
     SimulationError),
    ("Resource.resize capacity", COUNT, lambda v: Resource(Simulator(), 1).resize(v),
     SimulationError),
    ("Resource.acquire count", COUNT,
     lambda v: Resource(Simulator(), 1).acquire(v), SimulationError),
    ("Resource.release count", COUNT,
     lambda v: Resource(Simulator(), 1).release(v), SimulationError),
    *_fields(NodeSpec, ["gpus_per_node"], TopologyError, COUNT),
    *_fields(NodeSpec, ["nic_bandwidth_bps"], TopologyError),
    ("Cluster.num_nodes", COUNT, lambda v: Cluster(Simulator(), v),
     TopologyError),
    ("Cluster.core_oversubscription", REAL,
     lambda v: Cluster(Simulator(), 2, core_oversubscription=v),
     TopologyError),
    ("Cluster.congested_links fraction", REAL,
     lambda v: Cluster(Simulator(), 2, congested_links={0: v}),
     TopologyError),
    ("alibaba_v100_cluster.num_gpus", COUNT,
     lambda v: alibaba_v100_cluster(Simulator(), v), TopologyError),
    *[(f"TransportModel.{name}", REAL,
       lambda v, name=name: dataclasses.replace(TCP, **{name: v}),
       NetworkError)
      for name in ("single_stream_efficiency", "aggregate_efficiency",
                   "per_message_overhead_s", "setup_latency_s")],
    *_fields(NodeCrash, ["at_s"], FaultInjectionError, node=0),
    *_fields(NodeCrash, ["node"], FaultInjectionError, COUNT, at_s=0.0),
    *_fields(LinkFlap, ["down_s"], FaultInjectionError, at_s=0.0, node=0),
    *_fields(BandwidthDegradation, ["fraction", "duration_s"],
             FaultInjectionError, at_s=0.0, node=0),
    *_fields(Straggler, ["slowdown", "duration_s"], FaultInjectionError,
             at_s=0.0, node=0),
    ("FaultPlan.membership_bounds initial_nodes", COUNT,
     FaultPlan([]).membership_bounds, FaultInjectionError),
    *[(f"FaultPlan.poisson.{name}", values,
       lambda v, name=name: FaultPlan.poisson(
           **{"mtbf_s": 1.0, "horizon_s": 1.0, "num_nodes": 2, name: v}),
       FaultInjectionError)
      for name, values in (("mtbf_s", REAL), ("horizon_s", REAL),
                           ("num_nodes", COUNT))],
    *[(f"FaultPlan.chaos.{name}", values,
       lambda v, name=name: FaultPlan.chaos(
           0, **{"num_nodes": 2, "horizon_s": 1.0, name: v}),
       FaultInjectionError)
      for name, values in (("num_nodes", COUNT), ("horizon_s", REAL),
                           ("mtbf_s", REAL), ("min_nodes", COUNT),
                           ("max_extra_nodes", COUNT))],
    # training
    ("time_to_accuracy.throughput", REAL, lambda v: time_to_accuracy(v, 8),
     TrainingError),
    ("time_to_accuracy.num_gpus", COUNT,
     lambda v: time_to_accuracy(100.0, v), TrainingError),
    ("time_to_accuracy.epochs_to_target", REAL,
     lambda v: time_to_accuracy(100.0, 8, epochs_to_target=v),
     TrainingError),
    ("time_to_accuracy.gpus_per_instance", COUNT,
     lambda v: time_to_accuracy(100.0, 8, gpus_per_instance=v),
     TrainingError),
    ("HybridPlan.model_parallel_degree", COUNT,
     lambda v: make_hybrid_plan("resnet50", v), TrainingError),
    ("LinearDecay.base_lr", REAL, lambda v: LinearDecay(v, 10),
     TrainingError),
    ("LinearDecay.total_steps", COUNT, lambda v: LinearDecay(0.1, v),
     TrainingError),
    ("LinearDecay.warmup_steps", COUNT,
     lambda v: LinearDecay(0.1, 10, warmup_steps=v), TrainingError),
    ("LinearDecay.lr_at step", COUNT, LinearDecay(0.1, 10).lr_at, TrainingError),
    ("LinearDecay.final_fraction", REAL,
     lambda v: LinearDecay(0.1, 10, final_fraction=v), TrainingError),
    *_fields(SGD, ["lr", "momentum"], TrainingError),
    *_fields(Adam, ["beta1", "beta2"], TrainingError),
    *_fields(AdamSGD, ["switch_step"], TrainingError, COUNT),
    ("build_train_context.num_gpus", COUNT,
     lambda v: build_train_context(get_model("resnet50"), HorovodBackend(),
                                   v, 32), TopologyError),
    *[(f"run_training.{name}", COUNT,
       lambda v, name=name: run_training("resnet50", "horovod", 8,
                                         **{name: v}), TrainingError)
      for name in ("measure_iterations", "warmup_iterations")],
]


@pytest.mark.parametrize("site,call,value,error", [
    pytest.param(site, call, value, error, id=f"{site}-{value!r}")
    for site, values, call, error in SITES for value in values])
def test_bad_value_raises_the_sites_typed_error(site, call, value, error):
    # The message names the value: the site's last word.
    with pytest.raises(error, match=re.escape(re.split("[. ]", site)[-1])):
        call(value)


def test_measure_hybrid_takes_an_integral_float_gpu_count():
    assert measure_hybrid("resnet50", "horovod", 16.0) == \
        measure_hybrid("resnet50", "horovod", 16)


#: ``python -m repro`` invocations with one bad value; ``{grid}`` and
#: ``{store}`` name a one-cell campaign grid and a fresh store.
CLI = [
    *[["campaign", "run", "--store", "{store}", "--grid", "{grid}",
       flag, value]
      for flag, value in (("--lease", "nan"), ("--lease", "-1"),
                          ("--backoff", "nan"), ("--backoff", "inf"),
                          ("--max-wall-s", "nan"), ("--max-wall-s", "-1"),
                          ("--workers", "0"))],
    ["diagnose", "--per-rank", "--straggler-rank", "99"],
    ["diagnose", "--per-rank", "--straggler-rank", "-1"],
    ["diagnose", "--per-rank", "--straggler-rank", "1",
     "--straggler-factor", "-2"],
    ["diagnose", "--per-rank", "--straggler-rank", "1",
     "--straggler-factor", "nan"],
    ["chaos", "--seeds", "1", "--mtbf", "nan"],
    ["chaos", "--seeds", "1", "--horizon", "inf"],
    ["chaos", "--seeds", "1", "--replays", "0"],
    ["chaos", "--seeds", "1", "--gpus-per-node", "0"],
    ["faults", "--gpus", "12"],
    ["faults", "--iterations", "0"],
    ["faults", "--mtbf", "nan"],
    ["faults", "--sync-timeout", "nan"],
    ["faults", "--retries", "-1"],
    ["faults", "--crash-at", "inf"],
    ["tune", "--budget", "0"],
    ["tune", "--gpus", "-8"],
]


@pytest.mark.parametrize("argv", CLI, ids=" ".join)
def test_cli_bad_value_exits_one_with_a_typed_error(argv, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text('[{"runner": "sleep", "axes": {"cell": [0]}, '
                    '"base": {"duration_s": 0.01}}]')
    argv = [arg.format(grid=grid, store=tmp_path / "c.db") for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
