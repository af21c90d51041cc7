"""Timed training driver: runs backends and measures throughput.

This is the harness equivalent of the paper's measurement protocol
(Section VII-D): iterate, discard warm-up iterations, report steady-state
training throughput (samples/second across all GPUs) and scaling
efficiency (``T_N / (N x T_1)`` per the definition in Section III).

The simulation is deterministic, so a handful of measured iterations give
exact steady-state numbers (the paper needs 200 iterations x 5 runs to
average away testbed noise; we document the difference in EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import logging
import statistics
import typing as t

from repro.errors import TopologyError, TrainingError, require_count
from repro.collectives.timed import TimedCollectives
from repro.frameworks import make_backend
from repro.frameworks.base import DDLBackend, IterationStats, TrainContext
from repro.models.base import ModelSpec
from repro.models.zoo import get_model
from repro.obs import Observability
from repro.sim.cuda import V100
from repro.sim.kernel import Simulator
from repro.sim.network import FluidNetwork
from repro.sim.tcp import TCP
from repro.sim.topology import Cluster, NodeSpec
from repro.sim.transport import TransportModel


logger = logging.getLogger("repro.training")


@dataclasses.dataclass(frozen=True)
class ThroughputResult:
    """Measured steady-state performance of one training configuration."""

    model: str
    backend: str
    num_gpus: int
    batch_per_gpu: int
    iteration_times_s: tuple[float, ...]
    compute_time_s: float
    sample_unit: str
    #: Event-sequence digest (replay determinism); ``None`` unless the
    #: run executed under the invariant checker.
    state_digest: str | None = None

    @property
    def mean_iteration_s(self) -> float:
        return statistics.fmean(self.iteration_times_s)

    @property
    def throughput(self) -> float:
        """Samples processed per second across the whole cluster."""
        return self.num_gpus * self.batch_per_gpu / self.mean_iteration_s

    @property
    def single_gpu_throughput(self) -> float:
        """The communication-free single-GPU rate (the paper's T_1)."""
        return self.batch_per_gpu / self.compute_time_s

    @property
    def scaling_efficiency(self) -> float:
        """``measured / (N x T_1)`` — Section III's definition."""
        return self.throughput / (self.num_gpus * self.single_gpu_throughput)

    @property
    def exposed_comm_s(self) -> float:
        """Mean per-iteration communication time not hidden by compute."""
        return max(0.0, self.mean_iteration_s - self.compute_time_s)


def build_train_context(
    spec: ModelSpec,
    backend: DDLBackend,
    num_gpus: int,
    batch_per_gpu: int,
    transport: TransportModel = TCP,
    nic_bandwidth_bps: float = 30e9,
    gpus_per_node: int = 8,
    extra_forward_time_s: float = 0.0,
    congested_links: t.Mapping[int, float] | None = None,
    gpu_spec: t.Any = None,
    representative: bool | None = None,
    sim: Simulator | None = None,
    obs: Observability | None = None,
    core_oversubscription: float = 1.0,
) -> TrainContext:
    """Build a fresh simulator + cluster + network training context.

    Shared by :func:`run_training` and the fault-injection driver
    (:func:`repro.training.resilience.run_fault_injected_training`).
    Fewer than ``gpus_per_node`` GPUs form one partially filled node,
    except under ``congested_links``, which need whole nodes.
    ``representative`` is ignored and changes nothing: every timed
    collective places its full link set.  The keyword stays only for
    the benchmark harness that still passes it; the ROADMAP item "One
    benchmark harness" deletes it.
    """
    num_gpus = require_count("num_gpus", num_gpus, 1, TopologyError)
    if num_gpus % gpus_per_node != 0:
        if congested_links:
            raise TrainingError("num_gpus must fill whole nodes when "
                                "injecting congestion")
        if num_gpus > gpus_per_node:
            raise TopologyError(
                f"num_gpus={num_gpus} is not a multiple of "
                f"gpus_per_node={gpus_per_node}")
        gpus_per_node = num_gpus
    sim = sim or Simulator()
    obs = obs or Observability.disabled()
    network = FluidNetwork(sim, obs=obs)
    node_spec = NodeSpec(gpus_per_node=gpus_per_node,
                         nic_bandwidth_bps=nic_bandwidth_bps,
                         transport=transport, gpu=gpu_spec or V100)
    cluster = Cluster(sim, num_gpus // gpus_per_node, node_spec,
                      congested_links=congested_links,
                      core_oversubscription=core_oversubscription)
    return TrainContext(
        sim=sim,
        network=network,
        cluster=cluster,
        collectives=TimedCollectives(sim, network, cluster, obs=obs),
        model=spec,
        batch_per_gpu=batch_per_gpu,
        wire_dtype_bytes=_wire_bytes_of(backend),
        extra_forward_time_s=extra_forward_time_s,
        obs=obs,
    )


def run_training(
    model: str | ModelSpec,
    backend: str | DDLBackend,
    num_gpus: int,
    batch_per_gpu: int | None = None,
    measure_iterations: int = 5,
    warmup_iterations: int = 2,
    transport: TransportModel = TCP,
    nic_bandwidth_bps: float = 30e9,
    gpus_per_node: int = 8,
    extra_forward_time_s: float = 0.0,
    congested_links: t.Mapping[int, float] | None = None,
    gpu_spec: t.Any = None,
    obs: Observability | None = None,
    core_oversubscription: float = 1.0,
    check_invariants: bool | None = None,
) -> ThroughputResult:
    """Simulate distributed training and measure steady-state throughput.

    Parameters
    ----------
    model:
        Zoo model name or an explicit :class:`ModelSpec`.
    backend:
        Backend name (see :func:`repro.frameworks.make_backend`) or a
        ready-made backend instance.
    num_gpus:
        Total worker count; packed ``gpus_per_node`` per node.
    batch_per_gpu:
        Per-GPU minibatch; defaults to the model's paper setting.
    measure_iterations / warmup_iterations:
        Measurement protocol; warm-up iterations are discarded.  The
        backend's one-time setup runs first, as process ``warmup``;
        iteration ``i`` runs as process ``iter{i}``.
    extra_forward_time_s:
        Added to every iteration's forward pass (activation exchange of
        hybrid parallelism, or a deliberate replay perturbation).
    congested_links:
        Optional ``node -> capacity_fraction`` map injecting cross-tenant
        congestion.
    core_oversubscription:
        Leaf-spine oversubscription ratio; ``> 1`` inserts the shared
        core link every inter-node flow traverses.
    gpu_spec:
        GPU model override (defaults to the paper's V100); pass
        :data:`repro.sim.cuda.A100` for future-hardware what-ifs.
    check_invariants:
        Run under the invariant checker, attached when the simulator is
        built; the result then carries the run's ``state_digest``.
        ``None`` follows the ``REPRO_CHECK_INVARIANTS`` environment flag.
    """
    require_count("measure_iterations", measure_iterations, 1, TrainingError)
    require_count("warmup_iterations", warmup_iterations, 0, TrainingError)
    spec = get_model(model) if isinstance(model, str) else model
    if isinstance(backend, str):
        backend = make_backend(backend)
    batch = batch_per_gpu or spec.default_batch_size

    sim = Simulator(check_invariants=check_invariants)
    ctx = build_train_context(
        spec, backend, num_gpus, batch,
        transport=transport, nic_bandwidth_bps=nic_bandwidth_bps,
        gpus_per_node=gpus_per_node,
        extra_forward_time_s=extra_forward_time_s,
        congested_links=congested_links, gpu_spec=gpu_spec,
        sim=sim, obs=obs,
        core_oversubscription=core_oversubscription,
    )

    warm = sim.spawn(backend.warmup(ctx), name="warmup")
    sim.run(until=warm)

    times: list[float] = []
    for index in range(warmup_iterations + measure_iterations):
        proc = sim.spawn(backend.iteration(ctx), name=f"iter{index}")
        sim.run(until=proc)
        stats = t.cast(IterationStats, proc.value)
        if index >= warmup_iterations:
            times.append(stats.iteration_time_s)

    result = ThroughputResult(
        model=spec.name,
        backend=backend.name,
        num_gpus=num_gpus,
        batch_per_gpu=batch,
        iteration_times_s=tuple(times),
        compute_time_s=ctx.compute_time_s,
        sample_unit=spec.sample_unit,
        state_digest=sim.state_digest(),
    )
    logger.debug(
        "%s/%s on %d GPUs: %.1f %s/s (efficiency %.3f, "
        "exposed comm %.1f ms)", result.model, result.backend,
        result.num_gpus, result.throughput, result.sample_unit,
        result.scaling_efficiency, result.exposed_comm_s * 1e3)
    return result


def _wire_bytes_of(backend: DDLBackend) -> int:
    """Gradient wire width: fp16 when the backend compresses."""
    config = getattr(backend, "config", None)
    if config is not None and getattr(config, "fp16_compression", False):
        return 2
    return 4
