"""Common machinery for distributed-training communication backends.

A *backend* models the control plane and data plane of one DDL framework
(Horovod, PyTorch-DDP, BytePS, MXNet-KVStore, or AIACC-Training itself).
All backends drive the same simulated iteration structure:

1. **forward** — pure compute, ``batch x forward_flops`` on the GPU;
2. **backward** — compute runs for ``2x`` forward; gradient tensors become
   ready at their :meth:`~repro.models.base.ModelSpec.backward_schedule`
   fractions.  The schedule is fixed data, so each backend walks
   :meth:`TrainContext.backward_steps` in its own process and handles
   every tensor of a schedule point in one resume — the framework hook
   of the paper's Figs. 5–6 without a gradient queue between them;
3. **communication** — backend-specific; the iteration completes when all
   gradients are globally reduced and the optimizer step has run.

Because data-parallel workers are symmetric (identical model, identical
batch shape, synchronized steps), the simulation follows one
representative worker; cluster-wide network effects are captured by the
fluid network model and control-plane costs by each backend's analytic
terms.
"""

from __future__ import annotations

import abc
import dataclasses
import math
import typing as t

from repro.errors import TrainingError
from repro.models.base import ModelSpec, ParameterSpec
from repro.collectives.timed import TimedCollectives
from repro.obs import Observability
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.network import FluidNetwork
from repro.sim.resources import Store
from repro.sim.topology import Cluster

#: Fixed cost of the optimizer parameter-update kernel per iteration.
UPDATE_TIME_S = 1e-3

#: Sentinel closing one :class:`ConnectionPool` connection.
_CLOSE = object()


def require_positive(name: str, value: float) -> None:
    """Reject a backend size or period that is not finite and positive."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def require_non_negative(name: str, value: float) -> None:
    """Reject a backend overhead that is not finite and non-negative."""
    if not 0 <= value < math.inf:
        raise ValueError(
            f"{name} must be finite and non-negative, got {value}")


@dataclasses.dataclass(frozen=True)
class ReadyGradient:
    """A gradient tensor that has been produced on the local worker."""

    parameter: ParameterSpec
    #: Registration index (paper §V-A: sorted, unique ids; workers
    #: implicitly agree on communication order through them).
    grad_id: int
    ready_at: float


@dataclasses.dataclass
class TrainContext:
    """Everything a backend needs to run one worker's iterations."""

    sim: Simulator
    network: FluidNetwork
    cluster: Cluster
    collectives: TimedCollectives
    model: ModelSpec
    batch_per_gpu: int
    #: Bytes per gradient element actually transmitted (2 when fp16
    #: gradient compression is enabled, else the parameter dtype width).
    wire_dtype_bytes: int = 4
    #: Additional per-iteration time spent outside gradient communication,
    #: e.g. the NVLink activation exchange of hybrid data+model
    #: parallelism (folded into the forward pass).
    extra_forward_time_s: float = 0.0
    #: Metrics registry + step timeline; disabled by default so the
    #: record calls on the hot path cost a single branch.
    obs: Observability = dataclasses.field(
        default_factory=Observability.disabled)

    def __post_init__(self) -> None:
        if self.batch_per_gpu < 1:
            raise TrainingError("batch_per_gpu must be >= 1")
        if self.extra_forward_time_s < 0:
            raise TrainingError("extra_forward_time_s must be >= 0")

    # -- compute timing -----------------------------------------------------

    @property
    def forward_time_s(self) -> float:
        """Duration of the forward pass for one minibatch."""
        flops = self.model.forward_flops * self.batch_per_gpu
        return self.cluster.gpu_device.compute_time_s(flops) + \
            self.extra_forward_time_s

    @property
    def backward_time_s(self) -> float:
        """Duration of the backward pass for one minibatch."""
        flops = self.model.backward_flops * self.batch_per_gpu
        return self.cluster.gpu_device.compute_time_s(flops)

    @property
    def compute_time_s(self) -> float:
        """Forward + backward + update time; the no-communication floor."""
        return self.forward_time_s + self.backward_time_s + UPDATE_TIME_S

    def wire_bytes(self, parameter: ParameterSpec) -> float:
        """Bytes of ``parameter``'s gradient as sent on the network."""
        return parameter.num_elements * self.wire_dtype_bytes

    @property
    def effective_occupancy(self) -> float:
        """SM occupancy of compute kernels at the current batch size.

        Paper footnote 5: "Less GPU computation means that there will be
        a higher chance for the GPU hardware scheduler to dispatch more
        CUDA streams to run concurrently" — smaller batches launch
        smaller kernels, freeing SMs for communication streams.  Scales
        the model's nominal occupancy by the square root of the batch
        ratio (kernel width grows sub-linearly with batch).
        """
        ratio = self.batch_per_gpu / self.model.default_batch_size
        return min(1.0, self.model.compute_occupancy
                   * min(1.0, ratio) ** 0.5)

    def staging_time_s(self, nbytes: float) -> float:
        """GPU<->CPU staging cost for ``nbytes`` of gradient traffic.

        TCP communication buffers live in CPU memory (paper §V-A.2), so
        every transfer pays a PCIe round trip; GPU-direct RDMA reads
        device memory and pays nothing.  Applies identically to every
        backend — all of them move gradients through host buffers on a
        TCP fabric.
        """
        if self.cluster.spec.transport.gpu_direct:
            return 0.0
        return 2.0 * nbytes * 8.0 / self.cluster.spec.gpu.pcie_bps

    # -- gradient production --------------------------------------------------

    def backward_steps(self) -> list[tuple[float, tuple[ParameterSpec, ...]]]:
        """The backward pass as ``(delay_s, parameters)`` steps.

        One step per :meth:`~repro.models.base.ModelSpec.backward_schedule`
        point, in reverse layer order: its ``parameters`` become ready
        ``delay_s`` after the previous step, 0 when the point shares the
        previous point's instant.  A last ``(delay_s, ())`` step ends the
        pass at ``backward_time_s``.  A backend walks the list in its own
        process — ``if delay: yield sim.timeout(delay)``, then handles
        the point's parameters in one resume.
        """
        duration = self.backward_time_s
        elapsed = 0.0
        steps: list[tuple[float, tuple[ParameterSpec, ...]]] = []
        for event in self.model.backward_schedule():
            target = event.time_fraction * duration
            delay = 0.0
            if target > elapsed:
                delay = target - elapsed
                elapsed = target
            steps.append((delay, event.parameters))
        steps.append((duration - elapsed if elapsed < duration else 0.0, ()))
        return steps


@dataclasses.dataclass(frozen=True)
class IterationStats:
    """Timing breakdown of one training iteration."""

    iteration_time_s: float
    compute_time_s: float

    @property
    def exposed_comm_time_s(self) -> float:
        """Communication time not hidden behind compute."""
        return max(0.0, self.iteration_time_s - self.compute_time_s)


class DDLBackend(abc.ABC):
    """One distributed-training communication framework."""

    #: Human-readable framework name used in reports.
    name: str = "abstract"

    @abc.abstractmethod
    def iteration(self, ctx: TrainContext) -> t.Generator:
        """Simulated-process generator for one full training iteration.

        Must return an :class:`IterationStats`.
        """

    def warmup(self, ctx: TrainContext) -> t.Generator:
        """Optional one-time setup (stream creation, tuning, rendezvous)."""
        return
        yield  # pragma: no cover - default is a no-op generator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ConnectionPool:
    """``size`` long-lived connection processes serving transfers FIFO.

    The parameter-server baselines pipeline their push/pulls over a
    fixed number of connections, and Horovod and DDP run their serial
    all-reduces on one.  Rather than spawning one process per transfer
    that then queues for a connection, each connection is one process
    that takes the next submitted item from a FIFO store and runs
    ``serve(item)`` to completion.  Items start in submission order,
    each on the first connection to become free — the grant order of a
    FIFO semaphore — so the pool spawns ``size`` processes per
    iteration instead of one per transfer.

    :meth:`close` ends every connection once the queue drains and
    returns the event that fires when all have finished; it fails with
    the first exception a ``serve`` raises.
    """

    def __init__(self, sim: Simulator, size: int,
                 serve: t.Callable[[t.Any], t.Generator],
                 name: str) -> None:
        self._queue = Store(sim, name=f"{name}.queue")
        self._serve = serve
        self._connections = [
            sim.spawn(self._connection(), name=f"{name}.connection")
            for _ in range(size)]
        # Watched from the start, so a crashing connection fails the
        # pool instead of surfacing out of the kernel.
        self._closed = sim.all_of(self._connections)

    def submit(self, item: object) -> None:
        """Queue ``item`` for the next free connection."""
        self._queue.put(item)

    def stage(self, ctx: TrainContext, nbytes: float) -> Event | None:
        """Copy ``nbytes`` over PCIe, then submit them.

        Called once per fusion buffer or bucket: staging overlaps the
        sends of earlier items (a separate copy engine).  Returns the
        copy's timeout, whose callback submits the item, or ``None``
        when there is nothing to copy and the item was submitted at
        once.
        """
        staging = ctx.staging_time_s(nbytes)
        if not staging:
            self.submit(nbytes)
            return None
        copy = ctx.sim.timeout(staging)
        copy.add_callback(lambda _ev: self.submit(nbytes))
        return copy

    def close(self) -> Event:
        """Close every connection after the queued items; the join event."""
        for _ in self._connections:
            self._queue.put(_CLOSE)
        return self._closed

    def _connection(self) -> t.Generator:
        queue, serve = self._queue, self._serve
        while True:
            item = yield queue.get()
            if item is _CLOSE:
                return
            yield from serve(item)
