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
   Transfers run on callbacks, not processes: the parameter servers'
   push/pulls and the serial all-reduces of Horovod and DDP are chains
   of flow, collective and timeout events served by a
   :class:`ConnectionPool`.  A PS step spawns one process (the step),
   DDP two (plus its autograd hook) and Horovod three (plus its
   backward walk and cycle negotiator).

Because data-parallel workers are symmetric (identical model, identical
batch shape, synchronized steps), the simulation follows one
representative worker; cluster-wide network effects are captured by the
fluid network model and control-plane costs by each backend's analytic
terms.
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import typing as t

from repro.errors import SimulationError, TrainingError, require_count, \
    require_real
from repro.models.base import ModelSpec, ParameterSpec
from repro.collectives.timed import TimedCollectives
from repro.obs import Observability
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.network import FluidNetwork
from repro.sim.topology import Cluster

#: Fixed cost of the optimizer parameter-update kernel per iteration.
UPDATE_TIME_S = 1e-3

#: :meth:`TrainContext.backward_steps`: ``(delay_s, parameters)`` steps.
BackwardSteps = tuple[tuple[float, tuple[ParameterSpec, ...]], ...]


def relay(target: Event, source: Event) -> None:
    """Trigger ``target`` with the outcome of the fired ``source``.

    The last link of a callback chain: the chain's own event succeeds
    with its last step's value, or fails with its exception.
    """
    if source.ok:
        target.succeed(source.value)
    else:
        target.fail(t.cast(BaseException, source.value))


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
    #: ``(model, backward_time_s, steps)`` of the last
    #: :meth:`backward_steps` call.
    _backward_memo: tuple[ModelSpec, float, BackwardSteps] | None = \
        dataclasses.field(default=None, init=False, repr=False,
                          compare=False)

    def __post_init__(self) -> None:
        require_count("batch_per_gpu", self.batch_per_gpu, 1, TrainingError)
        require_real("extra_forward_time_s", self.extra_forward_time_s,
                     TrainingError)

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

    def backward_steps(self) -> BackwardSteps:
        """The backward pass as ``(delay_s, parameters)`` steps.

        One step per :meth:`~repro.models.base.ModelSpec.backward_schedule`
        point, in reverse layer order: its ``parameters`` become ready
        ``delay_s`` after the previous step, 0 when the point shares the
        previous point's instant.  A last ``(delay_s, ())`` step ends the
        pass at ``backward_time_s``.  A backend walks the steps in its
        own process — ``if delay: yield sim.timeout(delay)``, then
        handles the point's parameters in one resume.

        The steps depend only on the model and ``backward_time_s``, so
        they are built once per pair and returned from a memo while
        both stay the same.
        """
        duration = self.backward_time_s
        memo = self._backward_memo
        if memo is not None and memo[0] is self.model \
                and memo[1] == duration:
            return memo[2]
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
        self._backward_memo = (self.model, duration, tuple(steps))
        return self._backward_memo[2]


@dataclasses.dataclass(frozen=True)
class IterationStats:
    """Timing breakdown of one training iteration."""

    iteration_time_s: float
    compute_time_s: float


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
    """``size`` connections serving transfers FIFO, on callbacks.

    The parameter-server baselines pipeline their push/pulls over a
    fixed number of connections, and Horovod and DDP run their serial
    all-reduces on one.  ``serve(item)`` starts one transfer and returns
    the event that fires when it is done.  Items start in submission
    order, each as soon as a connection is free — the grant order of a
    FIFO semaphore — and a finished transfer hands its connection to
    the next queued item.  The pool is a queue and a count of free
    connections: it spawns no process and schedules no event of its
    own.

    :meth:`close` returns the event that fires once the queue has
    drained and every connection is idle.  The first failing ``serve``
    fails it, whether ``serve`` raises or its event fails; that
    connection is lost and the others serve the rest of the queue.
    """

    def __init__(self, sim: Simulator, size: int,
                 serve: t.Callable[[t.Any], Event], name: str) -> None:
        self._serve = serve
        self._name = name
        self._queue: collections.deque[object] = collections.deque()
        self._size = size
        self._free = size
        self._closing = False
        #: Whether :meth:`_drain` is on the stack: a transfer whose event
        #: has already fired returns its connection to that loop instead
        #: of recursing.
        self._draining = False
        self._closed = sim.event(name=f"{name}.closed")

    def submit(self, item: object) -> None:
        """Queue ``item`` for the next free connection."""
        self._queue.append(item)
        if self._free:
            self._drain()

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
        """The event that fires once every submitted item is done."""
        self._closing = True
        self._settle()
        return self._closed

    def _drain(self) -> None:
        """Start queued items while a connection is free."""
        if self._draining:
            return
        self._draining = True
        queue, serve = self._queue, self._serve
        while queue and self._free:
            self._free -= 1
            item = queue.popleft()
            try:
                event = serve(item)
                if not isinstance(event, Event):
                    raise SimulationError(
                        f"{self._name} serve({item!r}) returned {event!r}; "
                        "it must return an Event")
            except Exception as exc:  # noqa: BLE001 - fails the pool
                self._fail(exc)
                continue
            event.add_callback(self._done)
        self._draining = False
        self._settle()

    def _done(self, event: Event) -> None:
        if not event._ok:
            self._fail(t.cast(BaseException, event._value))
            return
        self._free += 1
        self._drain()

    def _fail(self, exc: BaseException) -> None:
        if not self._closed.triggered:
            self._closed.fail(exc)

    def _settle(self) -> None:
        # After a failure a connection is lost and ``close`` has failed,
        # so every connection free means nothing is in service.
        if self._closing and self._free == self._size and not self._queue \
                and not self._draining and not self._closed.triggered:
            self._closed.succeed()
