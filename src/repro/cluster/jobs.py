"""Job identity and per-tenant state for the multi-tenant fabric.

A :class:`JobSpec` is everything the cluster needs to know about one
tenant up front: its identity, shape (nodes, streams), traffic profile
and priority.  :class:`JobState` is the scheduler's mutable view of the
same job as it moves through ``queued -> running -> completed`` (with
``degraded``/``preempted``/``rejected`` detours).

Each job also trains a real (tiny, pure-numpy) model as it steps:
:class:`NumericTrainer` advances one synchronous data-parallel update
per simulated step.  The parameter digest after ``k`` steps is a pure
function of ``(seed, k, world size)`` — *never* of simulated time — so
cross-job isolation ("chaos in job A leaves job B's convergence
bit-identical") holds by construction and is verified, not assumed, by
the harness tests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing as t

import numpy as np

from repro.errors import ClusterError, require_count, require_real
from repro.training.numeric import TinyMLP, make_synthetic_task
from repro.training.optimizer import SGD

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.elastic import EpochTransition

#: Job lifecycle states (``JobState.status`` is always one of these).
JOB_STATES = ("queued", "running", "degraded", "preempted",
              "completed", "rejected")


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One tenant's identity, shape and traffic profile."""

    job_id: str
    #: Model-zoo name, used for settings-cache similarity matching.
    model: str = "resnet50"
    num_nodes: int = 2
    #: Inter-job fair-share weight at shared links (>= jobs of weight 1).
    priority: float = 1.0
    #: Simulated submission time.
    arrival_s: float = 0.0
    steps: int = 8
    #: Requested communication streams per flow (the tuner may shrink).
    num_streams: int = 4
    seed: int = 0
    #: Per-step backward-compute duration (seconds).
    compute_s: float = 0.05
    #: Gradient payload all-reduced each step (bytes).
    bytes_per_step: float = 64e6
    #: Hidden width of the job's numeric model.
    hidden_dim: int = 32
    #: Global minibatch size, sharded across ``num_nodes`` workers.
    batch_size: int = 64

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ClusterError("job_id must be non-empty")
        job = f"job {self.job_id!r}:"
        for name in ("num_nodes", "steps", "num_streams"):
            require_count(f"{job} {name}", getattr(self, name), 1,
                          ClusterError)
        require_real(f"{job} arrival_s", self.arrival_s, ClusterError)
        for name in ("priority", "compute_s", "bytes_per_step"):
            require_real(f"{job} {name}", getattr(self, name), ClusterError,
                         positive=True)
        if self.batch_size % self.num_nodes != 0:
            raise ClusterError(
                f"job {self.job_id!r}: batch_size {self.batch_size} is "
                f"not divisible by num_nodes {self.num_nodes}")


class NumericTrainer:
    """Synchronous data-parallel training of a job's tiny model.

    One :meth:`advance` call is one global step: the fixed-order global
    minibatch is sharded across ``num_nodes`` workers, per-shard
    gradients are averaged (the all-reduce the fabric simulates the
    *timing* of), and one optimizer update is applied.  Lockstep workers
    with averaged gradients are state-identical to this single-model
    form, so one parameter set suffices.
    """

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.model = TinyMLP(input_dim=16, hidden_dim=spec.hidden_dim,
                             num_classes=4, seed=spec.seed)
        self.task = make_synthetic_task(seed=spec.seed)
        self.optimizer = SGD(lr=0.1, momentum=0.9)
        self.losses: list[float] = []
        self._batches = self.task.batches(spec.batch_size)

    def advance(self) -> float:
        """Run one data-parallel step; returns the mean loss."""
        try:
            inputs, labels = next(self._batches)
        except StopIteration:
            self._batches = self.task.batches(self.spec.batch_size)
            inputs, labels = next(self._batches)
        shard = len(inputs) // self.spec.num_nodes
        total_loss = 0.0
        summed: dict[str, np.ndarray] | None = None
        for worker in range(self.spec.num_nodes):
            lo = worker * shard
            loss, grads = self.model.loss_and_grads(
                self.model.parameters, inputs[lo:lo + shard],
                labels[lo:lo + shard])
            total_loss += loss
            if summed is None:
                summed = grads
            else:
                for key in summed:
                    summed[key] = summed[key] + grads[key]
        assert summed is not None
        averaged = {key: value / self.spec.num_nodes
                    for key, value in summed.items()}
        self.optimizer.step(self.model.parameters, averaged)
        mean_loss = total_loss / self.spec.num_nodes
        self.losses.append(mean_loss)
        return mean_loss

    def digest(self) -> str:
        """blake2b over the exact parameter bytes (bit-level identity)."""
        h = hashlib.blake2b(digest_size=16)
        for key in sorted(self.model.parameters):
            h.update(key.encode())
            h.update(np.ascontiguousarray(
                self.model.parameters[key]).tobytes())
        return h.hexdigest()


@dataclasses.dataclass
class JobState:
    """The runtime's mutable view of one submitted job."""

    spec: JobSpec
    status: str = "queued"
    #: Fabric node indices currently held (empty while queued/preempted).
    nodes: tuple[int, ...] = ()
    #: Live stream count (starts at the spec's or the warm-start's).
    streams: int = 0
    #: Per-stream cap multiplier the overload controller may lower.
    cap_scale: float = 1.0
    steps_done: int = 0
    step_times: list[float] = dataclasses.field(default_factory=list)
    #: Degradation-ladder stage reached: 0 none, 1 stream shrink,
    #: 2 cap throttle, 3 preempted at least once.
    ladder_stage: int = 0
    admission_attempts: int = 0
    admitted_at_s: float | None = None
    #: Settings-cache entry label this job warm-started from, if any.
    warm_start: str | None = None
    transitions: list["EpochTransition"] = dataclasses.field(
        default_factory=list)
    #: The typed rejection, when admission timed out.
    rejection: str | None = None
    trainer: NumericTrainer | None = None

    def __post_init__(self) -> None:
        if self.status not in JOB_STATES:
            raise ClusterError(f"unknown job status {self.status!r}")

    @property
    def numeric_digest(self) -> str | None:
        return self.trainer.digest() if self.trainer is not None else None

    def record(self) -> dict[str, object]:
        """JSON-safe summary (the cluster digest folds these)."""
        return {
            "job_id": self.spec.job_id,
            "status": self.status,
            "steps_done": self.steps_done,
            "streams": self.streams,
            "cap_scale": self.cap_scale,
            "ladder_stage": self.ladder_stage,
            "admission_attempts": self.admission_attempts,
            "admitted_at_s": self.admitted_at_s,
            "warm_start": self.warm_start,
            "rejection": self.rejection,
            "step_times": list(self.step_times),
            "transitions": [
                {"epoch": tr.epoch, "at_s": tr.at_s, "kind": tr.kind,
                 "world_before": tr.world_before,
                 "world_after": tr.world_after}
                for tr in self.transitions],
            "numeric_digest": self.numeric_digest,
        }
