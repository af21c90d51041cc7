"""Failure injection for long training runs (paper §IV fault tolerance).

AIACC-Training "provides fault-tolerance to restart the training process
from the last checkpoint upon node failure".  This module quantifies
that: given a measured per-iteration time, a checkpoint cadence and a
failure schedule, it computes the wall-clock cost of failures — lost
work since the last checkpoint, restart overhead, and the parameter
broadcast to the rebuilt worker group — and the resulting *goodput*.

It answers the operational question behind the feature: how often should
a production job checkpoint, given its failure rate?
(:func:`optimal_checkpoint_interval` implements Young's classic
approximation for comparison.)

:func:`run_fault_injected_training` is the event-driven counterpart and
the one timed model of elasticity: it runs the engine under a
:class:`~repro.sim.faults.FaultPlan`, recovers crashes from checkpoints
and applies scheduled leaves and joins at iteration boundaries, all
through one :class:`~repro.core.elastic.ElasticRuntime`.
"""

from __future__ import annotations

import dataclasses
import math
import tempfile
import typing as t

import numpy as np

from repro.errors import FaultInjectionError, PeerDeadError, TrainingError, \
    require_count, require_real
from repro.core.elastic import EpochTransition
from repro.core.runtime import AIACCConfig
from repro.models.base import ModelSpec
from repro.models.zoo import get_model
from repro.obs import Observability
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.kernel import Simulator

#: Sustained write bandwidth of cloud block storage for checkpoints.
CHECKPOINT_WRITE_BPS = 2e9 * 8

#: Process respawn + communicator re-bootstrap after a node failure.
DEFAULT_RESTART_OVERHEAD_S = 30.0


@dataclasses.dataclass(frozen=True)
class ResilienceResult:
    """Outcome of a failure-injected training simulation."""

    total_iterations: int
    completed_iterations: int
    wasted_iterations: int
    ideal_time_s: float
    total_time_s: float
    checkpoint_time_s: float
    recovery_time_s: float
    failures: int

    @property
    def goodput(self) -> float:
        """Useful-work fraction: ideal time / actual time."""
        return self.ideal_time_s / self.total_time_s


def checkpoint_write_time_s(model: str | ModelSpec) -> float:
    """Seconds to persist one fp32 copy of the model parameters."""
    spec = get_model(model) if isinstance(model, str) else model
    return spec.gradient_bytes * 8.0 / CHECKPOINT_WRITE_BPS


def broadcast_time_s(model: str | ModelSpec,
                     stream_bps: float = 7.5e9) -> float:
    """Seconds to propagate parameters to a rebuilt/joining worker."""
    spec = get_model(model) if isinstance(model, str) else model
    return spec.gradient_bytes * 8.0 / stream_bps


def simulate_resilient_training(
    model: str | ModelSpec,
    iteration_time_s: float,
    total_iterations: int,
    checkpoint_interval: int,
    failure_at: t.Sequence[int] = (),
    restart_overhead_s: float = DEFAULT_RESTART_OVERHEAD_S,
) -> ResilienceResult:
    """Walk a training run with checkpoints and injected failures.

    Parameters
    ----------
    iteration_time_s:
        Steady-state iteration time (e.g. from
        :func:`repro.training.trainer.run_training`).
    checkpoint_interval:
        Iterations between checkpoints (a checkpoint is written *after*
        every ``checkpoint_interval``-th iteration).
    failure_at:
        Iteration indices (0-based, in completed-work coordinates) at
        which a node fails; work since the last checkpoint is lost.
    """
    spec = get_model(model) if isinstance(model, str) else model
    require_real("iteration_time_s", iteration_time_s, TrainingError,
                 positive=True)
    total_iterations = require_count("total_iterations", total_iterations,
                                     1, TrainingError)
    checkpoint_interval = require_count(
        "checkpoint_interval", checkpoint_interval, 1, TrainingError)
    require_real("restart_overhead_s", restart_overhead_s, TrainingError)
    failures = sorted({require_count("failure index", index, 0,
                                     TrainingError)
                       for index in failure_at})
    if failures and failures[-1] >= total_iterations:
        raise TrainingError("failure indices out of range")

    ckpt_time = checkpoint_write_time_s(spec)
    recovery_unit = restart_overhead_s + broadcast_time_s(spec)

    time = 0.0
    ckpt_total = 0.0
    recovery_total = 0.0
    wasted = 0
    completed = 0
    last_checkpoint = 0
    failure_queue = list(failures)

    while completed < total_iterations:
        time += iteration_time_s
        completed += 1
        if failure_queue and completed - 1 == failure_queue[0]:
            failure_queue.pop(0)
            lost = completed - last_checkpoint
            wasted += lost
            completed = last_checkpoint
            recovery_total += recovery_unit
            time += recovery_unit
            continue
        if completed % checkpoint_interval == 0 and \
                completed != last_checkpoint:
            ckpt_total += ckpt_time
            time += ckpt_time
            last_checkpoint = completed

    return ResilienceResult(
        total_iterations=total_iterations,
        completed_iterations=total_iterations,
        wasted_iterations=wasted,
        ideal_time_s=total_iterations * iteration_time_s,
        total_time_s=time,
        checkpoint_time_s=ckpt_total,
        recovery_time_s=recovery_total,
        failures=len(failures),
    )


def optimal_checkpoint_interval(iteration_time_s: float,
                                mean_iterations_between_failures: float,
                                model: str | ModelSpec) -> int:
    """Young's approximation: sqrt(2 x ckpt_cost x MTBF), in iterations."""
    spec = get_model(model) if isinstance(model, str) else model
    require_real("iteration_time_s", iteration_time_s, TrainingError,
                 positive=True)
    require_real("mean_iterations_between_failures",
                 mean_iterations_between_failures, TrainingError,
                 positive=True)
    ckpt_cost = checkpoint_write_time_s(spec)
    mtbf_s = mean_iterations_between_failures * iteration_time_s
    interval_s = math.sqrt(2.0 * ckpt_cost * mtbf_s)
    return max(1, round(interval_s / iteration_time_s))


@dataclasses.dataclass(frozen=True)
class RecoveryRecord:
    """Timeline of one detected failure and the recovery that followed."""

    #: Original node ids that died in this failure batch.
    failed_nodes: tuple[int, ...]
    #: Simulated time the (first) crash was injected.
    injected_at_s: float
    #: Time the engine first suspected a peer (first missed deadline).
    suspected_at_s: float
    #: Time the peer was declared dead (retries exhausted).
    confirmed_at_s: float
    #: Time training resumed on the rebuilt cluster.
    resumed_at_s: float
    #: Iterations completed when the failure was confirmed.
    failed_at_iteration: int
    #: Checkpoint iteration training restarted from.
    resumed_iteration: int

    @property
    def detection_latency_s(self) -> float:
        """Crash injection to confirmed declaration."""
        return self.confirmed_at_s - self.injected_at_s

    @property
    def rebuild_time_s(self) -> float:
        """Confirmation to resumed training."""
        return self.resumed_at_s - self.confirmed_at_s

    @property
    def lost_iterations(self) -> int:
        """Work discarded by restarting from the checkpoint."""
        return self.failed_at_iteration - self.resumed_iteration


@dataclasses.dataclass(frozen=True)
class FaultInjectionResult:
    """Outcome of an event-driven fault-injected training run."""

    model: str
    backend: str
    initial_num_gpus: int
    final_num_gpus: int
    total_iterations: int
    wasted_iterations: int
    total_time_s: float
    checkpoint_time_s: float
    iteration_times_s: tuple[float, ...]
    recoveries: tuple[RecoveryRecord, ...]
    #: The run's observability: fault and epoch counters, timeline.
    obs: Observability
    #: Event-sequence digest (replay determinism); ``None`` unless the
    #: run executed under the invariant checker.
    state_digest: str | None = None
    #: Membership-epoch transitions (scale-down / scale-up / failure),
    #: in boundary order.  Empty for a purely crash-free, static run.
    epoch_transitions: tuple[EpochTransition, ...] = ()
    #: Membership epoch the run finished in.
    final_epoch: int = 0
    #: Linear-scaling-rule LR multiplier for the final world size.
    final_lr_scale: float = 1.0

    @property
    def ideal_iteration_s(self) -> float:
        """Healthy per-iteration time (first completed iteration)."""
        return self.iteration_times_s[0]

    @property
    def ideal_time_s(self) -> float:
        return self.total_iterations * self.ideal_iteration_s

    @property
    def goodput(self) -> float:
        """Useful-work fraction, comparable to
        :attr:`ResilienceResult.goodput`."""
        return self.ideal_time_s / self.total_time_s


def run_fault_injected_training(
    model: str | ModelSpec,
    plan: FaultPlan,
    config: AIACCConfig | None = None,
    num_gpus: int = 16,
    total_iterations: int = 20,
    checkpoint_interval: int = 5,
    checkpoint_dir: str | None = None,
    gpus_per_node: int = 8,
    sync_timeout_s: float = 1.0,
    unit_timeout_s: float = 2.0,
    comm_retries: int = 1,
    retry_backoff_s: float = 0.25,
    restart_overhead_s: float = DEFAULT_RESTART_OVERHEAD_S,
    max_restarts: int = 8,
    check_invariants: bool | None = None,
    obs: Observability | None = None,
    settings_cache: t.Any = None,
) -> FaultInjectionResult:
    """Train under an event-driven fault schedule and self-heal.

    Unlike :func:`simulate_resilient_training` (a closed-form time walk),
    this runs the real AIACC engine inside the discrete-event simulator
    with a :class:`~repro.sim.faults.FaultInjector` armed: a crashed node
    stalls in-flight flows and new collectives, the engine's timeout
    detector suspects and then confirms the death
    (:class:`~repro.errors.PeerDeadError`), in-flight units are aborted,
    the ring is rebuilt over the survivors, state restores from the last
    checkpoint via :meth:`~repro.core.elastic.ElasticRuntime.failure`,
    and training resumes — all on the simulated clock, so the recovery
    trajectory (detection latency, rebuild time, lost work) is measured,
    not assumed.

    Every node's links are simulated, so the dead node's NIC squash
    actually stalls traffic; ``sync_timeout_s`` /
    ``unit_timeout_s`` / ``comm_retries`` / ``retry_backoff_s`` drive the
    paper's §IV failure detector.  The run's engine is built from a copy
    of ``config`` (default :class:`AIACCConfig`) with those four
    replaced; the caller's config is never modified.
    ``check_invariants`` attaches the invariant checker to the run's
    simulator (``None`` follows ``REPRO_CHECK_INVARIANTS``); the result
    then carries the run's ``state_digest``.

    The plan may also schedule *membership* events
    (:class:`~repro.sim.faults.NodeLeave` /
    :class:`~repro.sim.faults.NodeJoin`).  At each iteration boundary —
    where the group is quiescent — the injector's net joins are
    admitted in one ``scale-up`` and then its net leaves removed in one
    ``scale-down`` (:class:`~repro.core.elastic.ElasticRuntime`), so a
    plan the checker accepted never empties the group; with a crash
    pending the boundary takes neither.  A scale-down continues from
    the survivors' **live** parameters (no checkpoint restore); a
    scale-up admits the new identities via the runtime's pipelined
    live-parameter broadcast, verified bit-identical across ranks, and
    re-keys the auto-tuner's best-setting cache (pass
    ``settings_cache``) plus the linear-scaling LR multiplier for the
    new topology.  Crashes keep the abort → rebuild → checkpoint-restore
    path, stamped as a ``failure`` epoch transition.  Every rebuild
    hands the injector the new cluster with ``runtime.members``.
    """
    from repro.autotune.graph_distance import ModelFingerprint
    from repro.core.elastic import ElasticRuntime
    from repro.core.engine import AIACCBackend
    from repro.core.fault_tolerance import CheckpointManager
    from repro.training.trainer import build_train_context

    spec = get_model(model) if isinstance(model, str) else model
    total_iterations = require_count("total_iterations", total_iterations,
                                     1, TrainingError)
    checkpoint_interval = require_count(
        "checkpoint_interval", checkpoint_interval, 1, TrainingError)
    max_restarts = require_count("max_restarts", max_restarts, 0,
                                 TrainingError)
    require_real("restart_overhead_s", restart_overhead_s, TrainingError)
    num_gpus = require_count("num_gpus", num_gpus, 1, TrainingError)
    gpus_per_node = require_count("gpus_per_node", gpus_per_node, 1,
                                  TrainingError)
    if num_gpus % gpus_per_node != 0 or num_gpus < 2 * gpus_per_node:
        raise TrainingError(
            "fault injection needs >= 2 whole nodes (num_gpus a multiple "
            "of gpus_per_node)"
        )
    backend = AIACCBackend((config or AIACCConfig()).replace(
        sync_timeout_s=sync_timeout_s, unit_timeout_s=unit_timeout_s,
        comm_retries=comm_retries, retry_backoff_s=retry_backoff_s))
    num_nodes = num_gpus // gpus_per_node
    try:
        plan.membership_bounds(num_nodes)
    except FaultInjectionError as exc:
        raise TrainingError(f"invalid fault plan: {exc}") from exc
    # One sink for the whole run, shared by every rebuilt context.
    obs = obs or Observability.disabled()

    sim = Simulator(check_invariants=check_invariants)

    def _context(world_size: int):
        return build_train_context(
            spec, backend, world_size, spec.default_batch_size,
            gpus_per_node=gpus_per_node, sim=sim, obs=obs)

    ctx = _context(num_gpus)
    injector = FaultInjector(sim, ctx.cluster, ctx.network, obs=obs)
    injector.arm(plan)

    # Checkpoint payloads are stubs: simulated time uses the analytical
    # write cost, so there is no reason to shovel real gigabytes through
    # the filesystem of the machine running the simulation.
    def _stub_state(iteration: int) -> dict:
        return {"theta": np.asarray([iteration], dtype=np.float32)}

    cleanup: tempfile.TemporaryDirectory | None = None
    if checkpoint_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-faults-")
        checkpoint_dir = cleanup.name
    try:
        checkpoints = CheckpointManager(checkpoint_dir, keep_last=3)
        runtime = ElasticRuntime(
            checkpoints, members=range(num_nodes),
            gpus_per_node=gpus_per_node, settings_cache=settings_cache,
            init_parameters=lambda: _stub_state(0))
        # The tuner re-key's model side, fingerprinted once per run.
        cache_key = ModelFingerprint.of(spec) \
            if settings_cache is not None else spec
        ckpt_cost = checkpoint_write_time_s(spec)
        rebuild_cost = restart_overhead_s + broadcast_time_s(spec)
        #: Communicator re-formation pause at a clean epoch boundary —
        #: no process respawn, so a third of the full restart overhead.
        reconfigure_cost = restart_overhead_s / 3.0

        def _install(new_ctx, label: str) -> None:
            """Install a rebuilt context for the group's current members.

            The caller builds ``new_ctx`` right after its membership
            bookkeeping, with no intervening simulated time, so no
            fault can land between the two.
            """
            nonlocal ctx
            ctx = new_ctx
            injector.retarget(ctx.cluster, ctx.network, runtime.members)
            backend.advance_epoch(runtime.epoch)
            rewarm = sim.spawn(backend.warmup(ctx), name=label)
            sim.run(until=rewarm)

        warm = sim.spawn(backend.warmup(ctx), name="warmup")
        sim.run(until=warm)
        start = sim.now

        times: list[float] = []
        recoveries: list[RecoveryRecord] = []
        ckpt_total = 0.0
        wasted = 0
        completed = 0
        while completed < total_iterations:
            proc = sim.spawn(backend.iteration(ctx), name=f"iter{completed}")
            proc.add_callback(lambda _ev: None)  # watch: record, don't raise
            sim.run(until=proc)
            if proc.ok:
                times.append(proc.value.iteration_time_s)
                completed += 1
                if completed % checkpoint_interval == 0:
                    checkpoints.save(completed, _stub_state(completed))
                    ckpt_total += ckpt_cost
                    sim.run(until=sim.timeout(ckpt_cost))

                # Epoch boundary: the group is quiescent.  Admit the
                # net joins first, then remove the net leaves, so a
                # plan the checker accepted never empties the group.
                # With a crash pending the injector hands out neither.
                joins = injector.take_joins()
                if joins:
                    # Scale-up: admit joiners via the pipelined
                    # live-parameter broadcast, re-key the tuner's
                    # best-setting cache for the new topology and
                    # rescale the LR (linear scaling rule).
                    join_cost = reconfigure_cost + broadcast_time_s(spec)
                    live = [_stub_state(completed)
                            for _ in range(runtime.view.world_size)]
                    joined_ctx = _context(runtime.view.world_size
                                          + len(joins) * gpus_per_node)
                    backend.config, tuned_label = runtime.retune(
                        cache_key, joined_ctx.cluster, backend.config)
                    runtime.scale_up(
                        joins, at_s=sim.now, live_parameters=live,
                        resumed_iteration=completed,
                        reconfigure_time_s=join_cost, retuned=tuned_label)
                    _install(joined_ctx, f"rewarm-epoch{runtime.epoch}")
                    sim.run(until=sim.timeout(join_cost))
                    obs.epoch_event(runtime.epoch, sim.now, kind="scale-up",
                                    world=runtime.view.world_size)
                leaves = injector.take_leaves()
                if leaves:
                    # Scale-down: excise the departed ranks and continue
                    # from the survivors' live parameters — nothing is
                    # lost, nothing restores from checkpoint.
                    runtime.scale_down(
                        leaves, at_s=sim.now, resumed_iteration=completed,
                        reconfigure_time_s=reconfigure_cost)
                    _install(_context(runtime.view.world_size),
                             f"rewarm-epoch{runtime.epoch}")
                    sim.run(until=sim.timeout(reconfigure_cost))
                    obs.epoch_event(runtime.epoch, sim.now,
                                    kind="scale-down",
                                    world=runtime.view.world_size)
                continue

            failure = proc.value
            if not isinstance(failure, PeerDeadError):
                raise t.cast(BaseException, failure)
            if len(recoveries) >= max_restarts:
                raise TrainingError(
                    f"exceeded {max_restarts} restarts; aborting"
                )
            backend.abort(failure)
            crashes = injector.take_crashes()
            if not crashes:
                raise TrainingError(
                    "failure detector confirmed a dead peer but no node "
                    "crashed — detection timeouts are too aggressive for "
                    "this configuration"
                )
            # Pay the restart overhead per batch of deaths; more crashes
            # landing during the window extend the outage.
            all_crashes: list[tuple[int, float]] = []
            while crashes:
                all_crashes.extend(crashes)
                obs.fault_event("rebuild", sim.now,
                                nodes=tuple(node for node, _ in crashes))
                sim.run(until=sim.timeout(rebuild_cost))
                crashes = injector.take_crashes()

            dead = [node for node, _ in all_crashes]
            resume_iteration, _params, _transition = runtime.failure(
                dead, at_s=sim.now,
                reconfigure_time_s=sim.now - failure.confirmed_at_s)
            obs.fault_event("restore", sim.now,
                            iteration=resume_iteration)
            _install(_context(runtime.view.world_size), "rewarmup")
            recoveries.append(RecoveryRecord(
                failed_nodes=tuple(dead),
                injected_at_s=min(at_s for _, at_s in all_crashes),
                suspected_at_s=failure.suspected_at_s,
                confirmed_at_s=failure.confirmed_at_s,
                resumed_at_s=sim.now,
                failed_at_iteration=completed,
                resumed_iteration=resume_iteration,
            ))
            obs.epoch_event(runtime.epoch, sim.now, kind="failure",
                            world=runtime.view.world_size)
            wasted += completed - resume_iteration
            completed = resume_iteration
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    return FaultInjectionResult(
        model=spec.name,
        backend=backend.name,
        initial_num_gpus=num_gpus,
        final_num_gpus=ctx.cluster.world_size,
        total_iterations=total_iterations,
        wasted_iterations=wasted,
        total_time_s=sim.now - start,
        checkpoint_time_s=ckpt_total,
        iteration_times_s=tuple(times),
        recoveries=tuple(recoveries),
        obs=obs,
        state_digest=sim.state_digest(),
        epoch_transitions=tuple(runtime.transitions),
        final_epoch=runtime.epoch,
        final_lr_scale=runtime.lr_scale(),
    )
