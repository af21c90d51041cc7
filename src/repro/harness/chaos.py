"""Chaos soak harness for the elastic fault-injected runtime.

The robustness contract of the event-driven engine + elastic membership
runtime is: **any** validated random schedule of crashes, flaps,
stragglers, clean leaves and joins either completes training or fails
with a *typed* clean error (:class:`~repro.errors.ReproError` subclass)
— it never hangs and never silently diverges.  This module soaks that
contract:

* :func:`run_chaos_case` draws a membership-aware random schedule
  (:meth:`~repro.sim.faults.FaultPlan.chaos`) for one seed and runs it
  under the invariant checker, folding the outcome — completion or
  typed failure, the replay digest, the final membership — into a
  deterministic per-seed **outcome digest**.
* :func:`run_chaos_soak` sweeps a seed set, replaying each seed
  ``replays`` times and insisting the outcome digests match across
  replays (replay determinism), then writes the per-seed recovery/epoch
  timeline as JSONL for CI artifacts.

"Never hangs" is enforced structurally, not by wall-clock watchdogs:
the simulator raises :class:`~repro.errors.SimulationError` when the
event queue drains before the run target fires (a deadlock has no
events left), and every detection/recovery path raises a
:class:`~repro.errors.ReproError` subclass.  An exception *outside*
that hierarchy is a harness bug and is allowed to propagate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import typing as t

from repro.errors import ReproError, require_count
from repro.ioutil import atomic_write_text
from repro.models.base import ModelSpec
from repro.models.synthetic import random_model_spec
from repro.sim.faults import FaultPlan
from repro.training.resilience import run_fault_injected_training


def default_chaos_model(seed: int = 0) -> ModelSpec:
    """The small synthetic model the soak runs against."""
    return random_model_spec(seed=seed, num_layers=8,
                             total_parameters=2_000_000,
                             total_forward_flops=1e9)


@dataclasses.dataclass(frozen=True)
class ChaosOutcome:
    """Terminal state of one chaos case (one seed, one replay)."""

    seed: int
    #: ``"completed"`` or the :class:`~repro.errors.ReproError`
    #: subclass name of the typed clean failure.
    status: str
    #: Stringified error for failed cases, ``None`` when completed.
    error: str | None
    #: Number of faults the schedule drew.
    planned_faults: int
    #: Scheduled membership events (crashes + leaves + joins).
    planned_membership_events: int
    #: Event-sequence replay digest (completed cases only).
    state_digest: str | None
    final_world: int | None
    final_epoch: int | None
    epoch_transitions: int
    recoveries: int
    wasted_iterations: int | None
    total_time_s: float | None

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def outcome_digest(self) -> str:
        """Deterministic digest of everything that must replay equal."""
        payload = json.dumps({
            "seed": self.seed,
            "status": self.status,
            "error": self.error,
            "state_digest": self.state_digest,
            "final_world": self.final_world,
            "final_epoch": self.final_epoch,
            "epoch_transitions": self.epoch_transitions,
            "recoveries": self.recoveries,
            "wasted_iterations": self.wasted_iterations,
            "total_time_s": self.total_time_s,
        }, sort_keys=True)
        return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


@dataclasses.dataclass(frozen=True)
class ChaosSoakReport:
    """Aggregate of a seed sweep (every seed replayed ``replays`` times)."""

    outcomes: tuple[ChaosOutcome, ...]
    replays: int

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.completed)

    @property
    def clean_failures(self) -> int:
        return len(self.outcomes) - self.completed

    @property
    def failure_kinds(self) -> dict[str, int]:
        kinds: dict[str, int] = {}
        for outcome in self.outcomes:
            if not outcome.completed:
                kinds[outcome.status] = kinds.get(outcome.status, 0) + 1
        return kinds


def run_chaos_case(
    seed: int,
    model: ModelSpec | None = None,
    num_gpus: int = 8,
    gpus_per_node: int = 2,
    total_iterations: int = 12,
    checkpoint_interval: int = 2,
    horizon_s: float = 2.5,
    mtbf_s: float = 0.35,
    max_extra_nodes: int = 2,
    restart_overhead_s: float = 2.0,
    max_restarts: int = 8,
    settings_cache: t.Any = None,
) -> tuple[ChaosOutcome, t.Any]:
    """Run one random schedule to its terminal state.

    Returns ``(outcome, result)`` where ``result`` is the
    :class:`~repro.training.resilience.FaultInjectionResult` for
    completed cases and ``None`` for typed clean failures.  Exceptions
    outside :class:`~repro.errors.ReproError` propagate — they are
    harness bugs, not chaos outcomes.  A misconfigured soak (fewer than
    two whole nodes, or a count below 1) raises
    :class:`~repro.errors.ReproError` before any schedule runs.
    """
    require_count("total_iterations", total_iterations, 1, ReproError)
    require_count("checkpoint_interval", checkpoint_interval, 1, ReproError)
    gpus_per_node = require_count("gpus_per_node", gpus_per_node, 1,
                                  ReproError)
    if require_count("num_gpus", num_gpus, 2 * gpus_per_node,
                     ReproError) % gpus_per_node:
        raise ReproError(
            f"chaos soak needs >= 2 whole nodes of gpus_per_node >= 1 "
            f"GPUs, got num_gpus={num_gpus}, gpus_per_node={gpus_per_node}")
    spec = model or default_chaos_model()
    plan = FaultPlan.chaos(seed, num_nodes=num_gpus // gpus_per_node,
                           horizon_s=horizon_s, mtbf_s=mtbf_s,
                           max_extra_nodes=max_extra_nodes)
    membership_events = plan.membership_event_count
    try:
        result = run_fault_injected_training(
            spec, plan, num_gpus=num_gpus, gpus_per_node=gpus_per_node,
            total_iterations=total_iterations,
            checkpoint_interval=checkpoint_interval,
            restart_overhead_s=restart_overhead_s,
            sync_timeout_s=0.5, unit_timeout_s=1.0,
            comm_retries=1, retry_backoff_s=0.1, max_restarts=max_restarts,
            check_invariants=True, settings_cache=settings_cache)
    except ReproError as exc:
        return ChaosOutcome(
            seed=seed, status=type(exc).__name__, error=str(exc),
            planned_faults=len(plan),
            planned_membership_events=membership_events,
            state_digest=None, final_world=None, final_epoch=None,
            epoch_transitions=0, recoveries=0, wasted_iterations=None,
            total_time_s=None), None
    return ChaosOutcome(
        seed=seed, status="completed", error=None,
        planned_faults=len(plan),
        planned_membership_events=membership_events,
        state_digest=result.state_digest,
        final_world=result.final_num_gpus,
        final_epoch=result.final_epoch,
        epoch_transitions=len(result.epoch_transitions),
        recoveries=len(result.recoveries),
        wasted_iterations=result.wasted_iterations,
        total_time_s=result.total_time_s), result


def run_chaos_soak(
    seeds: t.Sequence[int],
    replays: int = 2,
    jsonl_path: str | pathlib.Path | None = None,
    **case_kwargs: t.Any,
) -> ChaosSoakReport:
    """Soak a seed set; enforce per-seed replay determinism.

    Each seed runs ``replays`` times; the outcome digests of all replays
    must be identical, otherwise :class:`~repro.errors.ReproError` is
    raised — a chaos schedule whose terminal state depends on anything
    but the seed is a determinism bug.  With ``jsonl_path`` set, one
    JSON line per seed records the outcome plus its recovery and
    epoch-transition timeline (the CI artifact).
    """
    if not seeds:
        raise ReproError("chaos soak needs at least one seed")
    require_count("replays", replays, 1, ReproError)
    outcomes: list[ChaosOutcome] = []
    lines: list[str] = []
    for seed in seeds:
        outcome, result = run_chaos_case(seed, **case_kwargs)
        digest = outcome.outcome_digest()
        for _replay in range(replays - 1):
            again, _ = run_chaos_case(seed, **case_kwargs)
            if again.outcome_digest() != digest:
                raise ReproError(
                    f"chaos seed {seed} is not replay-deterministic: "
                    f"{outcome} vs {again}"
                )
        outcomes.append(outcome)
        if jsonl_path is not None:
            lines.append(json.dumps(_timeline_record(outcome, result),
                                    sort_keys=True))
    if jsonl_path is not None:
        # Atomic (temp + os.replace): a soak killed mid-write must not
        # leave a truncated artifact for CI/report consumers to choke on.
        atomic_write_text(jsonl_path, "\n".join(lines) + "\n")
    return ChaosSoakReport(outcomes=tuple(outcomes), replays=replays)


def _timeline_record(outcome: ChaosOutcome, result: t.Any) -> dict:
    """JSONL payload for one seed: outcome + recovery/epoch timeline."""
    record: dict[str, t.Any] = {
        "seed": outcome.seed,
        "status": outcome.status,
        "error": outcome.error,
        "outcome_digest": outcome.outcome_digest(),
        "planned_faults": outcome.planned_faults,
        "planned_membership_events": outcome.planned_membership_events,
        "recoveries": [],
        "epoch_transitions": [],
    }
    if result is None:
        return record
    record.update(
        state_digest=result.state_digest,
        final_world=result.final_num_gpus,
        final_epoch=result.final_epoch,
        total_time_s=result.total_time_s,
        wasted_iterations=result.wasted_iterations,
    )
    record["recoveries"] = [
        {
            "failed_nodes": list(r.failed_nodes),
            "injected_at_s": r.injected_at_s,
            "suspected_at_s": r.suspected_at_s,
            "confirmed_at_s": r.confirmed_at_s,
            "resumed_at_s": r.resumed_at_s,
            "failed_at_iteration": r.failed_at_iteration,
            "resumed_iteration": r.resumed_iteration,
        }
        for r in result.recoveries
    ]
    record["epoch_transitions"] = [
        {
            "epoch": tr.epoch,
            "at_s": tr.at_s,
            "kind": tr.kind,
            "departed": list(tr.departed),
            "joined": list(tr.joined),
            "world_before": tr.world_before,
            "world_after": tr.world_after,
            "live_continuation": tr.live_continuation,
            "broadcast_identical": tr.broadcast_identical,
            "resumed_iteration": tr.resumed_iteration,
            "lr_scale": tr.lr_scale,
            "reconfigure_time_s": tr.reconfigure_time_s,
            "retuned": tr.retuned,
        }
        for tr in result.epoch_transitions
    ]
    return record
