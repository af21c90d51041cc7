"""Campaign worker: executes one grid cell inside a pool process.

:func:`execute_run` is the process-pool entry point.  Its contract with
the orchestrator is deliberately thin — everything durable goes through
the store, from *inside the worker process*:

* the worker marks the run ``running``, heartbeats its claim lease from
  a background thread (so long cells are not falsely declared dead),
  and records ``done``/``failed``/``quarantined`` itself;
* a cell whose run (:func:`~repro.campaign.grid.run_key`) already has a
  ``done`` twin in the campaign records that twin's result verbatim,
  with ``reused_from`` naming it, instead of simulating the run again —
  runs are deterministic functions of their spec, so the copy is the
  result the simulation would produce;
* the orchestrator merely schedules; if it is ``kill -9``-ed the moment
  a worker finishes, the finished cell is already recorded and a resume
  will not re-run it;
* if the *worker* dies mid-run (SIGKILL, OOM), nothing is recorded, the
  heartbeat stops, and the lease expiry re-queues the cell.

Runners are looked up by name in :data:`RUNNERS` so specs stay plain
JSON across the process boundary and across store restarts.  Paper
runners (``measure``, ``hybrid``, ``chaos``) regenerate evaluation
cells; injection runners (``sleep``, ``flaky``, ``broken``,
``alternating``, ``kamikaze``) exist to prove the robustness contract
in tests and CI.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import threading
import time
import traceback
import typing as t

from repro.campaign.grid import RUN_LABELS
from repro.campaign.policy import RetryPolicy
from repro.campaign.store import CampaignStore
from repro.errors import CampaignError, ReproError, TransientWorkerError


class InjectedFailure(ReproError):
    """Deterministic failure raised by the ``broken`` test runner."""


@dataclasses.dataclass(frozen=True)
class RunContext:
    """Execution context handed to every runner."""

    #: 1-based attempt number (incremented at claim time).
    attempt: int
    spec_id: str
    campaign_id: int


Runner = t.Callable[[dict, RunContext], t.Mapping[str, object]]


# --------------------------------------------------------------------------
# Paper runners
# --------------------------------------------------------------------------

def measure_kwargs(params: t.Mapping[str, object]) -> dict[str, t.Any]:
    """A ``measure`` cell's :func:`~repro.harness.experiments.measure`
    keywords: labels and ``diagnose`` dropped, ``backend`` defaulted to
    ``aiacc``; unknown, missing or mistyped keys raise
    :class:`CampaignError`."""
    from repro.harness.experiments import MEASURE_PARAMS

    kwargs = {key: value for key, value in params.items()
              if key not in RUN_LABELS["measure"] and key != "diagnose"}
    unknown = sorted(set(kwargs) - set(MEASURE_PARAMS))
    if unknown:
        raise CampaignError(f"unknown measure cell parameters {unknown}")
    missing = [key for key in ("model", "gpus") if key not in kwargs]
    if missing:
        raise CampaignError(f"measure cell needs {missing}")
    if not isinstance(params.get("diagnose", False), bool):
        raise CampaignError(
            f"diagnose must be true or false, got {params['diagnose']!r}")
    kwargs.setdefault("backend", "aiacc")
    return kwargs


def measure_runner(params: dict, _ctx: RunContext) -> dict:
    """One throughput cell: model x backend x gpus (x stream tuning).

    ``"diagnose": true`` in the cell parameters runs the cell under a
    full observability bundle with streaming detectors attached and
    records the typed findings (plus their canonical digest) in the
    durable result, so a campaign doubles as a regression sweep.  Cells
    without the flag record exactly the pre-diagnosis result payload —
    existing campaign digests are stable.
    """
    from repro.harness.experiments import measure

    kwargs = measure_kwargs(params)
    obs = None
    if params.get("diagnose"):
        from repro.obs import Observability

        obs = Observability(enabled=True)
        obs.attach_detectors()
    result = measure(**kwargs, obs=obs)
    payload: dict[str, object] = {
        "model": result.model,
        "backend": result.backend,
        "gpus": result.num_gpus,
        "batch_per_gpu": result.batch_per_gpu,
        "mean_iteration_s": result.mean_iteration_s,
        "throughput": result.throughput,
        "scaling_efficiency": result.scaling_efficiency,
        "exposed_comm_s": result.exposed_comm_s,
    }
    if obs is not None:
        from repro.obs.diagnosis import diagnose

        report = diagnose(obs)
        payload["findings"] = [f.record() for f in report.findings]
        payload["findings_digest"] = report.findings_digest
    return payload


#: A ``hybrid`` cell's parameters besides its labels.
HYBRID_PARAMS = ("model", "backend", "gpus", "model_parallel_degree")


def hybrid_kwargs(params: t.Mapping[str, object]) -> dict[str, t.Any]:
    """A ``hybrid`` cell's run settings: labels dropped, ``backend``
    defaulted to ``aiacc`` and ``model_parallel_degree`` to 2;
    unknown, missing or mistyped keys raise :class:`CampaignError`."""
    kwargs = {key: value for key, value in params.items()
              if key not in RUN_LABELS["hybrid"]}
    unknown = sorted(set(kwargs) - set(HYBRID_PARAMS))
    if unknown:
        raise CampaignError(f"unknown hybrid cell parameters {unknown}")
    missing = [key for key in ("model", "gpus") if key not in kwargs]
    if missing:
        raise CampaignError(f"hybrid cell needs {missing}")
    kwargs.setdefault("backend", "aiacc")
    kwargs.setdefault("model_parallel_degree", 2)
    for key in ("model", "backend"):
        if not isinstance(kwargs[key], str):
            raise CampaignError(
                f"hybrid {key} must be a name, got {kwargs[key]!r}")
    for key in ("gpus", "model_parallel_degree"):
        value = kwargs[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value) or value != int(value) \
                or value < 1:
            raise CampaignError(
                f"hybrid {key} must be a whole number >= 1, got {value!r}")
        kwargs[key] = int(value)
    return kwargs


def hybrid_runner(params: dict, _ctx: RunContext) -> dict:
    """Fig. 13 cell: hybrid data+model parallelism throughput."""
    from repro.harness.experiments import measure_hybrid

    kwargs = hybrid_kwargs(params)
    result = measure_hybrid(**kwargs)
    return {
        "model": kwargs["model"],
        "backend": kwargs["backend"],
        "gpus": kwargs["gpus"],
        "throughput": result.throughput,
        "mean_iteration_s": result.mean_iteration_s,
    }


#: The settings a ``chaos:`` fault plan may name.
FAULT_PLAN_KEYS = ("horizon", "mtbf")


def parse_fault_plan(text: str) -> dict[str, float]:
    """``"chaos:mtbf=0.35,horizon=2.5"`` -> its keyword arguments; any
    other key, or a value that is not finite and positive, raises."""
    kind, _, body = text.partition(":")
    if kind != "chaos":
        raise CampaignError(f"unknown fault plan {text!r}")
    kwargs: dict[str, float] = {}
    if body:
        for item in body.split(","):
            key, _, value = item.partition("=")
            if not _ or not key:
                raise CampaignError(f"malformed fault plan {text!r}")
            try:
                number = float(value)
            except ValueError as exc:
                raise CampaignError(
                    f"malformed fault plan {text!r}: {exc}") from exc
            if key not in FAULT_PLAN_KEYS or not 0 < number < math.inf:
                raise CampaignError(
                    f"fault plan {text!r}: want {' or '.join(FAULT_PLAN_KEYS)}"
                    f" set to a finite positive number")
            kwargs[key] = number
    return kwargs


def chaos_runner(params: dict, _ctx: RunContext) -> dict:
    """One chaos-soak seed as a durable campaign cell."""
    from repro.harness.chaos import run_chaos_case

    plan = parse_fault_plan(str(params.get("fault_plan", "chaos:")))
    outcome, _result = run_chaos_case(
        int(t.cast(int, params.get("seed", 0))),
        num_gpus=int(t.cast(int, params.get("gpus", 8))),
        gpus_per_node=int(t.cast(int, params.get("gpus_per_node", 2))),
        total_iterations=int(t.cast(int, params.get("iterations", 12))),
        horizon_s=plan.get("horizon", 2.5),
        mtbf_s=plan.get("mtbf", 0.35))
    return {
        "seed": outcome.seed,
        "status": outcome.status,
        "error": outcome.error,
        "outcome_digest": outcome.outcome_digest(),
        "final_world": outcome.final_world,
        "final_epoch": outcome.final_epoch,
        "epoch_transitions": outcome.epoch_transitions,
        "recoveries": outcome.recoveries,
    }


# --------------------------------------------------------------------------
# Injection runners (robustness tests and CI smoke)
# --------------------------------------------------------------------------

def sleep_runner(params: dict, ctx: RunContext) -> dict:
    """Hold the cell busy; the knob that makes crash windows testable."""
    time.sleep(float(t.cast(float, params.get("duration_s", 0.1))))
    return {"slept_s": params.get("duration_s", 0.1),
            "cell": params.get("cell")}


def flaky_runner(params: dict, ctx: RunContext) -> dict:
    """Transient failure: raises until attempt ``succeed_at`` is reached."""
    succeed_at = int(t.cast(int, params.get("succeed_at", 2)))
    if ctx.attempt < succeed_at:
        raise TransientWorkerError(
            f"injected transient failure on attempt {ctx.attempt}")
    return {"cell": params.get("cell"), "succeeded_on_attempt_ge":
            succeed_at}


def broken_runner(params: dict, ctx: RunContext) -> dict:
    """Deterministic failure: the same error class on every attempt."""
    raise InjectedFailure(
        f"injected deterministic failure (cell {params.get('cell')})")


def alternating_runner(params: dict, ctx: RunContext) -> dict:
    """A different error class each attempt: never looks deterministic,
    so the retry budget (not the quarantine heuristic) must stop it."""
    if ctx.attempt % 2:
        raise TransientWorkerError(
            f"odd-attempt failure (attempt {ctx.attempt})")
    raise InjectedFailure(f"even-attempt failure (attempt {ctx.attempt})")


def kamikaze_runner(params: dict, ctx: RunContext) -> dict:
    """SIGKILL the worker process mid-run for ``die_attempts`` attempts.

    Models a hard worker loss (OOM killer, spot preemption): nothing is
    recorded, the heartbeat stops, and the lease-expiry reclaim must
    re-queue the cell; later attempts complete deterministically.
    """
    if ctx.attempt <= int(t.cast(int, params.get("die_attempts", 1))):
        os.kill(os.getpid(), signal.SIGKILL)
    return {"cell": params.get("cell"), "survived_attempt": True}


#: Runner registry: spec ``runner`` name -> callable.
RUNNERS: dict[str, Runner] = {
    "measure": measure_runner,
    "hybrid": hybrid_runner,
    "chaos": chaos_runner,
    "sleep": sleep_runner,
    "flaky": flaky_runner,
    "broken": broken_runner,
    "alternating": alternating_runner,
    "kamikaze": kamikaze_runner,
}


# --------------------------------------------------------------------------
# Pool entry point
# --------------------------------------------------------------------------

class _HeartbeatThread(threading.Thread):
    """Extends the claim lease every ``lease_s / 3`` over its own store
    connection until stopped (or until the claim goes stale).

    The connection is opened at the first beat, one interval in: a cell
    that ends sooner never opens it.
    """

    def __init__(self, store_path: str, campaign_id: int, spec_id: str,
                 claim_token: str, lease_s: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{spec_id}")
        self._args = (campaign_id, spec_id, claim_token, lease_s)
        self._store_path = store_path
        #: Not ``_stop``: ``Thread.join`` calls its own ``_stop`` method.
        self._halt = threading.Event()

    def run(self) -> None:
        campaign_id, spec_id, token, lease_s = self._args
        interval = max(0.05, lease_s / 3.0)
        if self._halt.wait(interval):
            return
        try:
            with CampaignStore(self._store_path) as store:
                while store.heartbeat(campaign_id, spec_id, token, lease_s):
                    if self._halt.wait(interval):
                        return
        except ReproError:  # pragma: no cover - store teardown race
            pass

    def stop(self) -> None:
        self._halt.set()


def execute_run(store_path: str, campaign_id: int, spec_id: str,
                claim_token: str, lease_s: float,
                policy_payload: dict) -> str:
    """Execute one claimed run and durably record its terminal state.

    Returns the resulting state name (for orchestrator logging only —
    the store already holds the truth).  Never raises for run
    failures; only infrastructure problems (store unreachable)
    propagate to the pool.
    """
    policy = RetryPolicy.from_payload(policy_payload)
    with CampaignStore(store_path) as store:
        row = store.run(campaign_id, spec_id)
        if row.claim_token != claim_token:
            return "stale"
        if not store.mark_running(campaign_id, spec_id, claim_token):
            return "stale"
        try:
            runner = RUNNERS[row.runner]
        except KeyError:
            state = store.record_failure(
                campaign_id, spec_id, claim_token, policy,
                error_class="UnknownRunner",
                error=f"no runner named {row.runner!r}",
                traceback_text="", wall_time_s=0.0)
            return state or "stale"

        twin = (store.done_twin(campaign_id, row.run_key)
                if row.run_key is not None else None)
        if twin is not None:
            source, result = twin
            if store.record_done(campaign_id, spec_id, claim_token, result,
                                 wall_time_s=0.0, reused_from=source):
                return "done"
            return "stale"

        heartbeat = _HeartbeatThread(store_path, campaign_id, spec_id,
                                     claim_token, lease_s)
        heartbeat.start()
        context = RunContext(attempt=row.attempt, spec_id=spec_id,
                             campaign_id=campaign_id)
        started = time.perf_counter()
        try:
            result = runner(dict(row.params), context)
        except Exception as exc:
            wall = time.perf_counter() - started
            heartbeat.stop()
            state = store.record_failure(
                campaign_id, spec_id, claim_token, policy,
                error_class=type(exc).__name__, error=str(exc),
                traceback_text=traceback.format_exc(), wall_time_s=wall)
            return state or "stale"
        wall = time.perf_counter() - started
        heartbeat.stop()
        if store.record_done(campaign_id, spec_id, claim_token,
                             dict(result), wall_time_s=wall):
            return "done"
        return "stale"
