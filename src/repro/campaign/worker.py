"""Campaign worker: executes one grid cell inside a pool process.

:func:`execute_run` is the process-pool entry point.  Its contract with
the orchestrator is deliberately thin — everything durable goes through
the store, from *inside the worker process*:

* each cell costs two store transactions: ``mark_running`` begins it
  (token check, claimed -> running, and the ``done`` twin lookup) and
  ``record_done``/``record_failure`` finishes it;
* a worker process keeps one store open across the cells it serves,
  reopened only when the store path, the file's inode or the pid
  changes, so a forked pool never uses its parent's connection;
* one daemon lease-keeper thread per process extends the lease of
  every running cell every ``lease_s / 3`` (so long cells are not
  falsely declared dead) and drops a claim whose beat finds it stale;
* a cell whose run (:func:`~repro.campaign.grid.run_key`) already has a
  ``done`` twin in the campaign records that twin's result verbatim,
  with ``reused_from`` naming it, instead of simulating the run again —
  runs are deterministic functions of their spec, so the copy is the
  result the simulation would produce;
* a result JSON cannot encode is a failure of the run, recorded through
  the retry policy like any exception the runner raises;
* the orchestrator merely schedules; if it is ``kill -9``-ed the moment
  a worker finishes, the finished cell is already recorded and a resume
  will not re-run it;
* if the *worker* dies mid-run (SIGKILL, OOM), nothing is recorded, its
  keeper dies with it, and the lease expiry re-queues the cell.

Runners are looked up by name in :data:`RUNNERS` so specs stay plain
JSON across the process boundary and across store restarts.  Paper
runners (``measure``, ``hybrid``, ``chaos``) regenerate evaluation
cells; injection runners (``sleep``, ``flaky``, ``broken``,
``alternating``, ``kamikaze``) exist to prove the robustness contract
in tests and CI.
"""

from __future__ import annotations

import contextlib
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
from repro.campaign.store import CampaignStore, encode_result
from repro.errors import CampaignError, ReproError, TransientWorkerError, \
    require_real


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
    unknown, missing or mistyped keys raise :class:`CampaignError`.
    :func:`~repro.harness.experiments.measure_hybrid` checks the
    counts."""
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
    return kwargs


def hybrid_runner(params: dict, _ctx: RunContext) -> dict:
    """Fig. 13 cell: hybrid data+model parallelism throughput."""
    from repro.harness.experiments import measure_hybrid

    kwargs = hybrid_kwargs(params)
    result = measure_hybrid(**kwargs)
    return {
        "model": kwargs["model"],
        "backend": kwargs["backend"],
        "gpus": result.num_gpus,
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
            if key not in FAULT_PLAN_KEYS:
                raise CampaignError(
                    f"fault plan {text!r}: want {' or '.join(FAULT_PLAN_KEYS)}"
                    f" set to a finite positive number")
            kwargs[key] = require_real(f"fault plan {key}", number,
                                       CampaignError, positive=True)
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
    recorded, the lease keeper dies, and the lease-expiry reclaim must
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

class _StoreSlot:
    """An open :class:`CampaignStore` on one path, reopened only when the
    path, the file's inode or the pid changes.

    The open connection keeps the file's inode allocated, so a store
    deleted and re-created at the same path always shows a new inode.
    A store opened before a ``fork`` belongs to the parent: the child
    neither uses nor closes it (SQLite connections must not cross a
    fork) and parks it in :data:`_INHERITED` instead.
    """

    store: CampaignStore | None = None
    key: tuple[str, int, int, int] | None = None

    def get(self, path: str) -> CampaignStore:
        pid = os.getpid()
        if self.key != (path, *_identity(path), pid):
            if self.store is not None and self.key is not None:
                if self.key[-1] == pid:
                    self.store.close()
                else:
                    _INHERITED.append(self.store)
            self.store = CampaignStore(path)
            self.key = (path, *_identity(path), pid)
        return self.store


class _ThreadStoreSlot(_StoreSlot, threading.local):
    """A :class:`_StoreSlot` per thread: a connection serves only the
    thread that opened it."""


def _identity(path: str) -> tuple[int, int]:
    """``(device, inode)`` of the file at ``path``; ``(-1, -1)`` if none."""
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return -1, -1
    return stat.st_dev, stat.st_ino


#: Stores a forked child inherited from its parent, kept referenced so
#: that they are never closed in the child.
_INHERITED: list[CampaignStore] = []

#: The store :func:`execute_run` reuses across the cells of a process.
_WORKER_STORE = _ThreadStoreSlot()


@dataclasses.dataclass
class _Claim:
    """A claim the lease keeper extends, and when it is next due."""

    path: str
    campaign_id: int
    spec_id: str
    token: str
    lease_s: float
    #: ``time.monotonic()`` instant of the next beat.
    due: float = 0.0

    @property
    def interval(self) -> float:
        return max(0.05, self.lease_s / 3.0)


class _LeaseKeeper:
    """One daemon thread per process that extends every held claim's
    lease every ``lease_s / 3``.

    The thread starts with the first claim held in the process and
    beats over its own connection, opened at its first beat: a process
    whose cells all end within one interval never opens it.  A beat that
    finds its claim stale drops that claim; the others keep beating.  A
    forked child starts a keeper of its own.
    """

    def __init__(self) -> None:
        self._pid: int | None = None

    def _start(self) -> None:
        if self._pid is not None and self._slot.store is not None:
            _INHERITED.append(self._slot.store)
        self._pid = os.getpid()
        self._slot = _StoreSlot()
        self._cond = threading.Condition()
        self._claims: dict[str, _Claim] = {}
        #: When the thread next wakes by itself: holding a claim due
        #: later needs no wake-up.
        self._wake_at = math.inf
        threading.Thread(target=self._run, name="lease-keeper",
                         daemon=True).start()

    @contextlib.contextmanager
    def hold(self, path: str, campaign_id: int, spec_id: str, token: str,
             lease_s: float) -> t.Iterator[None]:
        """Extend the claim's lease until the block exits."""
        if self._pid != os.getpid():
            self._start()
        claim = _Claim(path, campaign_id, spec_id, token, lease_s)
        with self._cond:
            claim.due = time.monotonic() + claim.interval
            self._claims[token] = claim
            if claim.due < self._wake_at:
                self._wake_at = claim.due
                self._cond.notify()
        try:
            yield
        finally:
            self._drop(token)

    def _drop(self, token: str) -> None:
        with self._cond:
            self._claims.pop(token, None)

    def _due(self) -> list[_Claim]:
        """Wait for the next beat; the claims due now, rescheduled."""
        with self._cond:
            while True:
                now = time.monotonic()
                due = [claim for claim in self._claims.values()
                       if claim.due <= now]
                if due:
                    for claim in due:
                        claim.due = now + claim.interval
                    return due
                self._wake_at = min((claim.due for claim in
                                     self._claims.values()),
                                    default=math.inf)
                self._cond.wait(None if self._wake_at == math.inf
                                else self._wake_at - now)

    def _run(self) -> None:
        while True:
            for claim in self._due():
                try:
                    live = self._slot.get(claim.path).heartbeat(
                        claim.campaign_id, claim.spec_id, claim.token,
                        claim.lease_s)
                except ReproError:  # the store went away under the claim
                    live = False
                if not live:
                    self._drop(claim.token)


_KEEPER = _LeaseKeeper()


def execute_run(store_path: str, campaign_id: int, spec_id: str,
                claim_token: str, lease_s: float,
                policy_payload: dict) -> str:
    """Execute one claimed run and durably record its terminal state.

    Two store transactions bracket the cell: ``mark_running`` begins it
    and returns its ``done`` twin, and ``record_done`` (or
    ``record_failure``) finishes it.  The store stays open across the
    cells a process serves, and the process's lease keeper extends the
    claim while the runner works.

    Returns the resulting state name (for orchestrator logging only —
    the store already holds the truth).  Never raises for run
    failures, a result JSON cannot encode included; only
    infrastructure problems (store unreachable) propagate to the pool.
    """
    policy = RetryPolicy.from_payload(policy_payload)
    store = _WORKER_STORE.get(store_path)
    begun = store.mark_running(campaign_id, spec_id, claim_token)
    if begun is None:
        return "stale"
    row, twin = begun
    runner = RUNNERS.get(row.runner)
    if runner is None:
        state = store.record_failure(
            campaign_id, spec_id, claim_token, policy,
            error_class="UnknownRunner",
            error=f"no runner named {row.runner!r}",
            traceback_text="", wall_time_s=0.0)
        return state or "stale"
    if twin is not None:
        source, result = twin
        if store.record_done(campaign_id, spec_id, claim_token, result,
                             wall_time_s=0.0, reused_from=source):
            return "done"
        return "stale"

    context = RunContext(attempt=row.attempt, spec_id=spec_id,
                         campaign_id=campaign_id)
    started = time.perf_counter()
    try:
        with _KEEPER.hold(store_path, campaign_id, spec_id, claim_token,
                          lease_s):
            result = runner(dict(row.params), context)
        wall = time.perf_counter() - started
        encoded = encode_result(result)
    except Exception as exc:
        state = store.record_failure(
            campaign_id, spec_id, claim_token, policy,
            error_class=type(exc).__name__, error=str(exc),
            traceback_text=traceback.format_exc(),
            wall_time_s=time.perf_counter() - started)
        return state or "stale"
    if store.record_done(campaign_id, spec_id, claim_token, encoded,
                         wall_time_s=wall):
        return "done"
    return "stale"
