"""The benchmark's five workloads and the golden values that check them.

Every workload is a closed loop with one client and no think time: the
next op starts when the previous one returns.  A workload builds its
state in :meth:`Workload.setup` (which ends with one untimed warm-up
op) and then hands out *rounds* of ops; a round is the unit whose op mix
repeats, so rates are taken over whole rounds.  Each op is a pair of
callables: the timed work, and an untimed check of its output against
``golden.json``.  Simulated step times and digests are checks, never
metrics: a change that alters the model fails its ops.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
import random
import shutil
import tempfile
import typing as t

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")

#: Relative tolerance on simulated step times.  Steps replayed on a
#: warm context drift in the 12th digit (event times are absolute), so
#: exact equality would fail on correct code.
STEP_RTOL = 1e-9

#: Claim lease of a figures-sweep cell; long enough that the worker's
#: heartbeat thread never has to renew it during one cell.
LEASE_S = 60.0

Op = tuple[t.Callable[[], object], t.Callable[[object], None]]


class CheckFailed(Exception):
    """An op's output differs from its golden value."""


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class Workload:
    """One set of inputs the benchmark runs."""

    name: t.ClassVar[str]
    why: t.ClassVar[str]

    def __init__(self, golden: dict, scratch: pathlib.Path) -> None:
        self.golden = golden
        #: Directory inside the checkout for files the workload writes.
        self.scratch = scratch
        self.seed = 0

    def setup(self, seed: int) -> None:
        """Build the workload's state and run one untimed warm-up op."""
        raise NotImplementedError

    def round(self, index: int) -> list[Op]:
        """The ops of round ``index``; same seed and index, same ops."""
        raise NotImplementedError

    def finish_round(self, complete: bool) -> list[str]:
        """Round-level checks after the round's ops; returns failures."""
        return []

    def close(self) -> None:
        """Release what :meth:`setup` or a round opened."""


# -- simulated training steps -------------------------------------------------


@dataclasses.dataclass(frozen=True)
class StepConfig:
    """One full-link training-step configuration (AIACC backend)."""

    name: str
    ranks: int
    streams: int = 4
    model: str = "resnet50"
    algorithm: str = "ring"
    #: Node 0's NIC at 90% foreign load.
    congested: bool = False
    core_oversubscription: float = 1.0


def build_step_context(config: StepConfig) -> tuple[t.Any, t.Any]:
    """A warmed-up training context for ``config``.

    The same construction as the ``step-*`` cells of
    ``BENCH_simulator.json``, so the simulated step times agree with it.
    """
    from repro.core.runtime import AIACCConfig
    from repro.frameworks import make_backend
    from repro.models.zoo import get_model
    from repro.training import trainer

    backend = make_backend("aiacc", config=AIACCConfig(
        num_streams=config.streams, algorithm=config.algorithm))
    spec = get_model(config.model)
    congested = {0: 0.9} if config.congested else None
    full_link_default = (congested is None
                         and config.core_oversubscription == 1.0)
    # Looked up on the module at call time so a traced run sees it.
    ctx = trainer.build_train_context(
        spec, backend, config.ranks, spec.default_batch_size,
        congested_links=congested,
        core_oversubscription=config.core_oversubscription,
        representative=False if full_link_default else None)
    warm = ctx.sim.spawn(backend.warmup(ctx), name="warmup")
    ctx.sim.run(until=warm)
    return ctx, backend


def simulate_step(ctx: t.Any, backend: t.Any) -> float:
    """Simulate one training step; returns its simulated seconds."""
    proc = ctx.sim.spawn(backend.iteration(ctx), name="bench-iter")
    ctx.sim.run(until=proc)
    return proc.value.iteration_time_s


class StepWorkload(Workload):
    """One op simulates one step of every config, in seed-shuffled order.

    The op is the whole mix rather than one step because the configs'
    step costs differ by up to 4x: percentiles over single steps would
    fall in the gap between two configs and jump with noise.
    """

    configs: t.ClassVar[tuple[StepConfig, ...]]

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.contexts = {config.name: build_step_context(config)
                         for config in self.configs}
        self._check(self._steps([config.name for config in self.configs]))

    def round(self, index: int) -> list[Op]:
        order = [config.name for config in self.configs]
        random.Random(f"{self.seed}:{index}").shuffle(order)
        return [(functools.partial(self._steps, order), self._check)]

    def _steps(self, order: list[str]) -> list[tuple[str, float]]:
        return [(name, simulate_step(*self.contexts[name])) for name in order]

    def _check(self, steps: object) -> None:
        for name, step_s in t.cast("list[tuple[str, float]]", steps):
            expected = self.golden["step_time_s"][name]
            if abs(step_s - expected) > STEP_RTOL * abs(expected):
                raise CheckFailed(f"{name}: simulated step {step_s!r} s, "
                                  f"golden {expected!r} s")

    def close(self) -> None:
        self.contexts = {}


class RingSmall(StepWorkload):
    name = "ring-small"
    why = ("1-32 rank full-link AIACC rings sit below every solver size "
           "gate; the 1-rank config is the single-worker baseline and the "
           "engine floor")
    configs = (StepConfig("step-1r", 1), StepConfig("step-8r", 8),
               StepConfig("step-16r", 16), StepConfig("step-32r", 32))


class RingLarge(StepWorkload):
    name = "ring-large"
    why = ("256-4096 rank rings exercise vector water-filling, batched "
           "flow insertion, flow bundles and the cached collective launch")
    configs = (StepConfig("step-256r", 256), StepConfig("step-1024r", 1024),
               StepConfig("step-4096r", 4096))


class ContendedFabric(StepWorkload):
    name = "contended-fabric"
    why = ("congested hierarchical 256-rank step and a 4:1-spine ina "
           "step: the fair-share solver's worst case, plus the planner")
    configs = (StepConfig("stress-256r-hier", 256, streams=24,
                          model="vgg16", algorithm="hierarchical",
                          congested=True),
               StepConfig("planner-128r-ina", 128, algorithm="ina",
                          core_oversubscription=4.0))


# -- the Fig. 9-13 campaign ---------------------------------------------------


def cell_key(params: t.Mapping[str, object]) -> str:
    """A cell's identity without its ``seed`` (which only reorders claims)."""
    return json.dumps({k: v for k, v in sorted(params.items())
                       if k != "seed"}, sort_keys=True)


class _CampaignRound:
    """A fresh campaign store holding one copy of the grid."""

    def __init__(self, scratch: pathlib.Path, specs: t.Sequence[t.Any]) -> None:
        from repro.campaign.policy import RetryPolicy
        from repro.campaign.store import CampaignStore

        self.directory = pathlib.Path(tempfile.mkdtemp(dir=scratch))
        self.path = str(self.directory / "campaign.db")
        self.store = CampaignStore(self.path)
        self.campaign_id = self.store.create_campaign("bench")
        self.store.add_runs(self.campaign_id, specs)
        self.policy = RetryPolicy().to_payload()

    def claim_and_run(self) -> tuple[str, str]:
        """Claim the next pending cell and execute it, as a worker does."""
        from repro.campaign import worker

        row = self.store.claim_next(self.campaign_id, "bench", LEASE_S)
        if row is None:
            raise CheckFailed("no pending cell left to claim")
        state = worker.execute_run(self.path, self.campaign_id, row.spec_id,
                                   row.claim_token, LEASE_S, self.policy)
        return row.spec_id, state

    def cell(self, spec_id: str) -> tuple[str, str | None]:
        """``(cell key, result digest)`` of a finished cell."""
        row = self.store.run(self.campaign_id, spec_id)
        return cell_key(row.params), \
            _digest(row.result) if row.state == "done" else None

    def report_digest(self) -> str:
        from repro.campaign.report import load_report

        return load_report(self.store, self.campaign_id).digest()

    def close(self) -> None:
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def figure_specs(seed: int) -> list[t.Any]:
    """The Fig. 9-13 grid with its ``seed`` base parameter set to ``seed``."""
    from repro.campaign.grid import expand_grids, figures_grids

    return expand_grids([dataclasses.replace(g, base={**g.base, "seed": seed})
                         for g in figures_grids()])


class FiguresSweep(Workload):
    name = "figures-sweep"
    why = ("the Fig. 9-13 campaign grid through a fresh SQLite store, cell "
           "by cell: per-cell setup, representative-mode steps and store "
           "writes")

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.specs = figure_specs(seed)
        self.current: _CampaignRound | None = None
        # Warm up on one fixed cell, so set-up costs the same for every seed.
        first = min(self.specs, key=lambda spec: cell_key(spec.params))
        warm = _CampaignRound(self.scratch, [first])
        try:
            self._check_cell(warm, warm.claim_and_run())
        finally:
            warm.close()

    def round(self, index: int) -> list[Op]:
        self.current = _CampaignRound(self.scratch, self.specs)
        current = self.current
        return [(current.claim_and_run,
                 functools.partial(self._check_cell, current))
                for _ in self.specs]

    def _check_cell(self, current: _CampaignRound, outcome: object) -> None:
        spec_id, state = t.cast("tuple[str, str]", outcome)
        key, digest = current.cell(spec_id)
        if state != "done":
            raise CheckFailed(f"cell {key} ended {state}")
        expected = self.golden["figures"]["cells"].get(key)
        if digest != expected:
            raise CheckFailed(f"cell {key}: result digest {digest}, "
                              f"golden {expected}")

    def finish_round(self, complete: bool) -> list[str]:
        if self.current is None:
            return []
        errors = []
        if complete and self.seed == 0:
            digest = self.current.report_digest()
            expected = self.golden["figures"]["report_digest_seed0"]
            if digest != expected:
                errors.append(f"seed-0 report digest {digest}, "
                              f"golden {expected}")
        self.current.close()
        self.current = None
        return errors

    def close(self) -> None:
        if self.current is not None:
            self.current.close()
            self.current = None


# -- the multi-tenant cluster -------------------------------------------------

#: The tenant that gets faults; the others must stay numerically untouched.
CHAOS_JOB = "jobA"
ISOLATED_JOBS = ("jobB", "jobC")
#: Poisson fault process on the chaos tenant: about four faults a run.
MTBF_S = 0.5
HORIZON_S = 6.0


def chaos_plan(seed: int, index: int, num_nodes: int) -> t.Any:
    """Op ``index``'s fault plan: crash, flap, degradation or straggler."""
    from repro.sim.faults import (
        BandwidthDegradation,
        FaultPlan,
        LinkFlap,
        NodeCrash,
        Straggler,
    )

    return FaultPlan.poisson(
        mtbf_s=MTBF_S, horizon_s=HORIZON_S, num_nodes=num_nodes,
        seed=seed * 1_000_003 + index,
        kinds=(NodeCrash, LinkFlap, BandwidthDegradation, Straggler))


class TenantsChaos(Workload):
    name = "tenants-chaos"
    why = ("the committed 3-job cluster with seeded faults on one tenant: "
           "the only load that mutates the fabric in flight and pays "
           "detector cost")

    def setup(self, seed: int) -> None:
        from repro.cluster.runtime import three_job_scenario

        self.seed = seed
        golden = self.golden["tenants"]
        committed = three_job_scenario(chaos=True).run().cluster_digest
        if committed != golden["cluster_digest"]:
            raise CheckFailed(f"committed scenario cluster_digest "
                              f"{committed}, golden "
                              f"{golden['cluster_digest']}")
        clean = three_job_scenario(chaos=False)
        clean_result = clean.run()
        for job in ISOLATED_JOBS:
            digest = clean_result.job_digest(job)
            if digest != golden["numeric_digests"][job]:
                raise CheckFailed(f"chaos-free {job} numeric digest {digest}")
        self.specs = clean.specs
        self.chaos_nodes = next(s.num_nodes for s in self.specs
                                if s.job_id == CHAOS_JOB)
        self._check(self._scenario(0))

    def round(self, index: int) -> list[Op]:
        return [(functools.partial(self._scenario, index + 1), self._check)]

    def _scenario(self, index: int) -> t.Any:
        from repro.cluster.runtime import ClusterRuntime

        plan = chaos_plan(self.seed, index, self.chaos_nodes)
        return ClusterRuntime(self.specs, chaos={CHAOS_JOB: plan}).run()

    def _check(self, result: t.Any) -> None:
        for job_id, record in result.jobs.items():
            if record["status"] != "completed":
                raise CheckFailed(f"{job_id} ended {record['status']}")
        for job in ISOLATED_JOBS:
            digest = result.job_digest(job)
            if digest != self.golden["tenants"]["numeric_digests"][job]:
                raise CheckFailed(f"isolation broken: {job} numeric "
                                  f"digest {digest}")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (FiguresSweep, RingSmall, RingLarge,
                              ContendedFabric, TenantsChaos)}


def capture_golden(scratch: pathlib.Path) -> dict:
    """Recompute every golden value from the program as it is now."""
    from repro.cluster.runtime import three_job_scenario

    steps = {}
    for cls in (RingSmall, RingLarge, ContendedFabric):
        for config in cls.configs:
            steps[config.name] = simulate_step(*build_step_context(config))
    specs = figure_specs(0)
    grid = _CampaignRound(scratch, specs)
    try:
        cells = {}
        for _ in specs:
            spec_id, _state = grid.claim_and_run()
            key, digest = grid.cell(spec_id)
            cells[key] = digest
        report = grid.report_digest()
    finally:
        grid.close()
    clean = three_job_scenario(chaos=False).run()
    return {
        "step_time_s": steps,
        "figures": {"report_digest_seed0": report,
                    "cells": dict(sorted(cells.items()))},
        "tenants": {
            "cluster_digest": three_job_scenario(chaos=True).run()
            .cluster_digest,
            "numeric_digests": {job: clean.job_digest(job)
                                for job in ISOLATED_JOBS}},
    }
