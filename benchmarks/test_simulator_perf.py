"""Simulator wall-clock benchmarks: cost of simulating one training step.

Unlike the paper-reproduction benchmarks (which assert *simulated-time*
claims), this suite measures how much *host* wall-clock the simulator
burns per simulated training step — the quantity that decides whether
128–256-rank sweeps are interactive or overnight jobs.

Every scenario runs in **full-link mode** (``representative=False``):
representative mode collapses symmetric clusters to one NIC pair and
would hide the O(flows x links) cost this suite exists to guard.  The
stress scenario adds congestion + the hierarchical algorithm, the
worst case for the fair-share solver (32 nodes x 8 streams per unit).

CI exports the results to ``BENCH_simulator.json`` via
``tools/bench_to_json.py``; the committed file keeps the perf
trajectory across PRs.  Regressions show up as the wall-clock budget
assertions below tripping long before a human notices a slow sweep.
"""

from __future__ import annotations

import pytest

from bench.workloads import StepConfig, build_step_context, simulate_step

#: ``(config, budget_s)`` pairs.  The benchmark axis is 8 -> 4096 ranks at
#: the paper's 4-stream setting, plus the solver's worst cases.  The
#: budget is a generous wall-clock ceiling (seconds) per simulated step:
#: it trips on order-of-magnitude regressions, not scheduler noise.
#: ``step-128r-4s`` is the acceptance gate of the scaling work (>= 5x
#: over the pre-optimisation baseline).
SCENARIOS = (
    (StepConfig("step-8r-4s", ranks=8), 0.5),
    (StepConfig("step-32r-4s", ranks=32), 0.5),
    (StepConfig("step-128r-4s", ranks=128), 1.0),
    (StepConfig("step-256r-4s", ranks=256), 2.0),
    # The 1024/4096-rank tier rides flow bundling: start_flow_group
    # collapses each ring unit's 2·nodes-flow fan-out into two solver
    # entities, so per-event work stays flat in node count and the
    # scale-out gate (>= 5x over the pre-bundling 1024-rank wall time)
    # holds with headroom.
    (StepConfig("step-1024r-4s", ranks=1024), 2.0),
    (StepConfig("step-4096r-4s", ranks=4096), 4.0),
    # A 4:1 spine puts every inter-node hop on one shared core link, so
    # the ring cannot bundle and each event water-fills one component
    # of hundreds of flows: the largest components any config reaches.
    (StepConfig("step-1024r-spine4", ranks=1024,
                core_oversubscription=4.0), 2.0),
    (StepConfig("step-4096r-spine4", ranks=4096,
                core_oversubscription=4.0), 8.0),
    (StepConfig("stress-256r-hier", ranks=256, streams=24, model="vgg16",
                algorithm="hierarchical", congested=True), 8.0),
    (StepConfig("planner-128r-ina", ranks=128, algorithm="ina",
                core_oversubscription=4.0), 4.0),
)


@pytest.mark.parametrize("scenario, budget_s", SCENARIOS,
                         ids=[config.name for config, _ in SCENARIOS])
def test_simulated_step_wall_clock(benchmark, scenario, budget_s):
    ctx, backend = build_step_context(scenario)
    # Warm-up iteration outside the timer: first-step costs (packer
    # setup, metric registration) are not steady-state per-step cost.
    sim_step_s = simulate_step(ctx, backend)
    assert sim_step_s > 0

    result = benchmark.pedantic(
        simulate_step, args=(ctx, backend), rounds=3, iterations=1)
    benchmark.extra_info.update(
        ranks=scenario.ranks, streams=scenario.streams,
        model=scenario.model, algorithm=scenario.algorithm,
        congested=scenario.congested,
        core_oversubscription=scenario.core_oversubscription,
        simulated_step_s=result)
    assert benchmark.stats.stats.min < budget_s, (
        f"{scenario.name}: simulating one step took "
        f"{benchmark.stats.stats.min:.3f}s wall-clock "
        f"(budget {budget_s}s) — simulator hot-path regression?"
    )
