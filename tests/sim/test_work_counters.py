"""Pinned work counters for one simulated training step.

``FluidNetwork.reallocations`` (rate assignments) and
``solver_flow_visits`` (flows solved across them) are deterministic, so
unlike wall time they gate exactly on the work the solver does.  An
optimisation that only makes each visit cheaper leaves them unchanged;
one that changes how many components are solved, or how large, moves
them and must re-pin here with a reason.  ``Simulator.processes_spawned``
and ``Simulator.events_scheduled`` do the same for the event kernel,
and ``TimedCollectives.phase_plans_built`` for the collectives' phase
lists.
"""

import gc

import pytest

from bench.workloads import StepConfig, build_step_context, simulate_step
from repro.core.engine import AIACCBackend
from repro.core.runtime import AIACCConfig
from repro.frameworks import (
    BytePSBackend,
    HorovodBackend,
    MXNetKVStoreBackend,
    PyTorchDDPBackend,
)
from repro.models import get_model
from repro.sim.network import FluidNetwork
from repro.training.trainer import build_train_context

#: ``(config, reallocations, flow visits, processes spawned, events
#: scheduled)`` for one step after warm-up.  The iteration walks the
#: backward schedule itself and wakes only where a batch closes and
#: where backward ends: no event per gradient tensor, no timeout per
#: schedule point.  Every fan-out enters the network in one insert, and
#: multi-phase collectives run as callback chains, not processes.  A
#: dispatch and an all-reduce unit run on callbacks: the step spawns
#: only itself.
PINNED = (
    # No process per unit: 11 units x (unit process + pool runner)
    # spawns and bootstraps fewer, 29 -> 7 and 123 -> 101.  No process
    # per dispatch: 6 spawns and bootstraps fewer, and the walk's 19
    # per-point timeouts become 6 wakes, 7 -> 1 and 101 -> 82.
    (StepConfig("step-8r", 8), 22, 11, 1, 82),
    # The ring's hop bundle and NVLink bundle enter in one insert, not
    # one each: one reallocation and one wakeup fewer per all-reduce.
    # No process per unit: 29 -> 7 spawned, 154 -> 132 scheduled.  No
    # process per dispatch, and one wake per batch-closing point: 7 -> 1
    # spawned, 132 -> 113 scheduled.
    (StepConfig("step-256r", 256), 33, 56, 1, 113),
    # Congested: node 0's hop and the hop into node 0 launch alone, the
    # other 30 hops and the NVLink fabrics as one bundle class each.
    # No process per hierarchical all-reduce: no spawn, no bootstrap.
    # No process per unit: 40 units x 2 spawns and bootstraps fewer,
    # 88 -> 8 and 746 -> 666.  No process per dispatch (7 fewer spawns
    # and bootstraps), and wakes only at batch-closing points: 8 -> 1
    # and 666 -> 650.
    (StepConfig("stress-256r-hier", 256, streams=24, model="vgg16",
                algorithm="hierarchical", congested=True), 280, 404,
     1, 650),
    # No process per planner all-reduce.  No process per unit:
    # 29 -> 7 spawned, 409 -> 387 scheduled.  No process per dispatch,
    # one wake per batch-closing point: 7 -> 1 and 387 -> 368.  Every
    # uplink of the ina-up phase crosses the 4:1 core and the ina.agg
    # trunk, so the 16 uplinks now enter as one group weighed 16 times
    # on those two shared links, not as 16 flows: one completion for
    # the phase, 220 -> 55 flow visits and 368 -> 203 scheduled.
    (StepConfig("planner-128r-ina", 128, algorithm="ina",
                core_oversubscription=4.0), 99, 55, 1, 203),
    # A 4:1 spine puts all 512 ring hops on the shared core: they enter
    # as one group weighed 512 times there, so the step does the work
    # of the 1:1 step (33 reallocations, 112 scheduled) instead of one
    # completion and one solver visit per hop (12,811 visits and 5,731
    # scheduled when each hop was a plain flow).
    (StepConfig("step-4096r-spine4", 4096, core_oversubscription=4.0),
     33, 36, 1, 110),
)


def _kernel_work(sim):
    return sim.processes_spawned, sim.events_scheduled


@pytest.mark.parametrize(
    "config, reallocations, visits, spawned, scheduled", PINNED,
    ids=[pinned[0].name for pinned in PINNED])
def test_one_step_solver_work(config, reallocations, visits, spawned,
                              scheduled):
    ctx, backend = build_step_context(config)
    net, sim = ctx.network, ctx.sim
    before = (net.reallocations, net.solver_flow_visits, *_kernel_work(sim))
    simulate_step(ctx, backend)
    after = (net.reallocations, net.solver_flow_visits, *_kernel_work(sim))
    assert tuple(b - a for a, b in zip(before, after)) == \
        (reallocations, visits, spawned, scheduled)


@pytest.mark.parametrize("backend, ranks, scheduled", (
    (BytePSBackend(), 16, 1251), (BytePSBackend(num_connections=1), 16, 902),
    (MXNetKVStoreBackend(), 16, 1098),
    (MXNetKVStoreBackend(num_connections=1), 16, 827),
    # A zero overhead is no step of the push/pull chain, so it schedules
    # no timeout: 1251, 1118 and 590 events with a zero-length one.  On
    # one node the KVStore chain is then a single NVLink flow.
    (BytePSBackend(server_overhead_s=0), 16, 1075),
    (MXNetKVStoreBackend(per_key_overhead_s=0), 16, 957),
    (MXNetKVStoreBackend(per_key_overhead_s=0), 8, 429)),
    ids=("byteps-4", "byteps-1", "kvstore-2", "kvstore-1",
         "byteps-no-server-overhead", "kvstore-no-key-overhead",
         "kvstore-no-key-overhead-8r"))
def test_ps_step_spawns_one_process(backend, ranks, scheduled):
    # The step itself, which also walks the backward schedule.  The
    # connections are a free count and a queue, and each push/pull is a
    # callback chain, so no process is spawned per connection, per
    # partition or per key.
    model = get_model("resnet50")
    ctx = build_train_context(model, backend, ranks,
                              model.default_batch_size)
    simulate_step(ctx, backend)  # warm-up
    before = _kernel_work(ctx.sim)
    simulate_step(ctx, backend)
    after = _kernel_work(ctx.sim)
    assert tuple(b - a for a, b in zip(before, after)) == (1, scheduled)
    assert len(model.parameters()) > 100


@pytest.mark.parametrize("backend, ranks", (
    (BytePSBackend(), 16), (MXNetKVStoreBackend(), 16),
    (MXNetKVStoreBackend(), 8)),
    ids=("byteps", "kvstore", "kvstore-8r"))
def test_ps_transfers_leave_no_cyclic_garbage(backend, ranks):
    # A finished push/pull chain must be freed by reference counting.
    # Cyclic garbage per transfer, such as a closure that registers
    # itself as the next step's callback, makes the cycle collector run
    # often enough to cost a few percent of a figures sweep.
    model = get_model("resnet50")
    ctx = build_train_context(model, backend, ranks,
                              model.default_batch_size)
    simulate_step(ctx, backend)  # warm-up
    gc.collect()
    gc.disable()
    try:
        simulate_step(ctx, backend)
        garbage = gc.collect()
    finally:
        gc.enable()
    # Fewer cyclic objects per step than transfers: only the
    # per-iteration chain setup may leave any.
    assert garbage < len(model.parameters())


#: A detection-armed config: every sync round and every unit runs under
#: the failure detector's deadline.
DEADLINES = AIACCConfig(num_streams=4, sync_timeout_s=0.5,
                        unit_timeout_s=1.0, comm_retries=1,
                        retry_backoff_s=0.1)


def _aiacc_contexts():
    for config, *_counts in PINNED:
        yield pytest.param(lambda config=config: build_step_context(config),
                           id=config.name)
    for ranks in (8, 16):
        def build(ranks=ranks):
            backend = AIACCBackend(DEADLINES)
            model = get_model("resnet50")
            ctx = build_train_context(model, backend, ranks,
                                      model.default_batch_size)
            ctx.sim.run(until=ctx.sim.spawn(backend.warmup(ctx)))
            return ctx, backend
        yield pytest.param(build, id=f"deadlines-{ranks}r")


@pytest.mark.parametrize("build", _aiacc_contexts())
def test_aiacc_step_spawns_no_process_per_unit(build):
    # The iteration only — however many packed batches and all-reduce
    # units the step dispatches, and whether or not the sync rounds and
    # units run under a deadline.
    ctx, backend = build()
    simulate_step(ctx, backend)  # warm-up
    plan = backend._plan
    batches = [units for _ids, closed in plan.points for units in closed]
    if plan.tail:
        batches.append(plan.tail)
    units = sum(len(batch) for batch in batches)
    spawned = ctx.sim.processes_spawned
    simulate_step(ctx, backend)
    assert ctx.sim.processes_spawned - spawned == 1
    assert units > len(batches) > 1


@pytest.mark.parametrize("backend, processes", (
    (HorovodBackend, 3), (PyTorchDDPBackend, 2)), ids=("horovod", "ddp"))
def test_serial_backend_step_spawns_no_process_per_buffer(backend,
                                                          processes):
    # Horovod: the step, the backward walk and the negotiator; DDP: the
    # step and the autograd hook.  The one comm connection is a callback
    # pool, and staging a fusion buffer or bucket is a timeout, so the
    # count is the same whatever the model's buffer count.
    for name in ("resnet50", "bert-large", "vgg16"):
        model = get_model(name)
        comm = backend()
        ctx = build_train_context(model, comm, 16, model.default_batch_size)
        simulate_step(ctx, comm)  # warm-up
        spawned = ctx.sim.processes_spawned
        simulate_step(ctx, comm)
        assert ctx.sim.processes_spawned - spawned == processes


#: Steady-state planner steps: after warm-up and one step, every unit
#: repeats an ``(algorithm, size, cap)`` key, so a step builds no phase
#: list and classifies no launch.  Halving-doubling re-registers the
#: claims its rounds evict from each other: at most the 88 registrations
#: per step it made while it classified every launch afresh.
STEADY = (
    (StepConfig("planner-128r-ina", 128, algorithm="ina",
                core_oversubscription=4.0), 0),
    (StepConfig("multi-tree-64r", 64, algorithm="multi-tree"), 0),
    (StepConfig("halving-doubling-64r", 64,
                algorithm="halving-doubling"), 88),
)


@pytest.mark.parametrize("config, registrations", STEADY,
                         ids=[config.name for config, _ in STEADY])
def test_steady_planner_step_builds_no_phase_list(monkeypatch, config,
                                                  registrations):
    ctx, backend = build_step_context(config)
    simulate_step(ctx, backend)
    calls = {"bundle_classes": 0, "_register_bundle": 0}
    for name in calls:
        original = getattr(FluidNetwork, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(FluidNetwork, name, counted)
    built = ctx.collectives.phase_plans_built
    simulate_step(ctx, backend)
    assert ctx.collectives.phase_plans_built == built > 0
    assert calls["bundle_classes"] == 0
    assert calls["_register_bundle"] <= registrations
