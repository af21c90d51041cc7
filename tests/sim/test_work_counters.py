"""Pinned work counters for one simulated training step.

``FluidNetwork.reallocations`` (rate assignments) and
``solver_flow_visits`` (flows solved across them) are deterministic, so
unlike wall time they gate exactly on the work the solver does.  An
optimisation that only makes each visit cheaper leaves them unchanged;
one that changes how many components are solved, or how large, moves
them and must re-pin here with a reason.  ``Simulator.processes_spawned``
and ``Simulator.events_scheduled`` do the same for the event kernel.
"""

import pytest

from bench.workloads import StepConfig, build_step_context, simulate_step
from repro.frameworks import BytePSBackend, MXNetKVStoreBackend
from repro.models import get_model
from repro.training.trainer import build_train_context

#: ``(config, reallocations, flow visits, processes spawned, events
#: scheduled)`` for one step after warm-up.  The iteration walks the
#: backward schedule itself: one timeout per distinct ready instant, no
#: event per gradient tensor.  Every fan-out enters the network in one
#: insert, and multi-phase collectives run as callback chains, not
#: processes.
PINNED = (
    (StepConfig("step-8r", 8), 22, 11, 29, 123),
    # The ring's hop bundle and NVLink bundle enter in one insert, not
    # one each: one reallocation and one wakeup fewer per all-reduce.
    (StepConfig("step-256r", 256), 33, 56, 29, 154),
    # Congested: node 0's hop and the hop into node 0 launch alone, the
    # other 30 hops and the NVLink fabrics as one bundle class each.
    # No process per hierarchical all-reduce: no spawn, no bootstrap.
    (StepConfig("stress-256r-hier", 256, streams=24, model="vgg16",
                algorithm="hierarchical", congested=True), 280, 404,
     88, 746),
    # No process per planner all-reduce.
    (StepConfig("planner-128r-ina", 128, algorithm="ina",
                core_oversubscription=4.0), 99, 220, 29, 409),
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


@pytest.mark.parametrize("backend", (
    BytePSBackend(), BytePSBackend(num_connections=1),
    MXNetKVStoreBackend(), MXNetKVStoreBackend(num_connections=1)),
    ids=("byteps-4", "byteps-1", "kvstore-2", "kvstore-1"))
def test_ps_step_spawns_one_process_per_connection(backend):
    # The step itself, which also walks the backward schedule, and one
    # process per connection — however many partitions or keys the
    # model has.
    model = get_model("resnet50")
    ctx = build_train_context(model, backend, 16, model.default_batch_size)
    simulate_step(ctx, backend)  # warm-up
    spawned = ctx.sim.processes_spawned
    simulate_step(ctx, backend)
    assert ctx.sim.processes_spawned - spawned == 1 + backend.num_connections
    assert len(model.parameters()) > 100
