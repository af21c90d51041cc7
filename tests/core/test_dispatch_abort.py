"""``AIACCBackend.abort`` cancels a dispatch chain in each of its states.

A dispatch is a chain of callbacks: the daemon request, its grant, the
daemon service time, the sync round (plain or under the failure
detector's deadline), then the staging copies and the units.  Abort may
land in any of them.  Afterwards the daemon must hold no slot and queue
no request, the stream pool must be quiescent, and no unit of the
cancelled batch may start — checked by the invariant checker's own
quiescence checks, as the iteration boundary runs them.
"""

import pytest

from repro.core.engine import AIACCBackend
from repro.core.runtime import AIACCConfig
from repro.errors import ProcessInterrupt
from repro.models import get_model
from repro.obs import Observability
from repro.sim import Simulator
from repro.sim.rdma import RDMA
from repro.sim.tcp import TCP
from repro.training.trainer import build_train_context


def warmed(config=None, transport=TCP):
    backend = AIACCBackend(config or AIACCConfig(num_streams=4))
    model = get_model("resnet50")
    ctx = build_train_context(model, backend, 16, model.default_batch_size,
                              transport=transport,
                              sim=Simulator(check_invariants=True),
                              obs=Observability(enabled=True))
    ctx.sim.run(until=ctx.sim.spawn(backend.warmup(ctx)))
    units = next(batch for point in backend._plan.points
                 for batch in point.batches)
    return backend, ctx, units


def spans(ctx, name):
    return [span for span in ctx.obs.timeline.spans if span.name == name]


def assert_quiescent(backend, ctx):
    checker = ctx.sim.invariants
    checker.check_idle(backend._daemon, rank=0)
    checker.check_pool_quiescent(backend._pool, rank=0)
    assert not backend._inflight


def abort_and_drain(backend, ctx, dispatch, unit_events):
    dispatched = backend._pool.dispatched_units
    assert backend.abort("peer dead") >= 1
    assert dispatch.triggered and not dispatch.ok
    assert isinstance(dispatch.value, ProcessInterrupt)
    ctx.sim.run()
    # No unit of the batch started after the abort.
    assert backend._pool.dispatched_units == dispatched
    assert all(event.triggered for event in unit_events)
    assert_quiescent(backend, ctx)


def test_abort_while_queued_on_the_daemon_withdraws_the_request():
    backend, ctx, units = warmed()
    daemon = backend._daemon
    hold = daemon.acquire()
    ctx.sim.run(until=hold)
    unit_events = []
    dispatch = backend._dispatch(ctx, units, unit_events)
    assert daemon.waiting_requests == 1
    backend.abort("peer dead")
    assert daemon.waiting_requests == 0 and daemon.in_use == 1
    daemon.release()
    ctx.sim.run()
    assert not dispatch.ok and not spans(ctx, "pack+launch")
    assert_quiescent(backend, ctx)


def test_abort_with_the_grant_scheduled_releases_the_slot():
    backend, ctx, units = warmed()
    unit_events = []
    dispatch = backend._dispatch(ctx, units, unit_events)
    # Granted at once, but the grant event has not fired yet.
    assert backend._daemon.in_use == 1
    abort_and_drain(backend, ctx, dispatch, unit_events)
    assert not spans(ctx, "pack+launch")


def test_abort_in_service_releases_the_slot():
    backend, ctx, units = warmed()
    unit_events = []
    dispatch = backend._dispatch(ctx, units, unit_events)
    ctx.sim.run(until=ctx.sim.now)  # the grant fires
    assert backend._daemon.in_use == 1
    abort_and_drain(backend, ctx, dispatch, unit_events)
    assert not spans(ctx, "pack+launch")


@pytest.mark.parametrize("sync_timeout_s", (None, 0.5),
                         ids=("plain", "deadline"))
def test_abort_in_the_sync_round_starts_no_unit(sync_timeout_s):
    backend, ctx, units = warmed(AIACCConfig(
        num_streams=4, sync_timeout_s=sync_timeout_s))
    unit_events = []
    dispatch = backend._dispatch(ctx, units, unit_events)
    while not spans(ctx, "pack+launch"):
        ctx.sim.step()
    assert backend._daemon.in_use == 0
    abort_and_drain(backend, ctx, dispatch, unit_events)
    assert not spans(ctx, "sync-round") and not unit_events


def test_abort_while_staging_starts_no_unit():
    backend, ctx, units = warmed()
    assert ctx.staging_time_s(units[0].nbytes) > 0
    unit_events = []
    dispatch = backend._dispatch(ctx, units, unit_events)
    while not spans(ctx, "sync-round"):
        ctx.sim.step()
    abort_and_drain(backend, ctx, dispatch, unit_events)
    assert not spans(ctx, "staging") and not unit_events


def test_a_finished_dispatch_leaves_its_units_to_the_pool():
    backend, ctx, units = warmed(transport=RDMA)
    unit_events = []
    dispatch = backend._dispatch(ctx, units, unit_events)
    while not dispatch.triggered:
        ctx.sim.step()
    assert dispatch.ok and len(unit_events) == len(units)
    assert not backend._inflight
    # Abort cancels the running units through the pool.
    assert backend.abort("peer dead") == len(units)
    ctx.sim.run()
    assert all(not event.ok for event in unit_events)
    assert_quiescent(backend, ctx)


@pytest.mark.parametrize("abandoned", (0, 1), ids=("racing", "backoff"))
def test_abort_cancels_a_unit_deadline(abandoned):
    # ``racing``: every unit's first attempt races its deadline;
    # ``backoff``: one attempt has timed out and been abandoned, so its
    # deadline waits out the backoff before the next attempt.
    backend, ctx, units = warmed(AIACCConfig(
        num_streams=4, unit_timeout_s=1e-6, comm_retries=2,
        retry_backoff_s=0.01), transport=RDMA)
    unit_events = []
    dispatch = backend._dispatch(ctx, units, unit_events)
    while not dispatch.triggered \
            or len(spans(ctx, "allreduce-unit")) < abandoned:
        ctx.sim.step()
    assert dispatch.ok and len(unit_events) == len(units)
    assert len(backend._inflight) == len(units)
    assert backend.abort("peer dead") >= len(units)
    ctx.sim.run()
    for event in unit_events:
        assert isinstance(event.value, ProcessInterrupt)
    assert_quiescent(backend, ctx)
