"""Differential tests: ``TrainContext.backward_steps`` against a producer.

Backends walk the backward schedule in their own process.  The oracle
below is the process they replace: it slept until each schedule point,
marked every gradient of the point ready and ended with a tail sleep.
Walking the steps must make every gradient ready at an instant ``==``
to the oracle's, and schedule no timeout the oracle did not.
"""

import typing as t

import pytest

from repro.collectives.timed import TimedCollectives
from repro.frameworks.base import TrainContext
from repro.models import LayerSpec, ModelSpec, ParameterSpec, get_model
from repro.models.zoo import available_models
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster


def make_ctx(model: ModelSpec, batch: int,
             extra_forward_time_s: float) -> TrainContext:
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = alibaba_v100_cluster(sim, 16)
    return TrainContext(
        sim=sim, network=net, cluster=cluster,
        collectives=TimedCollectives(sim, net, cluster), model=model,
        batch_per_gpu=batch, extra_forward_time_s=extra_forward_time_s)


def oracle(ctx: TrainContext, ready: list) -> t.Generator:
    """The replaced producer: ``(name, sim.now)`` per ready gradient."""
    yield ctx.sim.timeout(ctx.forward_time_s)
    duration = ctx.backward_time_s
    elapsed = 0.0
    for event in ctx.model.backward_schedule():
        target = event.time_fraction * duration
        if target > elapsed:
            yield ctx.sim.timeout(target - elapsed)
            elapsed = target
        for parameter in event.parameters:
            ready.append((parameter.name, ctx.sim.now))
    if elapsed < duration:
        yield ctx.sim.timeout(duration - elapsed)
    ready.append(("done", ctx.sim.now))


def walk(ctx: TrainContext, ready: list) -> t.Generator:
    """What a backend does: walk the steps, one resume per point."""
    yield ctx.sim.timeout(ctx.forward_time_s)
    for delay, parameters in ctx.backward_steps():
        if delay:
            yield ctx.sim.timeout(delay)
        ready.extend((parameter.name, ctx.sim.now)
                     for parameter in parameters)
    ready.append(("done", ctx.sim.now))


def run(process, model: ModelSpec, batch: int,
        extra_forward_time_s: float = 0.0) -> tuple[list, int]:
    """The ready instants and the heap entries of one backward pass."""
    ctx = make_ctx(model, batch, extra_forward_time_s)
    ready: list = []
    ctx.sim.spawn(process(ctx, ready))
    ctx.sim.run()
    return ready, ctx.sim.events_scheduled


@pytest.mark.parametrize("extra_forward_time_s", (0.0, 3.7e-3))
@pytest.mark.parametrize("half_batch", (False, True),
                         ids=("default-batch", "half-batch"))
@pytest.mark.parametrize("name", available_models())
def test_walk_matches_producer(name, half_batch, extra_forward_time_s):
    model = get_model(name)
    batch = model.default_batch_size
    if half_batch:
        batch = max(1, batch // 2)
    walked, walked_events = run(walk, model, batch, extra_forward_time_s)
    produced, produced_events = run(oracle, model, batch,
                                    extra_forward_time_s)
    assert walked == produced
    assert len(walked) == model.num_gradients + 1
    assert walked_events == produced_events


def test_shared_fraction_is_one_zero_delay_step():
    # Backward visits ``c`` then ``b``: ``b``'s layer has no FLOPs, so
    # its gradient is ready at ``c``'s instant.  ``pool`` has FLOPs but
    # no parameters, so only the tail covers it.
    model = ModelSpec(
        name="shared-fraction",
        layers=(LayerSpec("pool", (), 1e9),
                LayerSpec("b", (ParameterSpec("b.weight", 10),), 0.0),
                LayerSpec("c", (ParameterSpec("c.weight", 10),), 1e9)),
        compute_occupancy=0.5)
    steps = make_ctx(model, 1, 0.0).backward_steps()
    assert [(delay == 0.0, [p.name for p in parameters])
            for delay, parameters in steps] == \
        [(False, ["c.weight"]), (True, ["b.weight"]), (False, [])]

    walked, walked_events = run(walk, model, 1)
    produced, produced_events = run(oracle, model, 1)
    assert walked == produced
    assert walked[0][1] == walked[1][1] < walked[2][1]
    # The process start, the forward pass and the two non-zero delays.
    assert walked_events == produced_events == 4


def _fresh_steps(ctx: TrainContext) -> tuple:
    """``backward_steps`` computed without the memo."""
    ctx._backward_memo = None
    return ctx.backward_steps()


@pytest.mark.parametrize("name", ("resnet50", "bert-large"))
def test_memoized_steps_equal_a_fresh_computation(name):
    ctx = make_ctx(get_model(name), 32, 0.0)
    first = ctx.backward_steps()
    assert isinstance(first, tuple)
    assert ctx.backward_steps() is first
    assert _fresh_steps(make_ctx(get_model(name), 32, 0.0)) == first


def test_changing_the_batch_or_model_returns_fresh_steps():
    model = get_model("resnet50")
    ctx = make_ctx(model, 32, 0.0)
    steps = ctx.backward_steps()
    ctx.batch_per_gpu = 16
    halved = ctx.backward_steps()
    assert halved != steps
    assert halved == _fresh_steps(make_ctx(model, 16, 0.0))
    ctx.model = get_model("vgg16")
    assert ctx.backward_steps() == _fresh_steps(
        make_ctx(get_model("vgg16"), 16, 0.0))
    ctx.model = model
    ctx.batch_per_gpu = 32
    assert ctx.backward_steps() == steps


def test_forward_flops_is_computed_once_per_spec():
    model = get_model("resnet50")
    flops = model.forward_flops
    assert flops == sum(layer.forward_flops for layer in model.layers)
    assert model.__dict__["forward_flops"] == flops
    # A rescaled spec is a new object with its own sum.
    scaled = model.scaled_to(model.num_parameters, 2 * flops)
    assert scaled.forward_flops == sum(
        layer.forward_flops for layer in scaled.layers)
