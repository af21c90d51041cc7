"""The warm-up packing plan against the per-gradient loop it replaces.

``plan_backward`` packs a backward pass once; ``AIACCBackend`` replays
the plan every iteration.  The oracle below is the engine's former
per-step loop: reset the sync vector, mark each gradient ready, close a
batch once its accumulated wire bytes reach the granularity, and pack
the batches in dispatch order with one fresh packer.  The plan must
close the same batches at the same schedule points, with ``==`` slices
and unit ids, and leave the same sync vector behind.
"""

import dataclasses

import numpy as np
import pytest

from repro.collectives.timed import TimedCollectives
from repro.core import AIACCBackend, AIACCConfig, GradientRegistry
from repro.core import packing
from repro.core.packing import (
    AllReduceUnit,
    GradientPacker,
    TensorSlice,
    plan_backward,
)
from repro.errors import PackingError
from repro.frameworks.base import TrainContext
from repro.models.zoo import available_models, get_model
from repro.obs import Observability
from repro.sim import FluidNetwork, Simulator, alibaba_v100_cluster
from repro.sim.invariants import InvariantViolation
from repro.training.trainer import build_train_context

MB = 1e6


def _context(model: str, wire_dtype_bytes: int) -> TrainContext:
    sim = Simulator()
    net = FluidNetwork(sim)
    cluster = alibaba_v100_cluster(sim, 8)
    spec = get_model(model)
    return TrainContext(
        sim=sim, network=net, cluster=cluster,
        collectives=TimedCollectives(sim, net, cluster), model=spec,
        batch_per_gpu=spec.default_batch_size,
        wire_dtype_bytes=wire_dtype_bytes)


def _registry(ctx: TrainContext) -> GradientRegistry:
    registry = GradientRegistry()
    registry.register_model(ctx.model)
    registry.freeze()
    return registry


def _oracle(ctx, registry, granularity_bytes):
    """The engine's per-gradient loop: batches per point, then the tail."""
    registry.reset_vector()
    packer = GradientPacker(granularity_bytes)
    points = []
    batch: list[tuple[int, float]] = []
    batch_bytes = 0.0
    for _delay, parameters in ctx.backward_steps():
        closed = []
        for parameter in parameters:
            grad_id = registry.mark_ready(parameter.name)
            size = ctx.wire_bytes(parameter)
            batch.append((grad_id, size))
            batch_bytes += size
            if batch_bytes >= granularity_bytes:
                closed.append(packer.pack(batch))
                batch = []
                batch_bytes = 0.0
        points.append(closed)
    tail = packer.pack(batch) if batch else []
    return points, tail


def _rows(units):
    return [(unit.unit_id, piece.grad_id, piece.offset, piece.nbytes)
            for unit in units for piece in unit.slices]


def _total_wire_bytes(ctx):
    return sum(ctx.wire_bytes(p) for p in ctx.model.parameters())


@pytest.mark.parametrize("wire_dtype_bytes", [4, 2])
@pytest.mark.parametrize("model", available_models())
def test_plan_matches_per_gradient_loop(model, wire_dtype_bytes):
    ctx = _context(model, wire_dtype_bytes)
    whole_model = 2 * _total_wire_bytes(ctx)
    for granularity in (4 * MB, 16 * MB, 64 * MB, whole_model):
        registry = _registry(ctx)
        plan = plan_backward(ctx.backward_steps(), registry.grad_id,
                             ctx.wire_bytes, granularity)
        expected_points, expected_tail = _oracle(ctx, registry, granularity)

        assert len(plan.points) == len(expected_points)
        replayed = np.zeros_like(registry.sync_vector)
        for point, expected in zip(plan.points, expected_points):
            assert len(point.batches) == len(expected)
            for units, expected_units in zip(point.batches, expected):
                assert _rows(units) == _rows(expected_units)
            replayed[point.grad_ids] = 1
        assert _rows(plan.tail) == _rows(expected_tail)
        assert np.array_equal(replayed, registry.sync_vector)
        if granularity == whole_model:
            assert not any(point.batches for point in plan.points)
            assert plan.tail


def _warm(backend, ctx):
    warm = ctx.sim.spawn(backend.warmup(ctx), name="warmup")
    ctx.sim.run(until=warm)


def _iterate(backend, ctx):
    proc = ctx.sim.spawn(backend.iteration(ctx), name="iter")
    ctx.sim.run(until=proc)
    return proc.value


@pytest.mark.parametrize("model, fp16", [("vgg16", False),
                                         ("resnet50", True)])
def test_rewarm_dispatches_the_new_plan(model, fp16):
    backend = AIACCBackend(AIACCConfig(fp16_compression=False))
    _warm(backend, build_train_context(get_model("resnet50"), backend, 8,
                                       32))

    backend.config = backend.config.replace(fp16_compression=fp16)
    obs = Observability()
    ctx = build_train_context(get_model(model), backend, 8, 32, obs=obs)
    assert ctx.wire_dtype_bytes == (2 if fp16 else 4)
    _warm(backend, ctx)
    _iterate(backend, ctx)

    registry = _registry(ctx)
    plan = plan_backward(ctx.backward_steps(), registry.grad_id,
                         ctx.wire_bytes, backend.config.granularity_bytes)
    planned = [unit for point in plan.points for units in point.batches
               for unit in units] + list(plan.tail)
    metrics = obs.registry
    assert metrics.get("aiacc_units_total").value() == len(planned)
    unit_bytes = metrics.get("aiacc_unit_bytes").state()
    assert unit_bytes.sum == pytest.approx(_total_wire_bytes(ctx))
    assert metrics.get("aiacc_gradients_total").value() == \
        len(ctx.model.parameters())


def test_corrupted_plan_trips_the_checker_at_dispatch(monkeypatch):
    real = plan_backward

    def corrupted(*args, **kwargs):
        plan = real(*args, **kwargs)
        for index, point in enumerate(plan.points):
            if point.batches:
                units = point.batches[0]
                first = units[0]
                piece = first.slices[0]
                # A gap of one byte before the unit's first slice.
                broken = dataclasses.replace(first, slices=(
                    TensorSlice(piece.grad_id, piece.offset + 1.0,
                                piece.nbytes),) + first.slices[1:])
                batches = ((broken,) + units[1:],) + point.batches[1:]
                points = list(plan.points)
                points[index] = point._replace(batches=batches)
                return plan._replace(points=tuple(points))
        raise AssertionError("the plan closes no batch mid-pass")

    monkeypatch.setattr("repro.core.engine.plan_backward", corrupted)
    backend = AIACCBackend()
    sim = Simulator(check_invariants=True)
    ctx = build_train_context(get_model("resnet50"), backend, 8, 32,
                              sim=sim)
    _warm(backend, ctx)
    with pytest.raises(InvariantViolation) as excinfo:
        _iterate(backend, ctx)
    assert excinfo.value.invariant == "pack-contiguity"


def test_plan_that_fails_unpack_raises_at_warmup(monkeypatch):
    real = GradientPacker.pack

    def gappy(self, gradients):
        units = real(self, gradients)
        first = units[0]
        piece = first.slices[0]
        return [AllReduceUnit(first.unit_id, (TensorSlice(
            piece.grad_id, piece.offset + 1.0, piece.nbytes),)
            + first.slices[1:])] + units[1:]

    monkeypatch.setattr(packing.GradientPacker, "pack", gappy)
    backend = AIACCBackend()
    ctx = build_train_context(get_model("resnet50"), backend, 8, 32)
    with pytest.raises(PackingError, match="gap/overlap"):
        _warm(backend, ctx)
