import importlib

import pytest

from bench import runner
from bench.trace import COUNTED, LAYER_METRICS, SPANNED, Tracer


def _originals():
    found = {}
    for module, owner_name, attr, *_rest in SPANNED + COUNTED:
        owner = importlib.import_module(module)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        found[(module, owner_name, attr)] = getattr(owner, attr)
    return found


def test_self_time_subtracts_children_only():
    tracer = Tracer()
    tracer._layer_of.update({"Simulator.run": "kernel.run",
                             "FluidNetwork.start_flow": "network.insert",
                             "FluidNetwork.start_flows": "network.insert"})
    tracer.spans.extend([
        # run [0, 10] holds start_flows [1, 4], which holds start_flow
        # [2, 3], and start_flow [6, 7]; a second root run [20, 25].
        ("Simulator.run", 0.0, 10.0, -1, 0),
        ("FluidNetwork.start_flows", 1.0, 4.0, 0, 0),
        ("FluidNetwork.start_flow", 2.0, 3.0, 1, 0),
        ("FluidNetwork.start_flow", 6.0, 7.0, 0, 0),
        ("Simulator.run", 20.0, 25.0, -1, 1),
    ])
    layers, covered = tracer.self_times()
    assert layers["kernel.run"] == pytest.approx(10 - 3 - 1 + 5)
    assert layers["network.insert"] == pytest.approx(2 + 1 + 1)
    assert covered == pytest.approx(15.0)


def test_traced_run_reports_every_layer_metric_and_unwraps(monkeypatch):
    monkeypatch.setattr(runner, "SETUP_REPEATS", 1)
    before = _originals()
    result = runner.run("ring-small", seed=3, seconds=0, trace=True,
                        max_ops=2)
    assert result.correct, result.errors
    assert _originals() == before
    assert list(result.layers) == list(LAYER_METRICS)
    layers = result.layers
    assert layers["kernel.events_created"] > 0
    assert layers["network.flows_inserted"] > 0
    assert layers["network.reallocations"] >= \
        layers["network.completion_reallocations"] >= 0
    assert 0 < layers["kernel.run_self_share"] < 1
    assert 0 < layers["trace.coverage_frac"] <= 1
    assert layers["campaign.store_calls"] == 0
    assert result.attempted == 4  # two ops in each phase


def test_an_entry_point_the_program_lacks_fails_the_traced_run(monkeypatch):
    from bench import trace

    monkeypatch.setattr(runner, "SETUP_REPEATS", 1)
    before = _originals()
    monkeypatch.setattr(trace, "SPANNED", trace.SPANNED + (
        ("repro.sim.network", "FluidNetwork", "no_such_method",
         "network.insert", None, None),))
    result = runner.run("ring-small", seed=3, seconds=0, trace=True,
                        max_ops=1)
    assert not result.correct
    assert any("no_such_method" in error for error in result.errors)
    assert _originals() == before
