"""Differential check: observability never moves a fault-injected run.

``repro faults`` runs with an enabled :class:`~repro.obs.Observability`
and reports the same recovery numbers as a headless run, which holds
only while recording creates no simulator events.  Each plan runs twice,
with ``Observability()`` and with ``obs=None``, and the two runs must be
bit-equal: same event-sequence digest, iteration times, recoveries and
epoch transitions.
"""

import pytest

from repro.models.synthetic import random_model_spec
from repro.obs import Observability
from repro.sim.faults import FaultPlan, NodeCrash, NodeJoin, NodeLeave
from repro.training.resilience import run_fault_injected_training

PLANS = {
    "crash": FaultPlan([NodeCrash(at_s=0.2, node=1)]),
    "leave-then-join": FaultPlan([NodeLeave(at_s=0.2, node=1),
                                  NodeJoin(at_s=0.6, node=1)]),
}


def run(plan, obs):
    spec = random_model_spec(seed=0, num_layers=12,
                             total_parameters=5_000_000,
                             total_forward_flops=2e9)
    return run_fault_injected_training(
        spec, plan, num_gpus=16, total_iterations=8, checkpoint_interval=3,
        restart_overhead_s=2.0, sync_timeout_s=0.5, unit_timeout_s=1.0,
        comm_retries=1, retry_backoff_s=0.1, check_invariants=True, obs=obs)


@pytest.mark.parametrize("name", sorted(PLANS))
def test_enabled_obs_is_bit_equal_to_none(name):
    observed = run(PLANS[name], Observability())
    headless = run(PLANS[name], None)
    assert observed.state_digest is not None
    assert observed.state_digest == headless.state_digest
    assert observed.iteration_times_s == headless.iteration_times_s
    assert observed.recoveries == headless.recoveries
    assert observed.epoch_transitions == headless.epoch_transitions
    # The plan really exercised the path it names, and obs saw it.
    if name == "crash":
        assert len(observed.recoveries) == 1
        assert observed.obs.fault_counts()["confirm"] == 1
    else:
        kinds = [tr.kind for tr in observed.epoch_transitions]
        assert kinds == ["scale-down", "scale-up"]
        assert observed.obs.fault_counts() == {"leave": 1, "join": 1}
    assert not headless.obs.fault_counts()
