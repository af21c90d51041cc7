"""Exact pins of the fault plans ``FaultPlan.poisson`` and ``.chaos`` draw.

A plan is a pure function of its seed, but only while the generators
make the same RNG calls in the same order: the victim and kind draws,
then each window fault's parameter draws, with skipped arrivals (a busy
NIC, a membership floor) drawing nothing more.  These pins hold every
drawn field bit for bit, so a refactor of the draw code that moves one
call, or one skip, fails here before it moves any run that uses the
plan (the bench's tenants-chaos process, the chaos soak).

Each fault is ``(kind name, *dataclasses.astuple(fault))``.
"""

import dataclasses

import pytest

from repro.sim.faults import (
    BandwidthDegradation,
    FaultPlan,
    LinkFlap,
    NodeCrash,
    Straggler,
)

#: The bench's tenants-chaos fault process on a two-node tenant.
MIXED = (NodeCrash, LinkFlap, BandwidthDegradation, Straggler)
WINDOWS = (LinkFlap, BandwidthDegradation, Straggler)

POISSON_PINS = {
    ("mixed", 0): [
        ("NodeCrash", 0.9303035555326117, 1),
        ("Straggler", 1.0801247116395187, 0, 7.509405990710791,
         4.234338066465462),
        ("NodeCrash", 4.936349768939201, 0)],
    ("mixed", 1): [
        ("BandwidthDegradation", 0.0721455320547546, 0, 0.27075122220263664,
         3.92433100210659),
        ("LinkFlap", 0.39170732187895585, 1, 0.3689472561936228),
        ("NodeCrash", 1.02846457898453, 0),
        ("NodeCrash", 2.1869458444427003, 1)],
    ("mixed", 6): [
        ("Straggler", 0.788340376753727, 0, 6.573300984276301,
         0.6657023467274957),
        ("BandwidthDegradation", 0.867005417612084, 1, 0.39163140104773564,
         0.5985041016872327),
        ("LinkFlap", 2.40970759343527, 0, 1.2141525432207232),
        ("NodeCrash", 3.010900817916969, 1),
        ("NodeCrash", 3.9407561607605133, 0)],
    # A dense window-only process: most arrivals hit a busy NIC and are
    # skipped without drawing window parameters.
    ("windows", 2): [
        ("LinkFlap", 0.9373034565429188, 0, 0.35276959128605895),
        ("BandwidthDegradation", 1.4787548232183787, 1, 0.5635664994070775,
         3.2306078013837705),
        ("BandwidthDegradation", 1.739866240815301, 0, 0.5830828028628163,
         4.116512494188207)],
}

CHAOS_PINS = {
    0: [
        ("Straggler", 3.101011851775372, 0, 3.55350050175778,
         2.8007362461587384),
        ("BandwidthDegradation", 3.966150495445234, 2, 0.41482962481699304,
         4.512472969193071),
        ("LinkFlap", 4.376928571626815, 3, 0.451542412940022),
        ("BandwidthDegradation", 4.542984156763172, 1, 0.3860885415915996,
         3.784242867170579),
        ("NodeJoin", 8.361375712299733, 4),
        ("NodeCrash", 9.426257922683089, 2)],
    1: [
        ("NodeCrash", 0.240485106849182, 2),
        ("Straggler", 0.4496035310399175, 1, 5.909557836336578,
         4.049255080109809),
        ("NodeCrash", 0.61387187014351, 1),
        ("NodeCrash", 1.558847277865988, 3),
        ("LinkFlap", 2.07500845562303, 0, 1.8225694237006704),
        ("Straggler", 8.539881009372198, 0, 7.814243901764597,
         3.7663367065093185)],
    2: [
        ("NodeCrash", 5.207241425238438, 0),
        ("LinkFlap", 5.355060304388388, 3, 1.6561316803508603),
        ("BandwidthDegradation", 8.560085228002027, 3, 0.3273312864011604,
         0.6608049878136668)],
    3: [
        ("NodeLeave", 0.45293717205611395, 1),
        ("NodeLeave", 1.2228776685881355, 2),
        ("NodeCrash", 2.860797520404126, 0),
        ("Straggler", 6.852301118196543, 3, 5.3047078505604395,
         1.3628484679788477)],
}


def rows(plan: FaultPlan) -> list[tuple]:
    return [(type(f).__name__, *dataclasses.astuple(f)) for f in plan]


@pytest.mark.parametrize("process,seed", sorted(POISSON_PINS))
def test_poisson_draws_are_pinned(process, seed):
    if process == "mixed":
        plan = FaultPlan.poisson(mtbf_s=0.5, horizon_s=6.0, num_nodes=2,
                                 seed=seed, kinds=MIXED)
    else:
        plan = FaultPlan.poisson(mtbf_s=0.3, horizon_s=4.0, num_nodes=2,
                                 seed=seed, kinds=WINDOWS)
    assert rows(plan) == POISSON_PINS[process, seed]


@pytest.mark.parametrize("seed", sorted(CHAOS_PINS))
def test_chaos_draws_are_pinned(seed):
    plan = FaultPlan.chaos(seed, num_nodes=4, horizon_s=10.0)
    assert rows(plan) == CHAOS_PINS[seed]
