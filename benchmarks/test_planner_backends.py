"""§V: planner-synthesized backends vs spine oversubscription.

Shape criteria: on a healthy fabric the NVLink-aware algorithms
(hierarchical and the planner schedules) all beat the flat ring, and
in-network aggregation is *not* the winner — its switch detour costs
latency the healthy NICs don't repay.  On a 4:1 oversubscribed
leaf-spine core the ordering flips: ina moves ~S(1+1/m) bytes per node
through the core instead of ~2S, so it must win outright.
"""


def test_planner_backend_sweep(record_table):
    rows = record_table("planner_backends")
    by_scenario = {row["scenario"]: row for row in rows}

    healthy = by_scenario["healthy"]
    oversub = by_scenario["oversubscribed"]
    # Healthy fabric: hierarchical-style schedules beat the flat ring,
    # and the switch-aggregation detour does not pay off.
    assert healthy["hierarchical_ms"] < healthy["ring_ms"]
    assert healthy["best"] != "ina"
    # Oversubscribed spine: in-network aggregation wins outright.
    assert oversub["best"] == "ina"
    assert oversub["ina_ms"] < oversub["hierarchical_ms"]
    assert oversub["ina_ms"] < oversub["ring_ms"]
    # Congestion hurts everyone, but ina least of the planner backends.
    assert oversub["ina_ms"] > healthy["ina_ms"]
