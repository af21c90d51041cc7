"""§V-B: algorithm choice under link congestion.

Shape criteria: on a healthy fabric the two all-reduce algorithms are
within a few percent (the auto-tuner's choice is workload-dependent); on
a fabric where one node's NIC is congested by other tenants, the
hierarchical algorithm wins clearly — the reason it exists.
"""


def test_congested_algorithm_choice(record_table):
    rows = record_table("congested_algorithm")
    by_scenario = {row["scenario"]: row for row in rows}

    healthy = by_scenario["healthy"]["hierarchical_speedup"]
    congested = by_scenario["congested"]["hierarchical_speedup"]
    # Healthy: near-tie (within 10%).
    assert 0.9 < healthy < 1.1
    # Congested: hierarchical clearly preferable, and more so than on
    # the healthy fabric.
    assert congested > 1.15
    assert congested > healthy
