"""Fig. 2: Horovod throughput vs. the theoretical linear speedup.

Shape criteria: near-linear within one NVLink node, a visible gap from
linear once multiple nodes communicate over TCP, and ~75% scaling
efficiency at 32 GPUs (the paper's headline motivation number).
"""


def test_fig2_motivation(record_table):
    rows = record_table("fig02_motivation")
    by_gpus = {row["gpus"]: row for row in rows}

    # Single node (NVLink) is near-linear.
    assert by_gpus[8]["scaling_efficiency"] > 0.95
    # Multi-node efficiency degrades monotonically.
    assert by_gpus[16]["scaling_efficiency"] > by_gpus[32][
        "scaling_efficiency"]
    # Paper: "Horovod gives a scaling efficiency of 75% when using 32
    # GPUs".
    assert 0.65 < by_gpus[32]["scaling_efficiency"] < 0.85
    # Throughput still grows with GPUs (more GPUs do help, just poorly).
    assert by_gpus[32]["horovod_throughput"] > \
        by_gpus[16]["horovod_throughput"]
