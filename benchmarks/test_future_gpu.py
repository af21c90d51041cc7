"""§VIII-A what-if: future high-end GPUs amplify the AIACC advantage.

Shape criteria: "As future-generation GPUs are likely to provide more
parallel execution units, we expect AIACC-Training will deliver better
performance on future high-end GPUs by leveraging the hardware
parallelism" — on an A100 cluster (more SMs, faster compute) the
AIACC-over-Horovod speedup must exceed the V100 cluster's.
"""


def test_future_gpu_whatif(record_table):
    rows = record_table("future_gpu")
    by_gpu = {row["gpu"]: row for row in rows}

    # Both generations: AIACC wins.
    assert all(row["speedup"] > 1.0 for row in rows)
    # Faster GPUs make training more communication-bound, so the
    # multi-stream advantage grows.
    assert by_gpu["A100"]["speedup"] > by_gpu["V100"]["speedup"]
    # Absolute throughput improves with the better GPU too.
    assert by_gpu["A100"]["aiacc"] > by_gpu["V100"]["aiacc"]
