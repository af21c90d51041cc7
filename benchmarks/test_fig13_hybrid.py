"""Fig. 13: hybrid data + model parallelism on ResNet-50 (MXNet path).

Shape criteria: AIACC consistently improves the MXNet DDL implementation,
"improving the throughput by 2.8x when using 64 GPUs".
"""

import pytest


def test_fig13_hybrid(record_table):
    rows = record_table("fig13_hybrid")
    by_gpus = {row["gpus"]: row for row in rows}

    # AIACC wins on every multi-node point and the gap grows.
    speedups = [by_gpus[gpus]["speedup"] for gpus in (16, 32, 64)]
    assert all(s > 1.0 for s in speedups)
    assert speedups == sorted(speedups)

    # Paper's headline: 2.8x at 64 GPUs.
    assert by_gpus[64]["speedup"] == pytest.approx(2.8, rel=0.25)
