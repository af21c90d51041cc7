"""§VIII-C: InsightFace face recognition at 128 GPUs.

Shape criteria: the 512 x 1M-identity ArcFace head makes this workload
heavily communication-bound, so the AIACC speedup over (hand-tuned)
Horovod DDL is much larger than on ImageNet ResNet-50 — the paper reports
3.8x at 128 GPUs.
"""

import pytest

from repro.harness import measure


def test_insightface(record_table):
    rows = record_table("insightface")
    row = rows[0]

    # Paper: 3.8x at 128 GPUs.
    assert row["speedup"] == pytest.approx(3.8, rel=0.2)

    # The speedup dwarfs plain ResNet-50's at the same scale.
    plain_aiacc = measure("resnet50", "aiacc", 128)
    plain_horovod = measure("resnet50", "horovod", 128)
    plain = plain_aiacc.throughput / plain_horovod.throughput
    assert row["speedup"] > 1.5 * plain
