"""Fig. 15: RDMA nodes (64 GPUs), speedup over PyTorch-DDP.

Shape criteria: a single RDMA stream uses only 5-10% of the fabric, so
multi-streaming pays off even more than on TCP; "on the large GPT-2 DNN,
AIACC-Training gives a 9.8x speedup over PyTorch-DDP"; bigger models see
bigger gains.
"""

import pytest


def test_fig15_rdma(record_table):
    rows = record_table("fig15_rdma")
    by_model = {row["model"]: row for row in rows}

    # AIACC wins for every model.
    assert all(row["speedup"] > 1.0 for row in rows)

    # The paper's headline: ~9.8x on GPT-2 XL.
    assert by_model["gpt2-xl"]["speedup"] == pytest.approx(9.8, rel=0.25)

    # Larger, more communication-bound models gain more.
    assert by_model["gpt2-xl"]["speedup"] > \
        by_model["bert-large"]["speedup"] > \
        by_model["resnet50"]["speedup"]
