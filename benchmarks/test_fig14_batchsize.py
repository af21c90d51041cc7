"""Fig. 14: impact of batch size (BERT-Large, 16 GPUs).

Shape criteria: "AIACC-Training gives better performance on small batch
sizes due to the more frequent gradient communications" — the speedup
over Horovod decreases monotonically as per-GPU batch grows, from a
multi-x gain at tiny batches toward parity at memory-filling batches.
"""


def test_fig14_batchsize(record_table):
    rows = record_table("fig14_batchsize")
    speedups = [row["speedup"] for row in rows]

    # Monotone decrease with batch size.
    assert speedups == sorted(speedups, reverse=True)
    # Strong gain at the smallest batch, approaching parity at the top.
    assert speedups[0] > 2.0
    assert speedups[-1] < 1.3
    assert all(s >= 1.0 for s in speedups)
