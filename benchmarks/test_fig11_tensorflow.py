"""Fig. 11: TensorFlow models — the unified library gives portable gains.

Shape criteria: same winner/shape as the PyTorch figures ("AIACC-Training
gives portable performance across DL frameworks"), with a speedup over
Horovod approaching ~3x for the communication-bound model at 256 GPUs
("a speedup of 3.3x over Horovod when using 256 GPUs").
"""


def test_fig11_tensorflow(record_table):
    rows = record_table("fig11_tensorflow")
    by_key = {(row["model"], row["gpus"]): row for row in rows}

    for (model, gpus), row in by_key.items():
        if gpus > 8:
            assert row["aiacc"] > row["horovod"], (model, gpus)

    # Best-case speedup at 256 GPUs lands in the paper's 2-3.5x band.
    best = max(by_key[(model, 256)]["aiacc"] /
               by_key[(model, 256)]["horovod"]
               for model in ("vgg16", "resnet50", "bert-large"))
    assert 2.0 < best < 3.6
