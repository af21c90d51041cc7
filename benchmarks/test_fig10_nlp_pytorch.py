"""Fig. 10: training throughput of PyTorch NLP models.

Shape criteria: AIACC wins on every multi-node setting; BERT-Large (more
communication per unit compute than Transformer relative to its size)
shows the larger AIACC gap; computation-intensive models scale worse than
ResNet-50 (paper §VIII-A discussion of CUDA-stream limits).
"""


def test_fig10_nlp_models(record_table):
    rows = record_table("fig10_nlp_pytorch")
    by_key = {(row["model"], row["gpus"]): row for row in rows}

    for model in ("transformer", "bert-large"):
        for gpus in (16, 32, 64, 128, 256):
            row = by_key[(model, gpus)]
            assert row["aiacc"] >= max(row["horovod"], row["pytorch-ddp"],
                                       row["byteps"]), (model, gpus)

    # BERT (302M params) is the communication-heavy NLP model: the AIACC
    # advantage over Horovod is larger than for the 66M Transformer.
    bert_gain = by_key[("bert-large", 64)]["aiacc"] / \
        by_key[("bert-large", 64)]["horovod"]
    transformer_gain = by_key[("transformer", 64)]["aiacc"] / \
        by_key[("transformer", 64)]["horovod"]
    assert bert_gain > transformer_gain

    # Throughput grows monotonically with GPUs for AIACC.
    for model in ("transformer", "bert-large"):
        series = [by_key[(model, gpus)]["aiacc"]
                  for gpus in (8, 16, 32, 64, 128, 256)]
        assert series == sorted(series), model
