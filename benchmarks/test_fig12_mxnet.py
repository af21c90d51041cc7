"""Fig. 12: MXNet models — AIACC vs the native KVStore parameter server.

Shape criteria: "the parameter server approach used by MXNet gives a
lower throughput compared to the all-reduce" — AIACC wins every
multi-node point and the gap widens with scale.
"""


def test_fig12_mxnet(record_table):
    rows = record_table("fig12_mxnet")
    by_key = {(row["model"], row["gpus"]): row for row in rows}

    for (model, gpus), row in by_key.items():
        if gpus > 8:
            assert row["aiacc"] > row["mxnet-kvstore"], (model, gpus)

    for model in ("vgg16", "resnet50"):
        gain_16 = by_key[(model, 16)]["aiacc"] / \
            by_key[(model, 16)]["mxnet-kvstore"]
        gain_256 = by_key[(model, 256)]["aiacc"] / \
            by_key[(model, 256)]["mxnet-kvstore"]
        assert gain_256 > gain_16 > 1.0, model
