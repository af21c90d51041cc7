"""§VIII-D: auto-tuning parameter choices across deployments.

Shape criteria: "the number of concurrent CUDA streams varies between 2
and 24, whereas AIACC-Training tends to use a larger number of CUDA
streams when a higher number of GPUs is available"; "the chosen
communication granularity is larger for the Transformer-based model".
The ring-vs-hierarchical choice is within noise in our cost model (see
EXPERIMENTS.md), so it is reported but not asserted.
"""


def test_autotune_parameter_trends(record_table):
    rows = record_table("autotune_params")
    by_key = {(row["model"], row["gpus"]): row for row in rows}

    # All choices stay in the paper's observed stream range.
    assert all(2 <= row["streams"] <= 24 for row in rows)

    # More GPUs -> more streams (ResNet-50 at 16 vs 128 GPUs).
    assert by_key[("resnet50", 128)]["streams"] >= \
        by_key[("resnet50", 16)]["streams"]

    # The Transformer-family model tunes to a granularity at least as
    # large as the CV model's.
    assert by_key[("bert-large", 64)]["granularity_mb"] >= \
        by_key[("resnet50", 16)]["granularity_mb"]

    # The tuner always returns a valid algorithm.
    assert all(row["algorithm"] in ("ring", "hierarchical")
               for row in rows)
