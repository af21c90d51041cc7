"""Table I: DNN model characteristics (#parameters, #FLOPs)."""

import pytest

#: The paper's printed values.
PAPER_TABLE1 = {
    "vgg16": (138.3e6, 31e9),
    "resnet50": (25.6e6, 4e9),
    "resnet101": (29.4e6, 8e9),
    "transformer": (66.5e6, 145e9),
    "bert-large": (302.2e6, 232e9),
}


def test_table1(record_table):
    rows = record_table("table1_models")
    for row in rows:
        params, flops = PAPER_TABLE1[row["model"]]
        assert row["parameters"] == pytest.approx(params, rel=0.001)
        assert row["flops"] == pytest.approx(flops, rel=0.001)
