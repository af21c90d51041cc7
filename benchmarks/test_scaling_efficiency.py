"""§VIII-A / §III text claims: scaling efficiencies and speedups.

Shape criteria:

* AIACC scaling efficiency high (paper: "over 0.96"; our fp32 lower
  bound: > 0.9 at 32 GPUs);
* "1.3x and 1.8x improvement over Horovod on ResNet-50 and VGG-16
  respectively with 32 GPUs";
* larger speedups at 256 GPUs (paper: "up to 1.68x and 2.68x" over
  Horovod and PyTorch-DDP).
"""

import pytest


def test_scaling_efficiency_claims(record_table):
    rows = record_table("scaling_efficiency")
    by_key = {(row["model"], row["gpus"]): row for row in rows}

    # ResNet-50 @32: ~1.3x over Horovod (Horovod at ~75% efficiency).
    rn32 = by_key[("resnet50", 32)]
    assert rn32["speedup_vs_horovod"] == pytest.approx(1.3, rel=0.15)
    assert rn32["aiacc_eff"] > 0.9

    # VGG-16 @32: ~1.8x over Horovod.
    vgg32 = by_key[("vgg16", 32)]
    assert vgg32["speedup_vs_horovod"] == pytest.approx(1.8, rel=0.15)

    # 256 GPUs: larger gains, in the paper's reported bands (ours runs
    # slightly above the 1.68x/2.68x "up to" values; see EXPERIMENTS.md).
    for model in ("resnet50", "vgg16"):
        large = by_key[(model, 256)]
        small = by_key[(model, 32)]
        assert large["speedup_vs_horovod"] > small["speedup_vs_horovod"]
        assert 1.5 < large["speedup_vs_horovod"] < 3.0
        assert 1.5 < large["speedup_vs_ddp"] < 3.6
