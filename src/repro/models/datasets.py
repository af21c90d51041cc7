"""Dataset descriptors.

The throughput experiments never inspect sample content, so a dataset is
described only by its size and sample unit.  The convergence model
(:mod:`repro.training.convergence`) additionally needs epochs-to-accuracy
calibration, which lives with the dataset it was measured on.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ReproError, require_count


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """Size and shape of a training dataset."""

    name: str
    num_samples: int
    sample_unit: str

    def __post_init__(self) -> None:
        require_count(f"dataset {self.name!r} num_samples", self.num_samples,
                      1, ReproError)


#: ImageNet-1k training split (ILSVRC-2012).
IMAGENET = DatasetSpec("imagenet", 1_281_167, "images")

#: English Wikitext corpus, in 128-token sequences.
WIKITEXT_EN = DatasetSpec("wikitext-en", 800_000, "sequences")

#: The paper's production CTR system processes "100+ billion entries in
#: 5 hours"; one epoch here is a representative shard.
CTR_PRODUCTION = DatasetSpec("ctr-production", 100_000_000_000, "entries")
