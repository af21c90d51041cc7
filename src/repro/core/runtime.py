"""AIACC-Training runtime configuration.

The three hyperparameters of Section VI — number of concurrent
communication streams, gradient communication granularity, and all-reduce
algorithm — plus the production feature toggles of Section IV.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ReproError, require_count, require_real

#: Search bounds observed in the paper's deployments ("the number of
#: concurrent CUDA streams varies between 2 and 24", §VIII-D).
MIN_STREAMS = 1
MAX_STREAMS = 24

#: Granularity bounds for packing gradients into all-reduce units.
MIN_GRANULARITY_BYTES = 512 * 1024
MAX_GRANULARITY_BYTES = 256 * 1024 * 1024

#: Default cap on the failure detector's exponential per-attempt
#: deadline (and backoff) growth, as a multiple of the base timeout.
#: Without a cap, ``comm_retries`` retries give the last attempt a
#: ``2**retries x timeout`` deadline, so confirming a dead peer can take
#: far longer than ``retries x timeout``.
DETECTION_DEADLINE_CAP_FACTOR = 4.0


@dataclasses.dataclass(frozen=True)
class AIACCConfig:
    """Tunable communication parameters and feature switches."""

    #: Concurrent communication streams (CUDA streams / TCP connections).
    num_streams: int = 8
    #: Target byte size of one all-reduce unit; small tensors are merged
    #: up to it and large tensors split down to it (paper §V-B).
    granularity_bytes: float = 16e6
    #: All-reduce algorithm: "ring", "hierarchical" (the paper's tree),
    #: or a planner-synthesized backend ("halving-doubling",
    #: "multi-tree", "ina" — see :mod:`repro.collectives.planner`).
    algorithm: str = "ring"
    #: Transmit gradients as fp16 (Section X: "half-precision
    #: representation to accelerate gradient transmission").
    fp16_compression: bool = False
    #: Raise NaNGradientError when a non-finite gradient is produced.
    nan_check: bool = False
    #: Deadline for the decentralized readiness sync round; a rank that
    #: misses it suspects a peer failure (paper §IV fault tolerance).
    #: ``None`` disables detection (the healthy-path default).
    sync_timeout_s: float | None = None
    #: Per-all-reduce-unit deadline before the unit is retried.
    unit_timeout_s: float | None = None
    #: Bounded retries after a timed-out collective before the peer is
    #: declared dead.
    comm_retries: int = 2
    #: Base of the exponential backoff between retries.
    retry_backoff_s: float = 0.5
    #: Hard cap on the failure detector's per-attempt deadline (and the
    #: backoff slept between attempts).  ``None`` caps at
    #: ``DETECTION_DEADLINE_CAP_FACTOR x`` the phase's base timeout, so
    #: total confirmation latency stays linear in ``comm_retries``
    #: instead of exponential.
    max_detection_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if require_count("num_streams", self.num_streams, MIN_STREAMS,
                         ReproError) > MAX_STREAMS:
            raise ReproError(
                f"num_streams must be within [{MIN_STREAMS}, {MAX_STREAMS}]"
            )
        if not MIN_GRANULARITY_BYTES <= require_real(
                "granularity_bytes", self.granularity_bytes, ReproError) \
                <= MAX_GRANULARITY_BYTES:
            raise ReproError(
                "granularity_bytes must be within "
                f"[{MIN_GRANULARITY_BYTES}, {MAX_GRANULARITY_BYTES}]"
            )
        from repro.collectives.timed import ALGORITHMS
        if self.algorithm not in ALGORITHMS:
            raise ReproError(
                f"algorithm must be one of {ALGORITHMS}, "
                f"got {self.algorithm!r}"
            )
        # The failure detector schedules these as timeouts: a NaN or an
        # infinite deadline would sit in the event heap, and ``min()``
        # silently drops a NaN clamp.
        for name in ("sync_timeout_s", "unit_timeout_s",
                     "max_detection_deadline_s"):
            if getattr(self, name) is not None:
                require_real(name, getattr(self, name), ReproError,
                             positive=True)
        require_count("comm_retries", self.comm_retries, 0, ReproError)
        require_real("retry_backoff_s", self.retry_backoff_s, ReproError)

    @property
    def wire_dtype_bytes(self) -> int:
        """Bytes per gradient element on the wire."""
        return 2 if self.fp16_compression else 4

    def replace(self, **changes: object) -> "AIACCConfig":
        """Return a copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)
