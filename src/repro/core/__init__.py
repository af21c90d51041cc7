"""AIACC-Training core: the paper's primary contribution.

Components (paper section in parentheses):

- :mod:`repro.core.runtime` — tunable communication parameters (§VI);
- :mod:`repro.core.registration` — sorted parameter registry + readiness
  bit vector (§V-A.1);
- :mod:`repro.core.synchronization` — decentralized min-all-reduce
  gradient synchronization (§V-A.2);
- :mod:`repro.core.packing` — split/merge into all-reduce units (§V-B);
- :mod:`repro.core.streams` — the multi-stream communication pool with
  CUDA SM contention (§V, Algorithm 1);
- :mod:`repro.core.engine` — the timed backend combining all of the
  above (Fig. 6);
- :mod:`repro.core.perseus` — the Horovod-compatible numeric API (§IV);
- :mod:`repro.core.compression` — fp16 wire compression (§X);
- :mod:`repro.core.fault_tolerance` — atomic checkpoints (§IV);
- :mod:`repro.core.elastic` — the worker group: epoch-based elastic
  membership, checkpoint restore on failure and the live-parameter
  broadcast to joiners (§IV);
- :mod:`repro.core.debugging` — NaN attribution (§IV);
- :mod:`repro.core.translator` — source-to-source porting tool (§IV).
"""

from repro.core.compression import FP16Compressor, NullCompressor
from repro.core.debugging import GradientDebugger, check_finite
from repro.core.elastic import (
    ElasticRuntime,
    EpochTransition,
    MembershipView,
)
from repro.core.engine import AIACCBackend
from repro.core.fault_tolerance import CheckpointManager
from repro.core.message_engine import (
    MessageLevelResult,
    run_message_level_iteration,
)
from repro.core.packing import (
    AllReduceUnit,
    BackwardPlan,
    GradientPacker,
    TensorSlice,
    plan_backward,
    unpack,
)
from repro.core.perseus import PerseusSession, init
from repro.core.registration import GradientRegistry
from repro.core.runtime import AIACCConfig
from repro.core.streams import CommStreamPool
from repro.core.synchronization import DecentralizedSynchronizer, synchronize_all
from repro.core.translator import (
    translate_horovod_source,
    translate_sequential_source,
)

__all__ = [
    "AIACCBackend",
    "AIACCConfig",
    "AllReduceUnit",
    "BackwardPlan",
    "CheckpointManager",
    "CommStreamPool",
    "DecentralizedSynchronizer",
    "ElasticRuntime",
    "EpochTransition",
    "MembershipView",
    "FP16Compressor",
    "GradientDebugger",
    "GradientPacker",
    "GradientRegistry",
    "MessageLevelResult",
    "NullCompressor",
    "PerseusSession",
    "TensorSlice",
    "check_finite",
    "init",
    "plan_backward",
    "run_message_level_iteration",
    "synchronize_all",
    "translate_horovod_source",
    "translate_sequential_source",
    "unpack",
]
