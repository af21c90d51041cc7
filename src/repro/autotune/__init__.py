"""Auto-tuning of communication parameters (paper Section VI).

A multi-armed-bandit meta solver (sliding-window AUC credit assignment)
allocates a warm-up budget of training iterations across an ensemble of
four search techniques — grid search, population-based training, Bayesian
optimization and Hyperband — to choose the number of communication
streams, the all-reduce unit granularity and the all-reduce algorithm.
Tuned settings are cached and reused for similar deployments via graph
edit distance.
"""

from repro.autotune.bandit import AUCBandit
from repro.autotune.bayesian import BayesianOptimization
from repro.autotune.cache import CacheEntry, SettingsCache
from repro.autotune.graph_distance import (
    ModelFingerprint,
    TopologyRecord,
    deployment_distance,
    graph_edit_distance,
    signature_distance,
)
from repro.autotune.grid import GridSearch
from repro.autotune.hyperband import Hyperband
from repro.autotune.pbt import PopulationBasedTraining
from repro.autotune.space import (
    EXTENDED_ALGORITHMS,
    ParameterPoint,
    SearchSpace,
)
from repro.autotune.techniques import SearchTechnique
from repro.autotune.tuner import (
    AutoTuner,
    Trial,
    TuneResult,
    default_ensemble,
    make_evaluator,
)

__all__ = [
    "AUCBandit",
    "AutoTuner",
    "BayesianOptimization",
    "CacheEntry",
    "EXTENDED_ALGORITHMS",
    "GridSearch",
    "Hyperband",
    "ModelFingerprint",
    "ParameterPoint",
    "PopulationBasedTraining",
    "SearchSpace",
    "SearchTechnique",
    "SettingsCache",
    "TopologyRecord",
    "Trial",
    "TuneResult",
    "default_ensemble",
    "deployment_distance",
    "graph_edit_distance",
    "make_evaluator",
    "signature_distance",
]
