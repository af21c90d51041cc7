"""The warm-up auto-tuner (paper §VI).

"Given a budget of n training iterations and k search techniques (k = 4
and n = 100 by default in our current implementation), the meta solver
allocates the training iterations among search techniques to test their
effectiveness.  After n iterations, we choose the best performing
parameters to use for the remaining training iterations.  Crucially, the
results of parameter search also contribute to the final training
outcome, so no computation cycle is wasted."

Evaluating a candidate = running one (simulated) training iteration with
those parameters and measuring its duration; :func:`make_evaluator`
builds that measurement function for a deployment.
"""

from __future__ import annotations

import dataclasses
import logging
import typing as t

from repro.errors import AutotuneError, require_count, require_real
from repro.autotune.bandit import AUCBandit
from repro.autotune.bayesian import BayesianOptimization
from repro.autotune.grid import GridSearch
from repro.autotune.hyperband import Hyperband
from repro.autotune.pbt import PopulationBasedTraining
from repro.autotune.space import ParameterPoint, SearchSpace
from repro.autotune.techniques import SearchTechnique
from repro.obs import Observability


logger = logging.getLogger("repro.autotune")


@dataclasses.dataclass(frozen=True)
class Trial:
    """One warm-up iteration: who proposed what, and how it fared."""

    index: int
    technique: str
    point: ParameterPoint
    cost_s: float
    new_global_best: bool


@dataclasses.dataclass(frozen=True)
class TuneResult:
    """Outcome of a tuning run."""

    best_point: ParameterPoint
    best_cost_s: float
    trials: tuple[Trial, ...]

    @property
    def technique_usage(self) -> dict[str, int]:
        usage: dict[str, int] = {}
        for trial in self.trials:
            usage[trial.technique] = usage.get(trial.technique, 0) + 1
        return usage


def default_ensemble(space: SearchSpace, seed: int = 0
                     ) -> list[SearchTechnique]:
    """The paper's four-technique ensemble."""
    return [
        GridSearch(space),
        PopulationBasedTraining(space, seed=seed),
        BayesianOptimization(space, seed=seed + 1),
        Hyperband(space, seed=seed + 2),
    ]


class AutoTuner:
    """MAB-scheduled ensemble search within a warm-up budget."""

    def __init__(self, space: SearchSpace | None = None,
                 techniques: t.Sequence[SearchTechnique] | None = None,
                 budget: int = 100, window: int = 20,
                 exploration: float = 0.2, seed: int = 0,
                 initial_point: ParameterPoint | None = None,
                 obs: Observability | None = None) -> None:
        self.budget = require_count("budget", budget, 1, AutotuneError)
        #: Observability sink for trial/bandit-credit telemetry.
        self.obs = obs or Observability.disabled()
        registry = self.obs.registry
        self._m_trials = registry.counter(
            "autotune_trials_total", "Warm-up trials per search technique")
        self._m_credit = registry.counter(
            "autotune_bandit_credit_total",
            "Bandit rewards (new global bests) per search technique")
        self._m_trial_cost = registry.histogram(
            "autotune_trial_cost_seconds",
            "Measured iteration cost of each warm-up trial",
            buckets=(1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0))
        self._m_best_cost = registry.gauge(
            "autotune_best_cost_seconds",
            "Best iteration cost found so far")
        self.space = space or SearchSpace()
        self.techniques = list(techniques) if techniques is not None \
            else default_ensemble(self.space, seed=seed)
        if not self.techniques:
            raise AutotuneError("need at least one search technique")
        self.bandit = AUCBandit([t_.name for t_ in self.techniques],
                                window=window, exploration=exploration)
        #: Starting point from the settings cache (paper: previously found
        #: best for a similar deployment "to boost the search").
        self.initial_point = initial_point

    def tune(self, evaluate: t.Callable[[ParameterPoint], float]
             ) -> TuneResult:
        """Run the warm-up phase; returns the best point found."""
        by_name = {t_.name: t_ for t_ in self.techniques}
        best_point: ParameterPoint | None = None
        best_cost = float("inf")
        trials: list[Trial] = []

        def record(index: int, name: str, point: ParameterPoint,
                   cost: float) -> None:
            nonlocal best_point, best_cost
            require_real("evaluator cost", cost, AutotuneError)
            improved = cost < best_cost
            if improved:
                best_point, best_cost = point, cost
                self._m_credit.inc(technique=name)
                self._m_best_cost.set(cost)
            if name in self.bandit.techniques:
                self.bandit.reward(name, improved)
            self._m_trials.inc(technique=name)
            self._m_trial_cost.observe(cost, technique=name)
            if self.obs.diag is not None:
                self.obs.diag.observe_tuner_trial(index, name, cost)
            trials.append(Trial(index, name, point, cost, improved))
            if improved:
                logger.debug(
                    "trial %d (%s): new best %.4fs at %d streams / "
                    "%.0f MB / %s", index, name, cost,
                    point.num_streams, point.granularity_bytes / 1e6,
                    point.algorithm)

        start = 0
        if self.initial_point is not None:
            # The cached setting gets the first iteration: a good prior
            # becomes the early global best the ensemble must beat.
            record(0, "cache", self.initial_point,
                   evaluate(self.initial_point))
            start = 1

        for index in range(start, self.budget):
            name = self.bandit.select()
            technique = by_name[name]
            point = technique.propose()
            cost = evaluate(point)
            technique.observe(point, cost)
            record(index, name, point, cost)

        assert best_point is not None  # budget >= 1 guarantees a trial
        return TuneResult(best_point=best_point, best_cost_s=best_cost,
                          trials=tuple(trials))


#: Cost charged to a candidate whose algorithm cannot run on the
#: deployment's shape (e.g. halving-doubling on a non-power-of-two node
#: count).  Large but finite so surrogate models stay well-conditioned
#: while the point can never become the global best.
INFEASIBLE_COST_S = 1e6


def make_evaluator(model: str, num_gpus: int,
                   core_oversubscription: float = 1.0
                   ) -> t.Callable[[ParameterPoint], float]:
    """Build the cost function: one simulated iteration's duration.

    Each call constructs a fresh deployment with the candidate's
    parameters — the model's default batch on the paper's TCP cluster —
    and times one iteration straight after the backend's setup, with no
    warm-up iterations: the tuner itself runs during the paper's warm-up
    phase, so this is not :func:`repro.harness.measure`'s protocol.
    ``core_oversubscription > 1`` evaluates candidates on a cluster with
    a shared leaf-spine core, where congestion-aware algorithm choice
    (multi-tree, in-network aggregation) pays off.
    """
    from repro.errors import CollectiveError
    from repro.core.runtime import AIACCConfig
    from repro.frameworks import make_backend
    from repro.training.trainer import run_training

    def evaluate(point: ParameterPoint) -> float:
        config = AIACCConfig(
            num_streams=point.num_streams,
            granularity_bytes=point.granularity_bytes,
            algorithm=point.algorithm,
        )
        try:
            result = run_training(
                model, make_backend("aiacc", config=config), num_gpus,
                measure_iterations=1, warmup_iterations=0,
                core_oversubscription=core_oversubscription,
            )
        except CollectiveError:
            return INFEASIBLE_COST_S
        return result.mean_iteration_s

    return evaluate
