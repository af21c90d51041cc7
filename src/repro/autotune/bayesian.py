"""Bayesian optimization technique.

A Gaussian-process surrogate with an RBF kernel models iteration cost
over the encoded parameter space; candidates are scored by *expected
improvement*.  The implementation is numpy/scipy only — no external BO
library — and falls back to random sampling until enough observations
exist to fit the surrogate.
"""

from __future__ import annotations

import numpy as np

from repro.autotune.space import ParameterPoint, SearchSpace
from repro.autotune.techniques import SearchTechnique

#: Observations required before the surrogate takes over from random.
_MIN_OBSERVATIONS = 5


class BayesianOptimization(SearchTechnique):
    """GP + expected-improvement search over the encoded grid."""

    name = "bayesian"

    def __init__(self, space: SearchSpace, length_scale: float = 0.3,
                 noise: float = 1e-4, seed: int = 0) -> None:
        super().__init__(space)
        self.length_scale = length_scale
        self.noise = noise
        self.rng = np.random.default_rng(seed)
        self._observed_x: list[np.ndarray] = []
        self._observed_y: list[float] = []
        self._seen: set[ParameterPoint] = set()

    # -- GP machinery ------------------------------------------------------

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return np.exp(-0.5 * sq / self.length_scale ** 2)

    def _posterior(self, candidates: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """GP posterior mean and stddev at ``candidates``."""
        from scipy import linalg
        train_x = np.stack(self._observed_x)
        train_y = np.asarray(self._observed_y)
        mean_y = train_y.mean()
        centered = train_y - mean_y
        gram = self._kernel(train_x, train_x) + \
            self.noise * np.eye(len(train_x))
        factor = linalg.cho_factor(gram)
        k_star = self._kernel(candidates, train_x)
        mu = mean_y + k_star @ linalg.cho_solve(factor, centered)
        v = linalg.cho_solve(factor, k_star.T)
        var = 1.0 - np.einsum("ij,ji->i", k_star, v)
        return mu, np.sqrt(np.clip(var, 1e-12, None))

    # -- SearchTechnique interface ----------------------------------------------

    def propose(self) -> ParameterPoint:
        pool = [p for p in self.space.all_points() if p not in self._seen]
        if not pool:
            pool = self.space.all_points()
        if len(self._observed_y) < _MIN_OBSERVATIONS:
            return pool[self.rng.integers(len(pool))]
        from scipy.stats import norm

        encoded = np.stack([p.encode(self.space) for p in pool])
        mu, sigma = self._posterior(encoded)
        best = min(self._observed_y)
        # Expected improvement for minimisation.
        gamma = (best - mu) / sigma
        ei = sigma * (gamma * norm.cdf(gamma) + norm.pdf(gamma))
        return pool[int(np.argmax(ei))]

    def _observe(self, point: ParameterPoint, cost: float) -> None:
        self._seen.add(point)
        self._observed_x.append(point.encode(self.space))
        self._observed_y.append(cost)
