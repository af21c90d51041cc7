"""Population-based training (Jaderberg et al., 2017) technique.

A small population of parameter points is evaluated round-robin; after
each generation the bottom half *exploits* (copies) the top half and
*explores* by perturbing one grid step — matching PBT's
exploit-and-explore loop on our discrete space.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import AutotuneError, require_count
from repro.autotune.space import ParameterPoint, SearchSpace
from repro.autotune.techniques import SearchTechnique


class PopulationBasedTraining(SearchTechnique):
    """Exploit/explore evolution of a point population."""

    name = "pbt"

    def __init__(self, space: SearchSpace, population_size: int = 8,
                 seed: int = 0) -> None:
        super().__init__(space)
        population_size = require_count("population_size", population_size,
                                        2, AutotuneError)
        self.rng = np.random.default_rng(seed)
        self.population = [space.random_point(self.rng)
                           for _ in range(population_size)]
        self._scores: list[float | None] = [None] * population_size
        self._cursor = 0

    def propose(self) -> ParameterPoint:
        return self.population[self._cursor]

    def _observe(self, point: ParameterPoint, cost: float) -> None:
        self._scores[self._cursor] = cost
        self._cursor += 1
        if self._cursor == len(self.population):
            self._evolve()
            self._cursor = 0

    def _evolve(self) -> None:
        """Bottom half copies the top half, then perturbs one step."""
        scored = sorted(range(len(self.population)),
                        key=lambda i: math.inf if self._scores[i] is None
                        else self._scores[i])
        half = len(self.population) // 2
        for loser_rank in range(half, len(self.population)):
            loser = scored[loser_rank]
            winner = scored[loser_rank - half]
            candidate = self.population[winner]
            neighbors = self.space.neighbors(candidate)
            self.population[loser] = neighbors[
                self.rng.integers(len(neighbors))]
        self._scores = [None] * len(self.population)
