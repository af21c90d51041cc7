"""Hyperband technique (Li et al., 2017).

Successive halving adapted to the tuner's one-iteration-per-pull budget
model: a bracket starts with ``n`` random configurations; each *rung*
re-evaluates the surviving configurations (more pulls = more measurement
resolution) and keeps the best ``1/eta`` fraction for the next rung.
Re-evaluation matters on real deployments where one iteration is a noisy
cost sample; the default ``eta`` is aggressive (4) so most of the budget
goes to fresh configurations rather than repeats.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import AutotuneError, require_count
from repro.autotune.space import ParameterPoint, SearchSpace
from repro.autotune.techniques import SearchTechnique


class Hyperband(SearchTechnique):
    """Successive-halving brackets over random configurations."""

    name = "hyperband"

    def __init__(self, space: SearchSpace, bracket_size: int = 8,
                 eta: int = 4, seed: int = 0) -> None:
        super().__init__(space)
        self.eta = require_count("eta", eta, 2, AutotuneError)
        self.bracket_size = require_count("bracket_size", bracket_size,
                                          self.eta, AutotuneError)
        self.rng = np.random.default_rng(seed)
        self._start_bracket()

    def _start_bracket(self) -> None:
        self._rung: list[ParameterPoint] = [
            self.space.random_point(self.rng)
            for _ in range(self.bracket_size)
        ]
        self._costs: dict[ParameterPoint, list[float]] = {
            p: [] for p in self._rung}
        self._cursor = 0

    def propose(self) -> ParameterPoint:
        return self._rung[self._cursor]

    def _observe(self, point: ParameterPoint, cost: float) -> None:
        self._costs.setdefault(point, []).append(cost)
        self._cursor += 1
        if self._cursor < len(self._rung):
            return
        # Rung complete: halve.
        survivors = max(1, len(set(self._rung)) // self.eta)
        ranked = sorted(set(self._rung),
                        key=lambda p: math.fsum(self._costs[p]) /
                        len(self._costs[p]))
        if survivors == 1 or len(ranked) == 1:
            self._start_bracket()
            return
        self._rung = ranked[:survivors]
        self._cursor = 0
