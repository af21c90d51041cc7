"""The multi-armed-bandit meta solver (paper §VI).

"Our meta solver is a MAB with a sliding window, area under the curve
(AUC) credit assignment algorithm ... the meta solver aims to maximize:

    argmax_t ( AUC_t + C * sqrt( 2 * lg|H| / H_t ) )

where t is a search technique, |H| the length of a sliding history
window, H_t how often the technique was used in that window, C (0.2 by
default) the exploration constant, and AUC_t the credit assignment term.
We compute the AUC curve by looking at the history of a technique.  If
the technique delivered a new global best, we draw an upward line on the
AUC curve.  Otherwise, we draw a flat line.  We then compute the area
under the AUC curve."
"""

from __future__ import annotations

import math
import typing as t
from collections import deque

from repro.errors import AutotuneError, require_count


class AUCBandit:
    """Sliding-window AUC credit assignment over technique names."""

    def __init__(self, techniques: t.Sequence[str], window: int = 20,
                 exploration: float = 0.2) -> None:
        if not techniques:
            raise AutotuneError("bandit needs at least one technique")
        if len(set(techniques)) != len(techniques):
            raise AutotuneError("technique names must be unique")
        self.techniques = list(techniques)
        self.window = require_count("window", window, 1, AutotuneError)
        self.exploration = exploration
        #: (technique, delivered_new_global_best) events, oldest first.
        self.history: deque[tuple[str, bool]] = deque(maxlen=self.window)

    # -- credit assignment ---------------------------------------------------

    def auc(self, technique: str) -> float:
        """Normalised area under the technique's improvement curve.

        Improvement events draw an upward segment, others a flat one, and
        the area is accumulated from the *end* of the window backwards:
        the ``i``-th event (oldest first, out of ``k``) contributes
        ``i + 1`` when it improved, so a recent improvement carries area
        under every later step while an old one has mostly fallen off.
        Normalised by the maximal possible area (``k (k+1) / 2``) so the
        result lies in [0, 1] — recency-weighted credit, matching the
        paper's sliding-window intent.
        """
        events = [improved for name, improved in self.history
                  if name == technique]
        if not events:
            return 0.0
        area = sum(index + 1.0
                   for index, improved in enumerate(events) if improved)
        max_area = len(events) * (len(events) + 1) / 2
        return area / max_area

    def usage(self, technique: str) -> int:
        """How often the technique appears in the window (H_t)."""
        return sum(1 for name, _ in self.history if name == technique)

    def score(self, technique: str) -> float:
        """AUC_t + C * sqrt(2 lg|H| / H_t); unused techniques score inf."""
        used = self.usage(technique)
        if used == 0:
            return math.inf
        size = max(2, len(self.history))
        return self.auc(technique) + self.exploration * math.sqrt(
            2.0 * math.log2(size) / used)

    # -- bandit interface -------------------------------------------------------

    def select(self) -> str:
        """Pick the technique for the next warm-up iteration."""
        return max(self.techniques, key=self.score)

    def reward(self, technique: str, new_global_best: bool) -> None:
        """Record the outcome of one pull."""
        if technique not in self.techniques:
            raise AutotuneError(f"unknown technique {technique!r}")
        self.history.append((technique, new_global_best))
