"""Retry/quarantine policy for failed campaign runs.

Two failure families need opposite handling:

* **transient** — a flaky environment condition (worker OOM-killed,
  store briefly locked, injected chaos): retry the cell with capped
  exponential backoff so a burst of failures cannot hot-loop.
* **deterministic** — the cell itself is broken (bad parameter combo,
  reproducible simulation error): retrying re-derives the same failure
  forever.  The policy's heuristic: the **same error class twice in a
  row on the same spec** is deterministic, and the cell is quarantined
  so the rest of the campaign completes instead of looping.

The policy is a pure function of ``(attempt, error_class,
previous_error_class)`` and is applied *inside the store's atomic
failure transition* (:meth:`repro.campaign.store.CampaignStore.
record_failure`), so a crash between "decide" and "record" cannot
split the decision from the state.
"""

from __future__ import annotations

import dataclasses

from repro.errors import CampaignError, require_count, require_real

#: Terminal decision kinds.
RETRY = "retry"
FAIL = "fail"
QUARANTINE = "quarantine"


@dataclasses.dataclass(frozen=True)
class Decision:
    """What to do with a just-failed run."""

    action: str          #: one of RETRY / FAIL / QUARANTINE
    delay_s: float = 0.0  #: backoff before the retry becomes claimable
    reason: str = ""


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic-failure quarantine."""

    #: Maximum times a cell may be *started* (first try included).
    max_attempts: int = 4
    #: Backoff before retry ``n`` is ``base * multiplier**(n-1)``...
    base_backoff_s: float = 0.5
    multiplier: float = 2.0
    #: ...capped here, so a long campaign never sleeps unboundedly.
    max_backoff_s: float = 30.0
    #: Quarantine when the same error class repeats on the same spec.
    quarantine_repeated_class: bool = True

    def __post_init__(self) -> None:
        require_count("max_attempts", self.max_attempts, 1, CampaignError)
        require_real("base_backoff_s", self.base_backoff_s, CampaignError)
        require_real("max_backoff_s", self.max_backoff_s, CampaignError)
        if require_real("multiplier", self.multiplier, CampaignError) < 1:
            raise CampaignError("multiplier must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Backoff after the ``attempt``-th start (1-based) failed."""
        raw = self.base_backoff_s * self.multiplier ** max(0, attempt - 1)
        return min(self.max_backoff_s, raw)

    def decide(self, attempt: int, error_class: str,
               previous_error_class: str | None) -> Decision:
        """Policy outcome for a failure on the ``attempt``-th start."""
        if (self.quarantine_repeated_class
                and previous_error_class is not None
                and error_class == previous_error_class):
            return Decision(
                QUARANTINE,
                reason=f"error class {error_class!r} repeated on "
                       f"attempts {attempt - 1} and {attempt}: "
                       f"deterministic failure")
        if attempt >= self.max_attempts:
            return Decision(
                FAIL,
                reason=f"retry budget exhausted after {attempt} attempts")
        return Decision(RETRY, delay_s=self.backoff_s(attempt),
                        reason=f"transient {error_class!r}; retrying")

    # -- (de)serialization across the process-pool boundary -------------------

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, data: dict) -> "RetryPolicy":
        return cls(**data)
