"""Exception hierarchy and input policy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.

Input policy.  Every count, real and fraction a constructor,
``__post_init__`` or public entry point takes is checked by one of two
helpers, which raise the caller's typed error:

- :func:`require_count` takes a whole number ``>= minimum`` through
  :func:`operator.index`: stream, node, GPU, retry and iteration counts.
  ``2.5``, ``16.0`` and ``nan`` are refused, not truncated.
- :func:`require_real` takes a finite number ``>= 0`` (``> 0`` when
  ``positive``): durations, bandwidths, sizes, rates, priorities and
  fractions.  ``nan`` and ``inf`` are refused.

Neither takes a ``bool``: ``True`` is a flag, not a count of one.

A tighter bound (``<= 1`` for a fraction, ``<= MAX_STREAMS``,
``multiplier >= 1``) is one plain comparison right after the helper
call; the helper has already refused ``nan``, so the comparison is
safe.  Index checks (a rank, node or id in ``[0, n)``) are a different
rule and stay inline.

A guard that runs per event, per flow, per request or per collective
(``Simulator.timeout``, the ``FluidNetwork`` flow and link checks,
``TimedCollectives``' size and ``cap_scale`` checks,
``Resource.acquire``, ``SharedFabric.allreduce``) also stays inline, so
the hot path pays a compare, not a call.
"""

from __future__ import annotations

import math
import operator
import typing as t


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class InvariantViolation(ReproError):
    """A simulation-wide invariant was violated.

    Raised by the opt-in :class:`repro.sim.invariants.InvariantChecker`
    (``Simulator(check_invariants=True)`` / ``--check-invariants`` /
    ``REPRO_CHECK_INVARIANTS=1``).  Structured so a violation in a
    multi-worker run pinpoints itself: it names the invariant, the rank it
    is attributable to (when known), and the simulated time.
    """

    def __init__(self, invariant: str, detail: str,
                 rank: "int | None" = None,
                 sim_time: "float | None" = None) -> None:
        where = []
        if rank is not None:
            where.append(f"rank {rank}")
        if sim_time is not None:
            where.append(f"t={sim_time:.6f}s")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(
            f"invariant {invariant!r} violated{suffix}: {detail}"
        )
        self.invariant = invariant
        self.detail = detail
        self.rank = rank
        self.sim_time = sim_time


class ProcessInterrupt(ReproError):
    """A simulated process was interrupted by another process.

    The interrupting party may attach an arbitrary ``cause`` describing why
    the interrupt happened (e.g. a simulated node failure).
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(f"process interrupted (cause={cause!r})")
        self.cause = cause


class FaultInjectionError(ReproError):
    """A fault-injection plan was invalid or could not be delivered."""


class PeerDeadError(ReproError):
    """A communication peer was declared dead by the failure detector.

    Raised by the AIACC engine after a collective misses its deadline and
    every bounded retry (with exponential backoff) also times out — the
    paper's §IV fault-tolerance path.  Carries the detection timeline so
    recovery drivers can report detection latency.
    """

    def __init__(self, phase: str, suspected_at_s: float,
                 confirmed_at_s: float, cause: object = None) -> None:
        super().__init__(
            f"peer declared dead during {phase!r} "
            f"(suspected at t={suspected_at_s:.3f}s, "
            f"confirmed at t={confirmed_at_s:.3f}s)"
        )
        self.phase = phase
        self.suspected_at_s = suspected_at_s
        self.confirmed_at_s = confirmed_at_s
        self.cause = cause


class NetworkError(ReproError):
    """Invalid network configuration or flow state."""


class TopologyError(ReproError):
    """Invalid cluster topology description."""


class CollectiveError(ReproError):
    """A collective operation was invoked with inconsistent arguments."""


class RegistrationError(ReproError):
    """Gradient registration failed (duplicate/unknown parameters, ...)."""


class SynchronizationError(ReproError):
    """Gradient synchronization reached an inconsistent state."""


class SyncTimeoutError(SynchronizationError):
    """A decentralized synchronization round missed its deadline.

    The min-allreduce ring is master-free, so there is no central health
    tracker: a rank whose round does not complete within the deadline can
    only *suspect* that some peer died (it cannot yet name the culprit).
    """

    def __init__(self, rank: int, round_index: int,
                 deadline_s: float) -> None:
        super().__init__(
            f"rank {rank} sync round {round_index} missed its "
            f"{deadline_s:g}s deadline; suspecting a peer failure"
        )
        self.rank = rank
        self.round_index = round_index
        self.deadline_s = deadline_s


class PackingError(ReproError):
    """Gradient packing/unpacking failed."""


class AutotuneError(ReproError):
    """Auto-tuning was configured incorrectly."""


class TrainingError(ReproError):
    """The training driver hit an unrecoverable condition."""


class CheckpointError(ReproError):
    """Saving or restoring a checkpoint failed."""


class TranslationError(ReproError):
    """The source-to-source translator could not convert the input script."""


class ReportInputError(ReproError):
    """A report command was pointed at a missing or corrupt input file.

    Raised (instead of an unhandled ``OSError``/``json.JSONDecodeError``
    traceback) by ``python -m repro report`` and the campaign report
    path so scripted pipelines get a typed failure and a non-zero exit.
    """


class CampaignError(ReproError):
    """The experiment-campaign service hit an invalid request or state."""


class CampaignStoreError(CampaignError):
    """The durable campaign results store is missing, corrupt or denied
    an atomic state transition it needed."""


class TransientWorkerError(ReproError):
    """A campaign run failed in a way that is expected to succeed on
    retry (injected by test runners; the retry policy's canonical
    transient error class)."""


class ClusterError(ReproError):
    """The multi-tenant cluster runtime hit an invalid request or state."""


class AdmissionRejected(ClusterError):
    """A job could not be admitted before its queueing deadline.

    Raised by the placement scheduler when the conservative
    bandwidth/slot estimate still does not fit after the capped-backoff
    retry budget is exhausted.  Carries the job identity and the last
    reason the admission check failed so callers can requeue, resize, or
    surface a typed error.
    """

    def __init__(self, job_id: str, deadline_s: float,
                 reason: str, attempts: int) -> None:
        super().__init__(
            f"job {job_id!r} rejected after {attempts} admission "
            f"attempt(s) over {deadline_s:g}s: {reason}"
        )
        self.job_id = job_id
        self.deadline_s = deadline_s
        self.reason = reason
        self.attempts = attempts


class NaNGradientError(TrainingError):
    """A NaN/Inf value was detected in a gradient tensor.

    Raised by the debugging support described in Section IV of the paper
    when ``nan_check`` is enabled and a non-finite gradient is produced.
    """

    def __init__(self, parameter_name: str, worker_rank: int) -> None:
        super().__init__(
            f"non-finite gradient for parameter {parameter_name!r} "
            f"on worker rank {worker_rank}"
        )
        self.parameter_name = parameter_name
        self.worker_rank = worker_rank


def require_count(name: str, value: t.Any, minimum: int,
                  error: type[ReproError]) -> int:
    """``value`` as an int ``>= minimum``, else ``error``.

    Counts go through :func:`operator.index`, so ``2.5``, ``16.0`` and
    ``nan`` are refused instead of being truncated or compared.
    """
    if type(value) is not bool:
        try:
            count = operator.index(value)
        except TypeError:
            pass
        else:
            if count >= minimum:
                return count
    raise error(f"{name} must be a whole number >= {minimum}, got {value!r}")


def require_real(name: str, value: t.Any, error: type[ReproError],
                 positive: bool = False) -> float:
    """``value`` if it is finite and ``>= 0`` (``> 0`` when
    ``positive``), else ``error``."""
    try:
        if (0 < value if positive else 0 <= value) and value < math.inf \
                and type(value) is not bool:
            return value
    except TypeError:
        pass
    raise error(f"{name} must be finite and "
                f"{'positive' if positive else 'non-negative'}, got {value!r}")
