"""Order statistics the benchmark reports and compares.

A run's ops come in rounds (see :mod:`bench.workloads`).  Rates and tail
latencies are taken per chunk of whole rounds and then the median over
chunks is reported: a burst of machine noise slows one or two chunks and
leaves the median alone.  With fewer rounds than chunks (each round is
then a long mix of ops on its own) the whole run is one chunk.
"""

from __future__ import annotations

import statistics
import typing as t

CHUNKS = 10


def percentile(values: t.Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: t.Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values: t.Sequence[float]) -> float:
    """Quartile distance as a share of the median (the run-to-run spread)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def round_chunks(rounds: int, chunks: int = CHUNKS) -> list[range]:
    """``chunks`` equal runs of whole rounds; leftover rounds are dropped."""
    if rounds < 1:
        raise ValueError("no rounds")
    if rounds < chunks:
        return [range(rounds)]
    size = rounds // chunks
    return [range(i * size, (i + 1) * size) for i in range(chunks)]


def _chunks(latencies: t.Sequence[float],
            round_ops: t.Sequence[int]) -> list[t.Sequence[float]]:
    """The latencies of each chunk of whole rounds."""
    if sum(round_ops) != len(latencies):
        raise ValueError("round op counts do not add up to the latencies")
    offsets = [0]
    for ops in round_ops:
        offsets.append(offsets[-1] + ops)
    return [latencies[offsets[chunk[0]]:offsets[chunk[-1] + 1]]
            for chunk in round_chunks(len(round_ops))]


def chunked_rate(latencies: t.Sequence[float],
                 round_ops: t.Sequence[int]) -> float:
    """Ops per second of op time: the median over chunks of rounds."""
    return statistics.median(len(chunk) / sum(chunk)
                             for chunk in _chunks(latencies, round_ops))


def chunked_percentile(latencies: t.Sequence[float],
                       round_ops: t.Sequence[int], q: float) -> float:
    """The ``q``-th latency percentile: the median over chunks of rounds."""
    return statistics.median(percentile(chunk, q)
                             for chunk in _chunks(latencies, round_ops))
