import statistics

import pytest

from bench.stats import (
    chunked_percentile,
    chunked_rate,
    iqr_share,
    percentile,
    quartiles,
    round_chunks,
)


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    assert percentile([1.0, 2.0], 25) == pytest.approx(1.25)
    assert percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0, 4.0]) == (1.5, 3.0, 4.5)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_iqr_share_is_quartile_distance_over_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / median)
    assert iqr_share([0.0, 0.0]) == float("inf")


def test_chunked_rate_takes_the_median_chunk():
    # 20 rounds of 2 ops at 50 ms, except round 3 (250 ms ops) and round
    # 11 (500 ms ops): the two slow chunks do not move the median.
    latencies = [0.05] * 40
    latencies[6:8] = [0.25, 0.25]
    latencies[22:24] = [0.5, 0.5]
    assert chunked_rate(latencies, [2] * 20) == pytest.approx(20.0)


def test_chunked_rate_drops_leftover_rounds_and_handles_few_rounds():
    # 23 rounds: 10 chunks of 2; the last 3 (slow) rounds are dropped.
    latencies = [0.5] * 20 + [9.0] * 3
    assert chunked_rate(latencies, [1] * 23) == pytest.approx(2.0)
    # Fewer rounds than chunks: one chunk, total ops over total time.
    assert chunked_rate([0.05, 0.15], [2]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        chunked_rate([1.0], [2])


def test_round_chunks_are_equal_and_whole():
    assert round_chunks(23) == [range(2 * i, 2 * i + 2) for i in range(10)]
    assert round_chunks(4) == [range(4)]
    with pytest.raises(ValueError):
        round_chunks(0)


def test_chunked_percentile_ignores_a_noisy_chunk():
    # 10 rounds of 10 ops: latencies 1..10 ms, except round 6 where
    # every op is 50 ms.  Each chunk is one round.
    latencies = [float(i % 10 + 1) for i in range(100)]
    latencies[60:70] = [50.0] * 10
    assert chunked_percentile(latencies, [10] * 10, 90) == \
        pytest.approx(9.1)
    assert percentile(latencies, 90) == pytest.approx(14.0)
    with pytest.raises(ValueError):
        chunked_percentile(latencies, [10] * 9, 90)
