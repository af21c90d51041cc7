"""§III microbenchmark: TCP bandwidth utilisation vs stream count.

Shape criteria: "a single communication stream can only utilize at most
30% of the bandwidth provided by the TCP/IP link"; concurrent streams
push utilisation toward the aggregate limit (~96%), which is the entire
premise of multi-streamed communication.
"""


def test_bandwidth_utilization(record_table):
    rows = record_table("bandwidth_utilization")
    by_streams = {row["streams"]: row for row in rows}

    # One stream: at most ~30% of the raw 30 Gbps link.
    assert by_streams[1]["utilization"] < 0.32
    assert by_streams[1]["utilization"] > 0.2

    # Utilisation grows with streams and approaches the aggregate cap.
    utils = [by_streams[k]["utilization"] for k in (1, 2, 4, 8)]
    assert utils == sorted(utils)
    assert by_streams[8]["utilization"] > 0.85
    assert by_streams[16]["utilization"] <= 1.0
