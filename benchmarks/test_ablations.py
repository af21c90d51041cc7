"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not paper figures, but quantitative support for the paper's three design
decisions: multi-streaming, decentralized synchronization, and adaptive
packing with tensor splitting.
"""


def test_ablation_streams(record_table):
    rows = record_table("ablation_streams")
    by_streams = {row["streams"]: row for row in rows}
    # Throughput rises steeply up to saturation (~4 streams at 30% each).
    assert by_streams[4]["throughput"] > 2 * by_streams[1]["throughput"]
    # Beyond saturation, more streams change little (within 15%).
    assert abs(by_streams[24]["throughput"] - by_streams[8]["throughput"]) \
        < 0.15 * by_streams[8]["throughput"]


def test_ablation_granularity(record_table):
    rows = record_table("ablation_granularity")
    best = max(row["throughput"] for row in rows)
    worst = min(row["throughput"] for row in rows)
    # Granularity matters: the extremes differ measurably.
    assert best > 1.05 * worst
    # Neither extreme is optimal (interior optimum).
    assert rows[0]["throughput"] < best
    assert rows[-1]["throughput"] < best


def test_ablation_decentralized_sync(record_table):
    rows = record_table("ablation_sync")
    decentralized, master = rows[0]["iteration_s"], rows[1]["iteration_s"]
    # Even with a single communication stream, removing the master
    # negotiation is a large win on many-gradient workloads.
    assert master > 1.5 * decentralized


def test_ablation_packing(record_table):
    rows = record_table("ablation_packing")
    split, whole = rows[0]["throughput"], rows[1]["throughput"]
    # Splitting the huge FC gradients across streams is a clear win
    # (the 256 MB "whole" mode still splits the 410 MB fc6 once, so the
    # contrast is damped but must stay above 10%).
    assert split > 1.1 * whole


def test_ablation_byteps_cpu_servers(record_table):
    rows = record_table("ablation_byteps_servers")
    by_servers = {row["extra_cpu_servers"]: row["throughput"]
                  for row in rows}
    # The paper: "To achieve improved performance for BytePS will incur
    # an extra financial cost for CPU machine subscription."
    assert by_servers[8] > 1.2 * by_servers[0]
    # Under-provisioned dedicated servers bottleneck on their own NICs.
    assert by_servers[2] < by_servers[8]
