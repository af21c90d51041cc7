"""Tests for the MPI communicator (both backends) and transport models."""

import pytest

from repro.errors import NetworkError, SimulationError
from repro.sim import (
    RDMA,
    TCP,
    Communicator,
    FluidNetwork,
    Simulator,
    alibaba_v100_cluster,
)
from repro.sim.transport import TransportModel


class TestIdealCommunicator:
    def test_send_recv_roundtrip(self):
        sim = Simulator()
        comm = Communicator(sim, size=2)
        received = []

        def receiver():
            payload = yield comm.recv(1, src=0)
            received.append((payload, sim.now))

        comm.send(0, 1, "hello", nbytes=100)
        sim.spawn(receiver())
        sim.run()
        assert received[0][0] == "hello"
        assert received[0][1] == pytest.approx(10e-6)

    def test_fifo_per_channel(self):
        sim = Simulator()
        comm = Communicator(sim, size=2)
        got = []

        def receiver():
            for _ in range(3):
                item = yield comm.recv(1, src=0, tag=7)
                got.append(item)

        for value in (1, 2, 3):
            comm.send(0, 1, value, tag=7)
        sim.spawn(receiver())
        sim.run()
        assert got == [1, 2, 3]

    def test_tags_do_not_cross_match(self):
        sim = Simulator()
        comm = Communicator(sim, size=2)
        got = {}

        def receiver():
            got["b"] = yield comm.recv(1, src=0, tag=2)
            got["a"] = yield comm.recv(1, src=0, tag=1)

        comm.send(0, 1, "first", tag=1)
        comm.send(0, 1, "second", tag=2)
        sim.spawn(receiver())
        sim.run()
        assert got == {"a": "first", "b": "second"}

    def test_bandwidth_model(self):
        sim = Simulator()
        comm = Communicator(sim, size=2, ideal_latency_s=0.0,
                            ideal_bandwidth_bps=8e6)
        done = []

        def receiver():
            yield comm.recv(1, src=0)
            done.append(sim.now)

        comm.send(0, 1, b"payload", nbytes=1e6)  # 8e6 bits at 8 Mbps
        sim.spawn(receiver())
        sim.run()
        assert done[0] == pytest.approx(1.0)

    def test_rank_validation(self):
        sim = Simulator()
        comm = Communicator(sim, size=2)
        with pytest.raises(SimulationError):
            comm.send(0, 5, "x")
        with pytest.raises(SimulationError):
            comm.recv(5, src=0)

    def test_message_accounting(self):
        sim = Simulator()
        comm = Communicator(sim, size=2)
        comm.send(0, 1, "x", nbytes=100)
        comm.send(1, 0, "y", nbytes=50)
        assert comm.messages_sent == 2
        assert comm.bytes_sent == 150

    def test_ring_neighbors(self):
        sim = Simulator()
        comm = Communicator(sim, size=4)
        assert comm.ring_neighbors(0) == (3, 1)
        assert comm.ring_neighbors(3) == (2, 0)


class TestClusterBackedCommunicator:
    def test_intra_node_faster_than_inter_node(self):
        def transfer_time(src, dst):
            sim = Simulator()
            net = FluidNetwork(sim)
            cluster = alibaba_v100_cluster(sim, 16)
            comm = Communicator(sim, size=16, cluster=cluster, network=net)
            times = []

            def receiver():
                yield comm.recv(dst, src=src)
                times.append(sim.now)

            comm.send(src, dst, "x", nbytes=10e6)
            sim.spawn(receiver())
            sim.run()
            return times[0]

        assert transfer_time(0, 1) < transfer_time(0, 9)

    def test_inter_node_respects_stream_cap(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        cluster = alibaba_v100_cluster(sim, 16)
        comm = Communicator(sim, size=16, cluster=cluster, network=net)
        times = []

        def receiver():
            yield comm.recv(9, src=0)
            times.append(sim.now)

        comm.send(0, 9, "x", nbytes=10e6)
        sim.spawn(receiver())
        sim.run()
        # One stream capped at 7.5 Gbps (plus small latency).
        assert times[0] >= 10e6 * 8 / 7.5e9

    def test_cluster_without_network_rejected(self):
        sim = Simulator()
        cluster = alibaba_v100_cluster(sim, 8)
        with pytest.raises(SimulationError):
            Communicator(sim, size=8, cluster=cluster)

    def test_size_beyond_cluster_rejected(self):
        sim = Simulator()
        net = FluidNetwork(sim)
        cluster = alibaba_v100_cluster(sim, 8)
        with pytest.raises(SimulationError):
            Communicator(sim, size=16, cluster=cluster, network=net)


class TestTransportModels:
    def test_tcp_calibration(self):
        assert TCP.single_stream_efficiency == 0.25
        assert TCP.aggregate_efficiency == 0.96
        assert not TCP.gpu_direct
        assert TCP.stream_cap_bps(30e9) == pytest.approx(7.5e9)
        assert TCP.effective_capacity_bps(30e9) == pytest.approx(28.8e9)

    def test_rdma_calibration(self):
        assert RDMA.single_stream_efficiency == pytest.approx(0.08)
        assert RDMA.gpu_direct

    def test_validation(self):
        with pytest.raises(NetworkError):
            TransportModel("bad", 0.0, 0.9, 1e-6, 1e-3)
        with pytest.raises(NetworkError):
            TransportModel("bad", 0.5, 0.4, 1e-6, 1e-3)
        with pytest.raises(NetworkError):
            TransportModel("bad", 0.5, 0.9, -1e-6, 1e-3)
