"""Message-level MPI-like substrate over the simulated network.

AIACC-Training runs one MPI daemon per GPU worker (paper Fig. 4); the
daemons exchange control messages (the gradient synchronization vector) and
drive collective payloads.  This module provides the point-to-point layer:
ranks, matched send/recv with tags, and process groups.

Two timing backends are supported:

* **cluster-backed** — message bytes travel as flows through the cluster's
  links, so they contend with gradient traffic;
* **ideal** — a fixed latency plus ``bytes/bandwidth``, used by the numeric
  correctness layer where contention is irrelevant.
"""

from __future__ import annotations

import typing as t
from collections import deque

from repro.errors import SimulationError, require_count
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.sim.network import FluidNetwork
from repro.sim.resources import Resource
from repro.sim.topology import Cluster

#: Matching key for a pending message or receiver: (dst, src, tag).
_Key = t.Tuple[int, int, int]


class Communicator:
    """A fixed-size group of ranks with tag-matched point-to-point messaging.

    Parameters
    ----------
    sim:
        Owning simulator.
    size:
        Number of ranks (0 .. size-1).
    cluster, network:
        When both are given, message payloads are carried as flows over the
        cluster links (sharing bandwidth with everything else).  Otherwise
        the ideal model is used.
    ideal_latency_s / ideal_bandwidth_bps:
        Parameters of the ideal model.  ``None`` bandwidth means latency-only
        (instantaneous payload).
    """

    def __init__(self, sim: Simulator, size: int,
                 cluster: Cluster | None = None,
                 network: FluidNetwork | None = None,
                 ideal_latency_s: float = 10e-6,
                 ideal_bandwidth_bps: float | None = None,
                 connections_per_pair: int = 1) -> None:
        if (cluster is None) != (network is None):
            raise SimulationError(
                "cluster and network must be given together or not at all"
            )
        require_count("connections_per_pair", connections_per_pair, 1,
                      SimulationError)
        size = require_count("communicator size", size, 1, SimulationError)
        if cluster is not None and cluster.world_size < size:
            raise SimulationError(
                f"communicator size {size} exceeds cluster world size "
                f"{cluster.world_size}"
            )
        self.sim = sim
        self.size = size
        self.cluster = cluster
        self.network = network
        self.ideal_latency_s = ideal_latency_s
        self.ideal_bandwidth_bps = ideal_bandwidth_bps
        self._inbox: dict[_Key, deque[object]] = {}
        self._waiting: dict[_Key, deque[Event]] = {}
        #: Transport connections per directed rank pair: messages on the
        #: same (src, dst) serialize onto this many sockets/queue pairs
        #: (cluster-backed mode only).  Multi-streamed communication
        #: opens one connection per stream (paper §V-B).
        self.connections_per_pair = connections_per_pair
        self._channels: dict[tuple[int, int], Resource] = {}
        self.messages_sent = 0
        self.bytes_sent = 0.0

    # -- point-to-point ---------------------------------------------------

    def send(self, src: int, dst: int, payload: object,
             nbytes: float = 0.0, tag: int = 0) -> Event:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns an event that triggers when the message has been delivered
        (the sender may also simply not wait on it — eager/buffered send).
        """
        self._check_rank(src)
        self._check_rank(dst)
        self.messages_sent += 1
        self.bytes_sent += nbytes

        done = self.sim.event(name=f"send({src}->{dst},tag={tag})")
        arrival = self._transfer(src, dst, nbytes)

        def _deliver(_ev: Event) -> None:
            self._deposit((dst, src, tag), payload)
            done.succeed(None)

        arrival.add_callback(_deliver)
        return done

    def recv(self, dst: int, src: int, tag: int = 0) -> Event:
        """Receive the next message sent from ``src`` to ``dst`` with ``tag``.

        Returns an event whose value is the payload.
        """
        self._check_rank(src)
        self._check_rank(dst)
        key = (dst, src, tag)
        event = self.sim.event(name=f"recv({src}->{dst},tag={tag})")
        inbox = self._inbox.get(key)
        if inbox:
            payload = inbox.popleft()
            self.sim._schedule_at(self.sim.now, event, payload)
        else:
            self._waiting.setdefault(key, deque()).append(event)
        return event

    def cancel_recv(self, event: Event) -> bool:
        """Withdraw a pending :meth:`recv` request.

        An interrupted receiver must not leave its getter queued: a later
        send matching the same ``(dst, src, tag)`` would hand its payload
        to the dead request, silently stealing a message from the retry
        round.  Returns ``True`` when the getter was still waiting;
        ``False`` when a payload was already dispatched to it (the
        message is consumed — callers retrying on fresh tags avoid the
        residual race).
        """
        for waiting in self._waiting.values():
            try:
                waiting.remove(event)
            except ValueError:
                continue
            return True
        return False

    # -- internals ----------------------------------------------------------

    def _transfer(self, src: int, dst: int, nbytes: float) -> Event:
        """Event firing when the message's bytes reach ``dst``."""
        if self.cluster is not None and self.network is not None:
            path = self.cluster.path_between(src, dst)
            if not path:  # self-send: immediate
                event = self.sim.event(name="self-send")
                self.sim._schedule_at(self.sim.now, event, None)
                return event
            cap = None
            if any(link is nic for nic in self.cluster.nic_out for link in path):
                cap = self.cluster.stream_cap_bps(self.cluster.node_of(src))
            channel = self._channels.get((src, dst))
            if channel is None:
                channel = Resource(self.sim, self.connections_per_pair,
                                   name=f"chan.{src}->{dst}")
                self._channels[(src, dst)] = channel
            done = self.sim.event(name=f"transfer({src}->{dst})")

            def serialized() -> t.Generator:
                yield channel.acquire()
                try:
                    yield self.network.start_flow(path, nbytes,
                                                  rate_cap_bps=cap)
                finally:
                    channel.release()
                done.succeed(None)

            self.sim.spawn(serialized(), name=f"send.{src}->{dst}")
            return done
        delay = self.ideal_latency_s
        if self.ideal_bandwidth_bps is not None and nbytes > 0:
            delay += nbytes * 8.0 / self.ideal_bandwidth_bps
        return self.sim.timeout(delay)

    def _deposit(self, key: _Key, payload: object) -> None:
        waiting = self._waiting.get(key)
        if waiting:
            event = waiting.popleft()
            self.sim._schedule_at(self.sim.now, event, payload)
        else:
            self._inbox.setdefault(key, deque()).append(payload)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise SimulationError(
                f"rank {rank} out of range for communicator of size {self.size}"
            )

    # -- derived groups -----------------------------------------------------

    def ring_neighbors(self, rank: int) -> tuple[int, int]:
        """(predecessor, successor) of ``rank`` in the canonical ring."""
        self._check_rank(rank)
        return (rank - 1) % self.size, (rank + 1) % self.size
