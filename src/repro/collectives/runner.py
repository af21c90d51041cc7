"""Helpers to drive a set of collective worker processes to completion."""

from __future__ import annotations

import typing as t

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.mpi import Communicator
from repro.sim.process import Process


def run_workers(sim: Simulator, processes: t.Sequence[Process]) -> list:
    """Run ``sim`` until every worker finishes; return their results.

    If any worker failed, its exception is re-raised (first failure wins).
    Workers left pending after the simulation drains — e.g. blocked on a
    message a crashed peer never sent — surface as a failure of the
    collective rather than a silent wrong answer.
    """
    finished = sim.all_of(processes)
    try:
        sim.run(until=finished)
    except SimulationError:
        # Out of events: some worker deadlocked; fall through to diagnosis.
        pass
    for process in processes:
        if process.triggered and not process.ok:
            raise t.cast(BaseException, process.value)
    stuck = [p.name for p in processes if not p.triggered]
    if stuck:
        raise SimulationError(
            f"collective deadlocked; stuck workers: {stuck}"
        )
    return [p.value for p in processes]


def run_collective(worker: t.Callable[[Simulator, Communicator, int],
                                      t.Generator],
                   size: int, prefix: str) -> list:
    """Run ``worker(sim, comm, rank)`` on ``size`` ranks; return results.

    One fresh simulator and ideal communicator; the workers spawn in
    rank order as ``{prefix}.r{rank}``, the names a deadlock lists.
    """
    sim = Simulator()
    comm = Communicator(sim, size=size)
    processes = [sim.spawn(worker(sim, comm, rank), name=f"{prefix}.r{rank}")
                 for rank in range(size)]
    return run_workers(sim, processes)
