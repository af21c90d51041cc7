"""Collective communication: numeric algorithms and timed execution.

Every collective has two coupled faces:

* **numeric** — exchanges real numpy chunks through the simulated MPI
  layer; results are verifiable against the mathematical reduction
  (property-based tests in ``tests/collectives``);
* **timed** — places the algorithm's transport streams as flows on the
  fluid network model, producing completion times that reflect per-stream
  caps and contention.
"""

from repro.collectives.alltoall import (
    alltoall,
    alltoall_worker,
    gather,
    gather_worker,
    reduce,
    reduce_worker,
    scatter,
    scatter_worker,
)
from repro.collectives.broadcast import broadcast, broadcast_worker
from repro.collectives.cost_model import (
    CostParams,
    broadcast_time_s,
    halving_doubling_time_s,
    hierarchical_allreduce_time_s,
    ina_time_s,
    multi_tree_time_s,
    ring_allreduce_time_s,
    ring_volume_bytes,
)
from repro.collectives.hierarchical import (
    hierarchical_allreduce,
    hierarchical_allreduce_worker,
)
from repro.collectives.primitives import (
    ReduceOp,
    apply_op,
    chunk_bounds,
    finalize_op,
)
from repro.collectives.planner import (
    PLANNER_ALGORITHMS,
    CollectivePlanner,
    CollectiveSchedule,
    FlowSpec,
    SchedulePhase,
    halving_doubling_allreduce,
    halving_doubling_allreduce_worker,
    ina_allreduce,
    multi_tree_allreduce,
    multi_tree_allreduce_worker,
    planned_numeric_allreduce,
)
from repro.collectives.ring import ring_allreduce, ring_allreduce_worker
from repro.collectives.timed import ALGORITHMS, TimedCollectives

__all__ = [
    "ALGORITHMS",
    "PLANNER_ALGORITHMS",
    "CollectivePlanner",
    "CollectiveSchedule",
    "CostParams",
    "FlowSpec",
    "ReduceOp",
    "SchedulePhase",
    "TimedCollectives",
    "alltoall",
    "alltoall_worker",
    "gather",
    "gather_worker",
    "reduce",
    "reduce_worker",
    "scatter",
    "scatter_worker",
    "apply_op",
    "broadcast",
    "broadcast_time_s",
    "broadcast_worker",
    "chunk_bounds",
    "finalize_op",
    "halving_doubling_allreduce",
    "halving_doubling_allreduce_worker",
    "halving_doubling_time_s",
    "hierarchical_allreduce",
    "hierarchical_allreduce_time_s",
    "hierarchical_allreduce_worker",
    "ina_allreduce",
    "ina_time_s",
    "multi_tree_allreduce",
    "multi_tree_allreduce_worker",
    "multi_tree_time_s",
    "planned_numeric_allreduce",
    "ring_allreduce",
    "ring_allreduce_time_s",
    "ring_allreduce_worker",
    "ring_volume_bytes",
]
