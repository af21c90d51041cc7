"""Elastic membership runtime: epoch-based scale-up/down (paper §IV).

"As a production library, AIACC-Training also provides ... elastic
deployment by propagating training parameters into newly added computing
nodes."  This module is the membership protocol behind that sentence.

A worker group carries a monotonically increasing **membership epoch**.
Epochs advance only at iteration boundaries, where the group is
quiescent; each advance is one of three transitions:

``scale-down``
    One or more nodes announced a clean departure.  The survivors excise
    them, re-form rings/streams over the smaller group and continue from
    the **live** parameters — no checkpoint restore, no lost work.

``scale-up``
    New node identities are admitted.  The joiners receive rank 0's live
    parameters through a pipelined numeric broadcast; the runtime
    verifies all ranks came out bit-identical, rescales the learning
    rate for the larger global batch (linear scaling rule) and re-keys
    the auto-tuner's best-setting cache for the new topology.

``failure``
    A crash detected by the engine's failure detector.  The group
    shrinks and restores from the last checkpoint (or cold-starts from
    iteration 0 when none was written yet), stamped with an epoch
    advance.

:class:`ElasticRuntime` is the one record of the worker group: it owns
the current :class:`MembershipView`, the append-only log of
:class:`EpochTransition` records and the checkpoint restore; the recovery
driver (:func:`repro.training.resilience.run_fault_injected_training`)
calls into it at every boundary.
"""

from __future__ import annotations

import dataclasses
import typing as t

import numpy as np

from repro.collectives.broadcast import broadcast as numeric_broadcast
from repro.errors import TrainingError, require_count, require_real
from repro.core.fault_tolerance import CheckpointManager, State

if t.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.autotune.cache import SettingsCache
    from repro.autotune.graph_distance import ModelFingerprint
    from repro.core.runtime import AIACCConfig
    from repro.models.base import ModelSpec
    from repro.sim.topology import Cluster

#: Transition kinds an epoch advance may record.  ``preempt`` and
#: ``resume`` are the cluster overload controller's epoch-boundary
#: eviction / readmission of a whole tenant (see ``repro.cluster``).
TRANSITION_KINDS = ("scale-down", "scale-up", "failure",
                    "preempt", "resume")


@dataclasses.dataclass(frozen=True)
class MembershipView:
    """One epoch's worker group: which node identities participate.

    ``members`` holds *original* node identities in cluster order — the
    same identity space the fault injector plans against — so a node
    that leaves at epoch 2 and rejoins at epoch 5 is recognisably the
    same machine.
    """

    epoch: int
    members: tuple[int, ...]
    gpus_per_node: int

    def __post_init__(self) -> None:
        require_count("membership epoch", self.epoch, 0, TrainingError)
        if not self.members:
            raise TrainingError("a worker group needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise TrainingError(f"duplicate members: {self.members}")
        require_count("gpus_per_node", self.gpus_per_node, 1, TrainingError)

    @property
    def num_nodes(self) -> int:
        return len(self.members)

    @property
    def world_size(self) -> int:
        """GPU workers in this epoch's group."""
        return len(self.members) * self.gpus_per_node


@dataclasses.dataclass(frozen=True)
class EpochTransition:
    """Record of one membership-epoch boundary."""

    #: Epoch *entered* by this transition.
    epoch: int
    #: Simulated time of the boundary.
    at_s: float
    #: One of :data:`TRANSITION_KINDS`.
    kind: str
    #: Original node identities excised at this boundary.
    departed: tuple[int, ...]
    #: Original node identities admitted at this boundary.
    joined: tuple[int, ...]
    world_before: int
    world_after: int
    #: True when training continued from the live parameters (clean
    #: scale-down / scale-up); False when state restored from checkpoint.
    live_continuation: bool
    #: Whether the joiners' broadcast state was verified bit-identical
    #: to rank 0's (``None`` when no broadcast happened).
    broadcast_identical: bool | None
    #: Iteration training resumed from after the boundary.
    resumed_iteration: int
    #: Linear-scaling-rule learning-rate multiplier for the new world
    #: size, relative to the initial deployment.
    lr_scale: float
    #: Simulated seconds spent re-forming the group (communicator
    #: rebuild, and for scale-up the live-parameter broadcast).
    reconfigure_time_s: float
    #: Label of the auto-tuner cache entry applied for the new topology,
    #: when the tuner re-keyed its best-setting cache.
    retuned: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in TRANSITION_KINDS:
            raise TrainingError(
                f"kind must be one of {TRANSITION_KINDS}, got {self.kind!r}")
        require_count("world_before", self.world_before, 1, TrainingError)
        require_count("world_after", self.world_after, 1, TrainingError)
        require_real("reconfigure_time_s", self.reconfigure_time_s,
                     TrainingError)


class ElasticRuntime:
    """The one record of a worker group: membership, restore and join.

    Owns the current :class:`MembershipView`, the transition log, the
    checkpoint restore of a crash recovery, the live-parameter broadcast
    to joiners, the linear-scaling learning-rate rule and the tuner
    re-key on topology change.  The driver remains responsible for the
    simulated-time costs (reconfigure pauses) and for rebuilding the
    train context; this class keeps the group consistent: members stay
    unique, epochs only move forward, and the view's world size is the
    group's only size.
    """

    def __init__(self, checkpoints: CheckpointManager,
                 members: t.Sequence[int], gpus_per_node: int,
                 settings_cache: "SettingsCache | None" = None,
                 init_parameters: t.Callable[[], State] | None = None
                 ) -> None:
        self.checkpoints = checkpoints
        self.view = MembershipView(0, tuple(members), gpus_per_node)
        self.settings_cache = settings_cache
        #: Factory for fresh parameters, used when a failure arrives
        #: before the first checkpoint was ever written (cold start).
        self.init_parameters = init_parameters
        #: World size of the initial deployment — the linear-scaling
        #: rule's reference point.
        self.initial_world_size = self.view.world_size
        self.transitions: list[EpochTransition] = []

    # -- queries -------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.view.epoch

    @property
    def members(self) -> tuple[int, ...]:
        return self.view.members

    def lr_scale(self, world_size: int | None = None) -> float:
        """Linear scaling rule multiplier for ``world_size`` workers.

        Goyal et al.'s "linear scaling rule": when the global batch
        grows k×, multiply the learning rate by k.  Relative to the
        *initial* deployment so successive resizes compose.
        """
        world = self.view.world_size if world_size is None \
            else require_count("world_size", world_size, 1, TrainingError)
        return world / self.initial_world_size

    # -- transitions ---------------------------------------------------------

    def scale_down(self, departed: t.Sequence[int], at_s: float,
                   resumed_iteration: int,
                   reconfigure_time_s: float) -> EpochTransition:
        """Excise cleanly departing nodes; continue from live state.

        No checkpoint restore: the survivors' parameters *are* the
        training state, so ``resumed_iteration`` is whatever iteration
        the group had completed — nothing is lost.
        """
        gone, survivors = self._excise("scale-down", departed)
        return self._advance(
            kind="scale-down", at_s=at_s, members=survivors,
            departed=gone, joined=(), live_continuation=True,
            broadcast_identical=None, resumed_iteration=resumed_iteration,
            reconfigure_time_s=reconfigure_time_s)

    def scale_up(self, joined: t.Sequence[int], at_s: float,
                 live_parameters: t.Sequence[State],
                 resumed_iteration: int, reconfigure_time_s: float,
                 retuned: str | None = None
                 ) -> tuple[list[State], EpochTransition]:
        """Admit joiners via pipelined live-parameter broadcast.

        ``live_parameters`` holds each current worker's parameter dict,
        one per rank of the current view.  The joiners receive rank 0's
        state through the numeric broadcast (no checkpoint involved).
        Returns the new total worker set's states plus the transition
        record; the record's ``broadcast_identical`` asserts every rank
        came out bit-identical to rank 0 — the correctness contract of
        the broadcast path.
        """
        fresh = tuple(dict.fromkeys(joined))
        if not fresh:
            raise TrainingError("scale_up needs at least one joiner")
        clashes = [n for n in fresh if n in self.view.members]
        if clashes:
            raise TrainingError(
                f"cannot admit existing members {clashes} at epoch "
                f"{self.view.epoch}")
        world = self.view.world_size
        if len(live_parameters) != world:
            raise TrainingError(
                f"expected state for {world} live workers, got "
                f"{len(live_parameters)}")
        new_world = world + len(fresh) * self.view.gpus_per_node
        root = live_parameters[0]
        states: list[State] = [dict(p) for p in live_parameters] + \
            [dict() for _ in range(new_world - world)]
        for name in sorted(root):
            slots: list[np.ndarray | None] = [None] * new_world
            slots[0] = root[name].ravel()
            received = numeric_broadcast(slots, root=0)
            for rank in range(world, new_world):
                states[rank][name] = received[rank].reshape(root[name].shape)
        transition = self._advance(
            kind="scale-up", at_s=at_s,
            members=self.view.members + fresh,
            departed=(), joined=fresh, live_continuation=True,
            broadcast_identical=_states_identical(states),
            resumed_iteration=resumed_iteration,
            reconfigure_time_s=reconfigure_time_s, retuned=retuned)
        return states, transition

    def failure(self, dead: t.Sequence[int], at_s: float,
                reconfigure_time_s: float
                ) -> tuple[int, State, EpochTransition]:
        """Shrink the group and restore state from the last checkpoint.

        Returns ``(iteration, parameters, transition)`` to resume from.
        The dead nodes' in-flight iteration is lost — exactly the
        paper's "restart the training process from the last checkpoint".

        Cold start: a failure that lands before the first checkpoint was
        written restarts from iteration 0 with freshly initialized
        parameters (via ``init_parameters``, or empty state) instead of
        raising mid-recovery.
        """
        gone, survivors = self._excise("failure", dead)
        if self.checkpoints.latest() is None:
            iteration = 0
            parameters = self.init_parameters() \
                if self.init_parameters else {}
        else:
            iteration, parameters, _, _ = self.checkpoints.load()
        transition = self._advance(
            kind="failure", at_s=at_s, members=survivors,
            departed=gone, joined=(), live_continuation=False,
            broadcast_identical=None, resumed_iteration=iteration,
            reconfigure_time_s=reconfigure_time_s)
        return iteration, parameters, transition

    # -- tuner re-key ---------------------------------------------------------

    def retune(self, model: "ModelSpec | ModelFingerprint",
               cluster: "Cluster",
               config: "AIACCConfig"
               ) -> tuple["AIACCConfig", str | None]:
        """Re-key the tuner's best-setting cache for a new topology.

        Looks up the nearest remembered deployment for the resized
        cluster (paper §VI: settings are cached per computation graph ×
        topology) and applies its parameter point to ``config``.
        Returns ``(config, None)`` unchanged when no cache is attached
        or it has no usable entry.  A driver that re-keys more than once
        passes the model's :class:`ModelFingerprint`, computed once.
        """
        if self.settings_cache is None:
            return config, None
        found = self.settings_cache.lookup(model, cluster.topology_graph())
        if found is None:
            return config, None
        entry, _distance = found
        point = entry.best_point
        return config.replace(
            num_streams=point.num_streams,
            granularity_bytes=point.granularity_bytes,
            algorithm=point.algorithm,
        ), entry.label

    # -- internals -----------------------------------------------------------

    def _excise(self, kind: str, nodes: t.Sequence[int]
                ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(gone, survivors)`` of removing member ``nodes``."""
        gone = tuple(dict.fromkeys(nodes))
        if not gone:
            raise TrainingError(f"{kind} needs at least one node")
        missing = [n for n in gone if n not in self.view.members]
        if missing:
            raise TrainingError(
                f"cannot excise non-members {missing} at epoch "
                f"{self.view.epoch}")
        survivors = tuple(n for n in self.view.members if n not in gone)
        if not survivors:
            raise TrainingError(
                f"{kind} would leave an empty worker group")
        return gone, survivors

    def _advance(self, kind: str, at_s: float,
                 members: tuple[int, ...], departed: tuple[int, ...],
                 joined: tuple[int, ...], live_continuation: bool,
                 broadcast_identical: bool | None, resumed_iteration: int,
                 reconfigure_time_s: float,
                 retuned: str | None = None) -> EpochTransition:
        before = self.view
        after = MembershipView(before.epoch + 1, members,
                               before.gpus_per_node)
        transition = EpochTransition(
            epoch=after.epoch, at_s=at_s, kind=kind,
            departed=departed, joined=joined,
            world_before=before.world_size, world_after=after.world_size,
            live_continuation=live_continuation,
            broadcast_identical=broadcast_identical,
            resumed_iteration=resumed_iteration,
            lr_scale=after.world_size / self.initial_world_size,
            reconfigure_time_s=reconfigure_time_s, retuned=retuned)
        self.view = after
        self.transitions.append(transition)
        return transition


def _states_identical(states: t.Sequence[State]) -> bool:
    """True when every worker's state is bit-identical to rank 0's."""
    if not states:
        return True
    root = states[0]
    for other in states[1:]:
        if set(other) != set(root):
            return False
        for name, value in root.items():
            if not np.array_equal(np.asarray(value),
                                  np.asarray(other[name])):
                return False
    return True
