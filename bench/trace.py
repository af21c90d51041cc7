"""Outside-in layer trace of the program under test.

A :class:`Tracer` wraps public entry points of the simulator's layers at
class level, in this process only, and times them from the outside:
each wrapped call becomes a span (name, start, end, parent span, op id)
kept in memory.  A span's self time is its duration minus the time its
child spans cover, so a layer's self time is what it spends outside the
layers it calls.  High-frequency event factories are counted, not
spanned.  Work reached only through private callbacks (flow completions,
engine generators) is not wrapped and lands in the self time of the
span that runs it, usually ``Simulator.run``.

Spans and counters are recorded only between :meth:`Tracer.begin_op`
and :meth:`Tracer.end_op`, and only on the thread that created the
tracer (the campaign heartbeat thread is ignored).
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import pathlib
import threading
import time
import typing as t

Hook = t.Callable[["Tracer", tuple, dict, object], None]

#: Per-layer metrics of a traced run: name -> unit.  Times are shares of
#: the traced ops' wall time; counts are per op.
LAYER_METRICS: dict[str, str] = {
    "kernel.run_self_share": "frac",
    "kernel.events_created": "count/op",
    "kernel.pooled_events": "count/op",
    "kernel.events_released": "count/op",
    "kernel.processes_spawned": "count/op",
    "network.insert_share": "frac",
    "network.insert_calls": "count/op",
    "network.flows_inserted": "count/op",
    "network.groups_inserted": "count/op",
    "network.reallocations": "count/op",
    "network.completion_reallocations": "count/op",
    "network.flow_visits": "count/op",
    "network.visits_per_reallocation": "flows",
    "network.mutate_share": "frac",
    "network.mutations": "count/op",
    "network.live_flows_after_op": "count/op",
    "collectives.launch_share": "frac",
    "collectives.calls": "count/op",
    "collectives.bytes": "B/op",
    "collectives.plan_share": "frac",
    "collectives.plan_calls": "count/op",
    "core.pack_share": "frac",
    "core.pack_calls": "count/op",
    "core.units_packed": "count/op",
    "obs.detector_share": "frac",
    "obs.detector_calls": "count/op",
    "obs.timeline_records": "count/op",
    "cluster.fabric_allreduce_share": "frac",
    "cluster.fabric_allreduce_calls": "count/op",
    "cluster.numeric_share": "frac",
    "cluster.admit_attempts": "count/op",
    "cluster.admit_ratio": "frac",
    "cluster.nic_changes": "count/op",
    "campaign.store_share": "frac",
    "campaign.store_calls": "count/op",
    "campaign.done_ratio": "frac",
    "training.build_context_share": "frac",
    "training.build_context_calls": "count/op",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
}


def _network_enter(tracer: "Tracer", args: tuple) -> int:
    network = args[0]
    if network not in tracer.op_networks:
        tracer.op_networks[network] = (network.reallocations,
                                       network.solver_flow_visits)
    return network.reallocations


def _network_exit(key: str, flows: t.Callable[[tuple, dict], int]
                  ) -> t.Callable[["Tracer", int, tuple, dict, object], None]:
    def hook(tracer: "Tracer", before: int, args: tuple, kwargs: dict,
             _result: object) -> None:
        tracer.counts["network.span_reallocations"] += \
            args[0].reallocations - before
        if key:
            tracer.counts[key] += flows(args, kwargs)
    return hook


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> t.Any:
    return args[position] if len(args) > position else kwargs[name]


def _launch_bytes(tracer: "Tracer", _before: object, args: tuple,
                  kwargs: dict, _result: object) -> None:
    tracer.counts["collectives.bytes"] += _arg(args, kwargs, 1, "size_bytes")


def _units_packed(tracer: "Tracer", _before: object, _args: tuple,
                  _kwargs: dict, result: object) -> None:
    tracer.counts["core.units_packed"] += len(t.cast(list, result))


def _cell_done(tracer: "Tracer", _before: object, _args: tuple,
               _kwargs: dict, result: object) -> None:
    tracer.counts["campaign.done"] += bool(result)


def _cell_failed(tracer: "Tracer", _before: object, _args: tuple,
                 _kwargs: dict, result: object) -> None:
    tracer.counts["campaign.failed"] += result is not None


_NETWORK_INSERT = {
    "start_flow": ("network.flows_inserted", lambda a, k: 1),
    "start_flows": ("network.flows_inserted",
                    lambda a, k: len(_arg(a, k, 1, "requests"))),
    "start_flow_group": ("network.groups_inserted", lambda a, k: 1),
}

#: ``(module, class or None for a module function, attribute, layer,
#: enter hook, exit hook)``.  Hooks run only on a layer's outermost span,
#: so a layer calling itself is counted once.
SPANNED: tuple[tuple[str, str | None, str, str, t.Any, t.Any], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "kernel.run", None, None),
    *(("repro.sim.network", "FluidNetwork", name, "network.insert",
       _network_enter, _network_exit(*spec))
      for name, spec in _NETWORK_INSERT.items()),
    *(("repro.sim.network", "FluidNetwork", name, "network.mutate",
       _network_enter, _network_exit("", lambda a, k: 0))
      for name in ("cancel_flow", "set_link_capacity")),
    *(("repro.collectives.timed", "TimedCollectives", name,
       "collectives.launch", None, _launch_bytes)
      for name in ("allreduce", "broadcast", "alltoall", "reduce_scatter",
                   "allgather")),
    ("repro.collectives.planner", "CollectivePlanner", "plan",
     "collectives.plan", None, None),
    ("repro.core.packing", "GradientPacker", "pack", "core.pack", None,
     _units_packed),
    *(("repro.obs.detectors", "DetectorSuite", name, "obs.detector", None,
       None)
      for name in ("observe_step", "observe_negotiation",
                   "observe_stream_span", "observe_flow",
                   "observe_tuner_trial", "finalize")),
    ("repro.obs.detectors", "LinkUtilisationSampler", "observe_interval",
     "obs.detector", None, None),
    ("repro.cluster.fabric", "SharedFabric", "allreduce",
     "cluster.fabric_allreduce", None, None),
    ("repro.cluster.jobs", "NumericTrainer", "advance", "cluster.numeric",
     None, None),
    *(("repro.campaign.store", "CampaignStore", name, "campaign.store",
       None, {"record_done": _cell_done,
              "record_failure": _cell_failed}.get(name))
      for name in ("__init__", "close", "create_campaign", "campaign",
                   "campaigns", "add_runs", "claim_next", "mark_running",
                   "heartbeat", "release_claim", "reclaim_expired",
                   "record_done", "record_failure", "run", "runs",
                   "counts", "active_count", "next_wakeup")),
    ("repro.training.trainer", None, "build_train_context",
     "training.build_context", None, None),
)


def _admitted(tracer: "Tracer", _args: tuple, _kwargs: dict,
              result: object) -> None:
    tracer.counts["cluster.admit_attempts"] += 1
    tracer.counts["cluster.admitted"] += \
        t.cast(tuple, result)[0] is not None


def _timeline_record(tracer: "Tracer", args: tuple, _kwargs: dict,
                     _result: object) -> None:
    tracer.counts["obs.timeline_records"] += args[0].enabled


#: ``(module, class, attribute, counter key or hook)``: counted calls.
COUNTED: tuple[tuple[str, str, str, str | Hook], ...] = (
    ("repro.sim.kernel", "Simulator", "event", "kernel.events_created"),
    ("repro.sim.kernel", "Simulator", "timeout", "kernel.events_created"),
    ("repro.sim.kernel", "Simulator", "pooled_event", "kernel.pooled_events"),
    ("repro.sim.kernel", "Simulator", "release_event",
     "kernel.events_released"),
    ("repro.sim.kernel", "Simulator", "spawn", "kernel.processes_spawned"),
    ("repro.cluster.fabric", "SharedFabric", "scale_node_nic",
     "cluster.nic_changes"),
    ("repro.cluster.fabric", "SharedFabric", "restore_node_nic",
     "cluster.nic_changes"),
    ("repro.cluster.scheduler", "PlacementScheduler", "try_admit",
     _admitted),
    ("repro.obs.timeline", "StepTimeline", "span", _timeline_record),
    ("repro.obs.timeline", "StepTimeline", "instant", _timeline_record),
)


class Tracer:
    """Span and counter recorder installed around the program's layers."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent index or -1, op id)`` per span.
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: collections.defaultdict[str, float] = \
            collections.defaultdict(float)
        #: ``network -> (reallocations, flow visits)`` at its first touch
        #: in the current op.
        self.op_networks: dict[t.Any, tuple[int, int]] = {}
        self.active = False
        self.op = -1
        self.ops = 0
        self.op_seconds = 0.0
        self._layer_of: dict[str, str] = {}
        self._stack: list[tuple[int, str]] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`SPANNED` and :data:`COUNTED`.

        An entry point the program does not have raises, so a renamed
        method fails the traced run instead of reading 0; call
        :meth:`remove` afterwards either way.
        """
        for module, owner_name, attr, layer, enter, exit_ in SPANNED:
            name = f"{owner_name or module}.{attr}"
            owner, original = self._resolve(module, owner_name, attr)
            self._layer_of[name] = layer
            self._patch(owner, attr, original,
                        self._span(original, name, layer, enter, exit_))
        for module, owner_name, attr, key in COUNTED:
            owner, original = self._resolve(module, owner_name, attr)
            self._patch(owner, attr, original, self._count(original, key))

    def remove(self) -> None:
        """Restore every wrapped attribute to its original."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def _resolve(module: str, owner_name: str | None,
                 attr: str) -> tuple[object, object]:
        """``(owner, attribute)``; a class's own attribute, not inherited."""
        owner: t.Any = importlib.import_module(module)
        if owner_name is None:
            return owner, getattr(owner, attr)
        owner = getattr(owner, owner_name)
        if attr not in vars(owner):
            raise AttributeError(f"{owner_name} defines no {attr!r}")
        return owner, vars(owner)[attr]

    def _patch(self, owner: object, attr: str, original: object,
               wrapper: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _span(self, fn: t.Any, name: str, layer: str, enter: t.Any,
              exit_: t.Any) -> t.Any:
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        get_ident = threading.get_ident
        calls = f"{layer}.calls"

        @functools.wraps(fn)
        def wrapper(*args: t.Any, **kwargs: t.Any) -> t.Any:
            if not tracer.active or get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            parent, parent_layer = stack[-1] if stack else (-1, "")
            outermost = parent_layer != layer
            before = enter(tracer, args) if outermost and enter else None
            index = len(spans)
            spans.append(None)
            stack.append((index, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.op)
            if outermost:
                tracer.counts[calls] += 1
                if exit_ is not None:
                    exit_(tracer, before, args, kwargs, result)
            return result

        return wrapper

    def _count(self, fn: t.Any, key: str | Hook) -> t.Any:
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: t.Any, **kwargs: t.Any) -> t.Any:
            result = fn(*args, **kwargs)
            if tracer.active:
                if isinstance(key, str):
                    counts[key] += 1
                else:
                    key(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- op boundaries -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.active = True

    def end_op(self, seconds: float) -> None:
        """Close the op begun last; ``seconds`` is its measured latency."""
        self.active = False
        counts = self.counts
        for network, (reallocations, visits) in self.op_networks.items():
            counts["network.reallocations"] += \
                network.reallocations - reallocations
            counts["network.flow_visits"] += \
                network.solver_flow_visits - visits
            counts["network.live_flows_after_op"] += len(network.flows)
        self.op_networks.clear()
        self.ops += 1
        self.op_seconds += seconds

    # -- results -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """``(layer -> self seconds, seconds covered by root spans)``."""
        spans = t.cast(list, self.spans)
        child = [0.0] * len(spans)
        covered = 0.0
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        layers: collections.defaultdict[str, float] = \
            collections.defaultdict(float)
        for index, (name, start, end, _parent, _op) in enumerate(spans):
            layers[self._layer_of[name]] += end - start - child[index]
        return layers, covered

    def metrics(self, overhead_frac: float) -> dict[str, float]:
        """Every :data:`LAYER_METRICS` value; 0 where a layer was idle."""
        if not self.ops:
            raise ValueError("no traced ops")
        layers, covered = self.self_times()
        total = self.op_seconds
        ops = self.ops
        c = self.counts

        def share(layer: str) -> float:
            return layers.get(layer, 0.0) / total

        def per_op(key: str) -> float:
            return c.get(key, 0.0) / ops

        def ratio(part: str, whole: float) -> float:
            return c.get(part, 0.0) / whole if whole else 0.0

        values = {
            "kernel.run_self_share": share("kernel.run"),
            "network.insert_share": share("network.insert"),
            "network.insert_calls": per_op("network.insert.calls"),
            "network.completion_reallocations":
                (c["network.reallocations"]
                 - c["network.span_reallocations"]) / ops,
            "network.visits_per_reallocation": ratio(
                "network.flow_visits", c["network.reallocations"]),
            "network.mutate_share": share("network.mutate"),
            "network.mutations": per_op("network.mutate.calls"),
            "collectives.launch_share": share("collectives.launch"),
            "collectives.calls": per_op("collectives.launch.calls"),
            "collectives.plan_share": share("collectives.plan"),
            "collectives.plan_calls": per_op("collectives.plan.calls"),
            "core.pack_share": share("core.pack"),
            "core.pack_calls": per_op("core.pack.calls"),
            "obs.detector_share": share("obs.detector"),
            "obs.detector_calls": per_op("obs.detector.calls"),
            "cluster.fabric_allreduce_share":
                share("cluster.fabric_allreduce"),
            "cluster.fabric_allreduce_calls":
                per_op("cluster.fabric_allreduce.calls"),
            "cluster.numeric_share": share("cluster.numeric"),
            "cluster.admit_ratio": ratio(
                "cluster.admitted", c["cluster.admit_attempts"]),
            "campaign.store_share": share("campaign.store"),
            "campaign.store_calls": per_op("campaign.store.calls"),
            "campaign.done_ratio": ratio(
                "campaign.done", c["campaign.done"] + c["campaign.failed"]),
            "training.build_context_share": share("training.build_context"),
            "training.build_context_calls":
                per_op("training.build_context.calls"),
            "trace.overhead_frac": overhead_frac,
            "trace.coverage_frac": covered / total,
        }
        for name in LAYER_METRICS:
            values.setdefault(name, per_op(name))
        return {name: values[name] for name in LAYER_METRICS}

    def write_spans(self, path: pathlib.Path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as out:
            for name, start, end, parent, op in t.cast(list, self.spans):
                out.write(json.dumps({"name": name, "start": start,
                                      "end": end, "parent": parent,
                                      "op": op}) + "\n")
