"""Parameter-grid expansion into deterministic run specs.

A campaign is a set of **cells**: every combination of the grid's axes
(model x ranks x streams x algorithm x fault plan x seed, plus whatever
else a runner understands), each executed by a named runner from
:mod:`repro.campaign.worker`.  Cells are identified by a deterministic
``spec_id`` — a digest of the runner name and the cell's parameters — so
resubmitting the same grid into a store is idempotent and an interrupted
campaign resumes against exactly the same cell set.

A cell's **run** is identified separately by :func:`run_key`: the same
digest with the runner's label parameters (:data:`RUN_LABELS`) dropped.
Cells that differ only in labels share one run key, and a campaign
simulates that run once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import typing as t

from repro.errors import CampaignError

#: JSON-safe scalar types allowed as axis values / cell parameters.
Scalar = t.Union[str, int, float, bool, None]


def _require_scalar(axis: str, value: object) -> Scalar:
    if value is not None and not isinstance(value, (str, int, float, bool)):
        raise CampaignError(
            f"axis {axis!r} value {value!r} is not a JSON-safe scalar")
    return t.cast(Scalar, value)


def _require_runner(runner: object) -> str:
    if not isinstance(runner, str) or not runner:
        raise CampaignError(f"runner must be a non-empty name, got {runner!r}")
    return runner


def _load_json(text: str, what: str) -> t.Any:
    try:
        return json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:
        raise CampaignError(f"corrupt {what} JSON: {exc}") from exc


#: runner -> the cell parameters that label a run without changing it.
#: Only these runners' cells have a :func:`run_key`; every other runner
#: (``chaos``, the injection runners) always executes its own cell.
RUN_LABELS: dict[str, tuple[str, ...]] = {
    "measure": ("figure", "seed"),
    "hybrid": ("figure", "seed"),
}


def _params_digest(runner: str, params: t.Mapping[str, Scalar]) -> str:
    payload = json.dumps({"runner": runner,
                          "params": dict(sorted(params.items()))},
                         sort_keys=True)
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def run_key(runner: str, params: t.Mapping[str, Scalar]) -> str | None:
    """Identity of the run a cell executes: a digest of ``runner`` and
    ``params`` without the runner's :data:`RUN_LABELS`; None for
    runners without labels, whose cells are never shared.  A cell
    without labels has ``run_key == spec_id``."""
    labels = RUN_LABELS.get(runner)
    if labels is None:
        return None
    return _params_digest(runner, {key: value for key, value in
                                   params.items() if key not in labels})


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One grid cell: a runner name plus its JSON-safe parameters."""

    runner: str
    params: t.Mapping[str, Scalar]

    @property
    def spec_id(self) -> str:
        """Deterministic identity of this cell (stable across sessions)."""
        return _params_digest(self.runner, self.params)

    def to_json(self) -> str:
        return json.dumps({"runner": self.runner,
                           "params": dict(sorted(self.params.items()))},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        data = _load_json(text, "run spec")
        if not isinstance(data, dict) or set(data) != {"runner", "params"} \
                or not isinstance(data["params"], dict):
            raise CampaignError(
                "corrupt run spec: want an object with exactly 'runner' "
                "and 'params'")
        params = {name: _require_scalar(name, value)
                  for name, value in data["params"].items()}
        return cls(runner=_require_runner(data["runner"]), params=params)


@dataclasses.dataclass(frozen=True)
class CampaignGrid:
    """A cross-product of axes executed by one runner.

    ``base`` parameters are merged into every cell (axes win on
    conflict only if the axis redefines the same name, which is
    rejected — one source of truth per parameter).
    """

    runner: str = "measure"
    axes: t.Mapping[str, t.Sequence[Scalar]] = \
        dataclasses.field(default_factory=dict)
    base: t.Mapping[str, Scalar] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_runner(self.runner)
        overlap = set(self.axes) & set(self.base)
        if overlap:
            raise CampaignError(
                f"parameters {sorted(overlap)} appear both as an axis and "
                f"as a base value")
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)):
                raise CampaignError(
                    f"axis {axis!r} must be a list of values, got {values!r}")
            if not values:
                raise CampaignError(f"axis {axis!r} has no values")
            for value in values:
                _require_scalar(axis, value)
        for name, value in self.base.items():
            _require_scalar(name, value)

    def expand(self) -> list[RunSpec]:
        """Every cell of the grid, in deterministic axis-sorted order."""
        names = sorted(self.axes)
        specs: list[RunSpec] = []
        for combo in itertools.product(*(self.axes[name]
                                         for name in names)):
            params = dict(self.base)
            params.update(zip(names, combo))
            specs.append(RunSpec(runner=self.runner, params=params))
        return specs

    def to_payload(self) -> dict:
        return {"runner": self.runner,
                "axes": {name: list(values)
                         for name, values in sorted(self.axes.items())},
                "base": dict(sorted(self.base.items()))}

    @classmethod
    def from_payload(cls, data: t.Any) -> "CampaignGrid":
        """A grid from its JSON object (``runner``, ``axes``, ``base``);
        anything else raises :class:`CampaignError`."""
        if not isinstance(data, dict):
            raise CampaignError(f"grid must be a JSON object, got {data!r}")
        unknown = sorted(set(data) - {"runner", "axes", "base"})
        axes = data.get("axes", {})
        base = data.get("base", {})
        if unknown or not isinstance(axes, dict) \
                or not isinstance(base, dict):
            raise CampaignError(
                f"corrupt grid payload: want 'runner' plus 'axes' and "
                f"'base' objects, got {sorted(data)}")
        return cls(runner=data.get("runner", "measure"),
                   axes={name: tuple(values) if isinstance(values, list)
                         else values for name, values in axes.items()},
                   base=base)


def expand_grids(grids: t.Sequence[CampaignGrid]) -> list[RunSpec]:
    """Expand several grids into one deduplicated, ordered cell list.

    Duplicate cells (same runner + params, hence same ``spec_id``) are
    collapsed.  Cells that differ only in labels — two figures sharing
    a (model, backend, gpus) point — stay distinct cells with their own
    ``spec_id``, but share a :func:`run_key`, so a campaign simulates
    the point once and the second cell copies the first one's durable
    result.
    """
    if not grids:
        raise CampaignError("campaign needs at least one grid")
    seen: dict[str, RunSpec] = {}
    for grid in grids:
        for spec in grid.expand():
            seen.setdefault(spec.spec_id, spec)
    return list(seen.values())


def grids_payload(grids: t.Sequence[CampaignGrid]) -> str:
    return json.dumps([grid.to_payload() for grid in grids], sort_keys=True)


def grids_from_payload(text: str) -> list[CampaignGrid]:
    data = _load_json(text, "campaign grid")
    if not isinstance(data, list):
        raise CampaignError("campaign grid JSON must be a list of grids")
    return [CampaignGrid.from_payload(item) for item in data]


# --------------------------------------------------------------------------
# Named grids
# --------------------------------------------------------------------------

def figures_grids() -> list[CampaignGrid]:
    """The paper's Fig. 9-13 sweeps as one campaign.

    Axes come from :data:`repro.harness.experiments.FIGURE_SWEEPS` — the
    same declaration the in-process harness figures use — so the
    campaign regenerates exactly the published cells.
    """
    from repro.harness.experiments import FIGURE_SWEEPS

    grids = []
    for figure, sweep in sorted(FIGURE_SWEEPS.items()):
        grids.append(CampaignGrid(
            runner=sweep.get("runner", "measure"),
            axes={"model": tuple(sweep["models"]),
                  "backend": tuple(sweep["backends"]),
                  "gpus": tuple(sweep["gpus"])},
            base={"figure": figure, "seed": 0,
                  **sweep.get("base", {})},
        ))
    return grids


def smoke_grids() -> list[CampaignGrid]:
    """A tiny deterministic grid for CI smoke and local sanity runs."""
    return [CampaignGrid(
        runner="measure",
        axes={"model": ("resnet50",),
              "backend": ("aiacc", "horovod"),
              "gpus": (8, 16)},
        base={"figure": "smoke", "seed": 0},
    )]


def chaos_grids(seeds: int = 4) -> list[CampaignGrid]:
    """Fault-plan sweep: chaos soak seeds as independent durable cells."""
    return [CampaignGrid(
        runner="chaos",
        axes={"seed": tuple(range(seeds))},
        base={"fault_plan": "chaos:mtbf=0.35,horizon=2.5",
              "gpus": 8, "gpus_per_node": 2, "iterations": 12},
    )]


#: name -> zero-arg factory of the campaign's grids.
NAMED_GRIDS: dict[str, t.Callable[[], list[CampaignGrid]]] = {
    "figures": figures_grids,
    "smoke": smoke_grids,
    "chaos": chaos_grids,
}


def named_grids(name: str) -> list[CampaignGrid]:
    """Resolve a named campaign grid (``figures``/``smoke``/``chaos``)."""
    try:
        factory = NAMED_GRIDS[name]
    except KeyError:
        raise CampaignError(
            f"unknown grid {name!r}; available: "
            f"{', '.join(sorted(NAMED_GRIDS))}") from None
    return factory()
