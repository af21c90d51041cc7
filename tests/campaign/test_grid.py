"""Grid expansion and run-spec identity (`repro.campaign.grid`).

The contract under test: identical (runner, params) cells always map to
the same ``spec_id`` — across processes, sessions and store restarts —
so resubmission is idempotent and resume targets exactly the original
cell set.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.grid import (
    CampaignGrid,
    RunSpec,
    expand_grids,
    grids_from_payload,
    grids_payload,
    named_grids,
)
from repro.errors import CampaignError


class TestRunSpec:
    def test_spec_id_deterministic(self):
        a = RunSpec("measure", {"model": "resnet50", "gpus": 8})
        b = RunSpec("measure", {"gpus": 8, "model": "resnet50"})
        assert a.spec_id == b.spec_id
        assert len(a.spec_id) == 16

    def test_spec_id_distinguishes_cells(self):
        base = RunSpec("measure", {"model": "resnet50", "gpus": 8})
        assert base.spec_id != RunSpec(
            "measure", {"model": "resnet50", "gpus": 16}).spec_id
        assert base.spec_id != RunSpec(
            "hybrid", {"model": "resnet50", "gpus": 8}).spec_id

    def test_json_round_trip(self):
        spec = RunSpec("chaos", {"seed": 3, "fault_plan": "chaos:mtbf=0.35"})
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.spec_id == spec.spec_id

    def test_corrupt_spec_raises_typed(self):
        with pytest.raises(CampaignError):
            RunSpec.from_json("{not json")
        with pytest.raises(CampaignError):
            RunSpec.from_json('{"params": {}}')  # missing runner


class TestCampaignGrid:
    def test_expand_is_full_cross_product(self):
        grid = CampaignGrid(
            runner="measure",
            axes={"model": ("resnet50", "vgg16"), "gpus": (8, 16, 32)},
            base={"figure": "fig9"})
        specs = grid.expand()
        assert len(specs) == 6
        assert all(spec.params["figure"] == "fig9" for spec in specs)
        combos = {(spec.params["model"], spec.params["gpus"])
                  for spec in specs}
        assert combos == {(m, g) for m in ("resnet50", "vgg16")
                          for g in (8, 16, 32)}

    def test_expand_order_is_deterministic(self):
        grid = CampaignGrid(runner="sleep",
                            axes={"b": (1, 2), "a": ("x", "y")})
        ids = [spec.spec_id for spec in grid.expand()]
        assert ids == [spec.spec_id for spec in grid.expand()]

    def test_axis_base_overlap_rejected(self):
        with pytest.raises(CampaignError):
            CampaignGrid(axes={"gpus": (8,)}, base={"gpus": 16})

    def test_empty_axis_rejected(self):
        with pytest.raises(CampaignError):
            CampaignGrid(axes={"gpus": ()})

    def test_non_scalar_axis_value_rejected(self):
        with pytest.raises(CampaignError):
            CampaignGrid(axes={"gpus": ([8, 16],)})

    def test_payload_round_trip(self):
        grid = CampaignGrid(runner="chaos", axes={"seed": (0, 1)},
                            base={"gpus": 8})
        grids = grids_from_payload(grids_payload([grid]))
        assert len(grids) == 1
        assert [s.spec_id for s in grids[0].expand()] == \
            [s.spec_id for s in grid.expand()]

    def test_corrupt_payload_raises_typed(self):
        with pytest.raises(CampaignError):
            grids_from_payload("{not json")
        with pytest.raises(CampaignError):
            grids_from_payload(json.dumps({"runner": "x"}))  # not a list


class TestLoaderErrors:
    """Malformed grid and spec JSON fails at load time, typed — not
    later, when a cell runs, and not as a differently-shaped grid."""

    @pytest.mark.parametrize("grid", [
        {"runner": 5},
        {"runner": {"a": 1}},
        {"runner": ""},
        {"axes": {"x": "abc"}},
        {"axes": {"x": {"a": 1}}},
        {"axes": {"x": 3}},
        {"axes": [["x", [1]]]},
        {"base": [["x", 1]]},
        {"axis": {"x": [1]}},
        ["measure"],
    ])
    def test_malformed_grid_raises_at_load(self, grid):
        with pytest.raises(CampaignError):
            grids_from_payload(json.dumps([grid]))

    @pytest.mark.parametrize("text", [
        '{"runner": 5, "params": {}}',
        '{"runner": "measure", "params": [["gpus", 8]]}',
        '{"runner": "measure", "params": {"gpus": [8]}}',
        '{"runner": "measure", "params": {}, "extra": 1}',
        '[]',
        '"measure"',
        pytest.param("[" * 100_000, id="deeply-nested"),
    ])
    def test_malformed_spec_raises_typed(self, text):
        with pytest.raises(CampaignError):
            RunSpec.from_json(text)

    def test_string_axis_is_not_split_into_characters(self):
        with pytest.raises(CampaignError, match="list of values"):
            CampaignGrid(axes={"model": "abc"})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20)
#: Objects shaped like grids and specs, so the fuzz reaches past the
#: top-level type checks.
GRID_LIKE = st.fixed_dictionaries({}, optional={
    "runner": JSON_VALUES, "axes": JSON_VALUES, "base": JSON_VALUES,
    "params": JSON_VALUES})


def canonical(data):
    return json.dumps(data, sort_keys=True)


class TestLoaderFuzz:
    """Arbitrary JSON either loads losslessly or raises
    :class:`CampaignError` — never another exception, never a grid or
    spec that says something other than its input."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, GRID_LIKE, st.lists(GRID_LIKE, max_size=3)))
    def test_grids_load_or_raise_campaign_error(self, data):
        try:
            grids = grids_from_payload(json.dumps(data))
        except CampaignError:
            return
        for grid, item in zip(grids, data, strict=True):
            assert isinstance(grid.runner, str)
            assert canonical(grid.to_payload()) == canonical(
                {"runner": "measure", "axes": {}, "base": {}, **item})

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, GRID_LIKE))
    def test_spec_loads_or_raises_campaign_error(self, data):
        try:
            spec = RunSpec.from_json(json.dumps(data))
        except CampaignError:
            return
        assert isinstance(spec.runner, str)
        assert spec.to_json() == canonical(data)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_arbitrary_text_loads_or_raises_campaign_error(self, text):
        for load in (grids_from_payload, RunSpec.from_json):
            try:
                load(text)
            except CampaignError:
                pass


class TestExpandGrids:
    def test_duplicate_cells_collapse(self):
        # Two figures sharing a (model, gpus) point measure it once.
        a = CampaignGrid(runner="measure", axes={"gpus": (8, 16)},
                         base={"model": "resnet50"})
        b = CampaignGrid(runner="measure", axes={"gpus": (16, 32)},
                         base={"model": "resnet50"})
        specs = expand_grids([a, b])
        assert len(specs) == 3
        assert len({s.spec_id for s in specs}) == 3

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignError):
            expand_grids([])


class TestNamedGrids:
    def test_unknown_name_raises_typed(self):
        with pytest.raises(CampaignError, match="unknown grid"):
            named_grids("nope")

    def test_smoke_grid_is_tiny(self):
        specs = expand_grids(named_grids("smoke"))
        assert 1 <= len(specs) <= 8
        assert all(spec.runner == "measure" for spec in specs)

    def test_figures_grid_covers_fig9_to_fig13(self):
        grids = named_grids("figures")
        figures = {grid.base["figure"] for grid in grids}
        assert figures == {"fig9", "fig10", "fig11", "fig12", "fig13"}
        specs = expand_grids(grids)
        # Fig. 13 cells run the hybrid data+model-parallel runner.
        assert {s.runner for s in specs} == {"measure", "hybrid"}

    def test_chaos_grid_one_cell_per_seed(self):
        specs = expand_grids(named_grids("chaos"))
        assert {spec.params["seed"] for spec in specs} == {0, 1, 2, 3}
        assert all(spec.runner == "chaos" for spec in specs)
