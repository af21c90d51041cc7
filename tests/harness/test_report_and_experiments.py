"""Tests for report rendering and the experiment helpers."""

import pathlib

import pytest

from repro.errors import ReproError
from repro.harness.experiments import (
    EXPERIMENTS,
    measure,
    tuned_aiacc_config,
)
from repro.harness.report import format_cell, format_table, save_report

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


class TestFormatCell:
    def test_booleans(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_large_numbers_in_millions(self):
        assert format_cell(25_600_000.0) == "25.6M"

    def test_mid_numbers_with_separators(self):
        assert format_cell(41_475.0) == "41,475"

    def test_small_floats(self):
        assert format_cell(0.7251) == "0.7251"
        assert format_cell(1.28) == "1.28"

    def test_zero(self):
        assert format_cell(0.0) == "0"

    def test_strings_pass_through(self):
        assert format_cell("ring") == "ring"

    def test_ints_pass_through(self):
        assert format_cell(256) == "256"


class TestFormatTable:
    def test_markdown_structure(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        table = format_table(rows, title="T")
        lines = table.splitlines()
        assert lines[0] == "### T"
        assert lines[2].startswith("| a")
        assert set(lines[3]) <= {"|", "-"}
        assert len(lines) == 6

    def test_column_selection_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        table = format_table(rows, columns=["c", "a"])
        header = table.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_missing_cells_blank(self):
        table = format_table([{"a": 1}, {"a": 2, "b": 3}],
                             columns=["a", "b"])
        assert "3" in table

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            format_table([])

    def test_alignment(self):
        rows = [{"name": "x", "v": 1}, {"name": "longer", "v": 22}]
        lines = format_table(rows).splitlines()
        assert len(lines[0]) == len(lines[2]) == len(lines[3])


class TestSaveReport:
    def test_writes_file(self, tmp_path):
        path = save_report("test", "content", directory=tmp_path)
        assert path.read_text() == "content\n"
        assert path.name == "test.md"

    def test_creates_directory(self, tmp_path):
        nested = tmp_path / "a" / "b"
        save_report("x", "y", directory=nested)
        assert (nested / "x.md").exists()


class TestExperimentRegistry:
    def test_one_entry_per_committed_table(self):
        committed = {path.stem for path in RESULTS.glob("*.md")}
        assert set(EXPERIMENTS) == committed

    def test_committed_tables_carry_registry_titles(self):
        for stem, experiment in EXPERIMENTS.items():
            first = (RESULTS / f"{stem}.md").read_text().splitlines()[0]
            assert first == f"### {experiment.title}", stem

    def test_each_entry_has_one_row_source(self):
        for stem, experiment in EXPERIMENTS.items():
            assert (experiment.rows is None) != (experiment.figure is None), \
                stem


class TestTunedConfig:
    def test_streams_grow_with_nodes(self):
        small = tuned_aiacc_config("resnet50", 16)
        large = tuned_aiacc_config("resnet50", 256)
        assert large.num_streams > small.num_streams
        assert large.num_streams <= 24

    def test_nlp_gets_larger_granularity(self):
        cv = tuned_aiacc_config("resnet50", 64)
        nlp = tuned_aiacc_config("bert-large", 64)
        assert nlp.granularity_bytes > cv.granularity_bytes

    def test_measure_uses_tuned_config_for_aiacc(self):
        result = measure("resnet50", "aiacc", 16)
        assert result.backend == "aiacc"
        assert result.throughput > 0


class TestAsciiChart:
    def test_bars_scaled_to_peak(self):
        from repro.harness import ascii_chart

        rows = [{"x": "a", "v": 10.0}, {"x": "b", "v": 5.0}]
        chart = ascii_chart(rows, "x", ["v"], width=10)
        lines = chart.splitlines()
        bar_a = lines[1].count("#")
        bar_b = lines[3].count("#")
        assert bar_a == 10
        assert bar_b == 5

    def test_multiple_series_per_group(self):
        from repro.harness import ascii_chart

        rows = [{"g": 8, "aiacc": 100.0, "horovod": 50.0}]
        chart = ascii_chart(rows, "g", ["aiacc", "horovod"])
        assert "aiacc" in chart and "horovod" in chart

    def test_missing_values_skipped(self):
        from repro.harness import ascii_chart

        rows = [{"g": 1, "a": 1.0}, {"g": 2, "a": 2.0, "b": 1.0}]
        chart = ascii_chart(rows, "g", ["a", "b"])
        assert chart.count("|") == 3

    def test_empty_rejected(self):
        from repro.errors import ReproError
        from repro.harness import ascii_chart

        with pytest.raises(ReproError):
            ascii_chart([], "x", ["v"])

    def test_nonpositive_rejected(self):
        from repro.errors import ReproError
        from repro.harness import ascii_chart

        with pytest.raises(ReproError):
            ascii_chart([{"x": 1, "v": 0.0}], "x", ["v"])
