"""Atomic file-write helpers (`repro.ioutil`)."""

import pytest

from repro.ioutil import atomic_write_jsonl, atomic_write_text


class TestAtomicWriteText:
    def test_writes_and_returns_path(self, tmp_path):
        target = tmp_path / "out.txt"
        written = atomic_write_text(target, "hello\n")
        assert written == target
        assert target.read_text() == "hello\n"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_replaces_existing_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(TypeError):
            atomic_write_text(target, 42)  # type: ignore[arg-type]
        assert list(tmp_path.iterdir()) == []


class TestStructuredWriters:
    def test_jsonl_dicts_are_key_sorted(self, tmp_path):
        target = tmp_path / "out.jsonl"
        atomic_write_jsonl(target, [{"b": 1, "a": 2}, {"x": 3}])
        lines = target.read_text().splitlines()
        assert lines == ['{"a": 2, "b": 1}', '{"x": 3}']

    def test_jsonl_passes_through_preserialized_lines(self, tmp_path):
        target = tmp_path / "out.jsonl"
        atomic_write_jsonl(target, ['{"already": "json"}'])
        assert target.read_text() == '{"already": "json"}\n'
