"""Regression tests for file discovery filtering and dedup."""

from pathlib import Path

import pytest

from repro.lint.engine import IGNORE_MARKER, discover_files


@pytest.fixture
def tree(tmp_path):
    """A layout with excluded dirs, an egg-info, and an ignore marker."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text("X = 1\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("X = 1\n")
    (tmp_path / "repro.egg-info").mkdir()
    (tmp_path / "repro.egg-info" / "meta.py").write_text("X = 1\n")
    (tmp_path / "fixtures").mkdir()
    (tmp_path / "fixtures" / IGNORE_MARKER).write_text("")
    (tmp_path / "fixtures" / "bad.py").write_text("X = 1\n")
    return tmp_path


class TestDirectoryWalks:
    def test_excluded_dirs_pruned(self, tree):
        found = discover_files([tree])
        assert [p.name for p in found] == ["mod.py"]

    def test_marker_prunes_subtrees(self, tree):
        assert all("fixtures" not in p.parts for p in discover_files([tree]))

    def test_walk_rooted_inside_marked_dir_still_works(self, tree):
        # Pointing discovery *at* the marked directory is explicit
        # intent: only markers strictly below the root prune.
        found = discover_files([tree / "fixtures"])
        assert [p.name for p in found] == ["bad.py"]


class TestDirectFileArguments:
    def test_direct_file_in_excluded_dir_is_filtered(self, tree):
        # Files passed directly used to bypass EXCLUDED_DIRS entirely.
        direct = tree / "pkg" / "__pycache__" / "junk.py"
        assert discover_files([direct]) == []

    def test_direct_file_in_egg_info_is_filtered(self, tree):
        assert discover_files([tree / "repro.egg-info" / "meta.py"]) == []

    def test_plain_direct_file_kept(self, tree):
        target = tree / "pkg" / "mod.py"
        assert discover_files([target]) == [target]


class TestOverlapAndOrdering:
    def test_overlapping_dir_and_file_dedupe(self, tree):
        # The same module reachable through a directory walk and a
        # direct argument must appear once.
        found = discover_files([tree, tree / "pkg" / "mod.py"])
        assert len(found) == 1

    def test_overlapping_dirs_dedupe(self, tree):
        found = discover_files([tree, tree / "pkg"])
        assert len(found) == 1

    def test_relative_and_absolute_spellings_dedupe(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        found = discover_files([Path("pkg"), tree / "pkg"])
        assert len(found) == 1

    def test_result_sorted(self, tree):
        (tree / "pkg" / "alpha.py").write_text("X = 1\n")
        names = [p.name for p in discover_files([tree / "pkg", tree])]
        assert names == sorted(names)

    def test_missing_path_raises(self, tree):
        with pytest.raises(FileNotFoundError):
            discover_files([tree / "nope"])

    def test_missing_py_file_raises(self, tree):
        # A .py suffix does not make a missing path a file to lint.
        with pytest.raises(FileNotFoundError):
            discover_files([tree / "pkg" / "ghost.py"])
