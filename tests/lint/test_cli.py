"""End-to-end tests for ``python -m repro.lint``."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import build_parser, main as lint_main

CLEAN = """
'''A clean module.'''


def add(a, b):
    return a + b
"""

DIRTY = """
'''A module with a lint violation.'''
import random


def pick():
    return random.random()
"""


@pytest.fixture
def tree(tmp_path):
    """A temp directory with one clean and one dirty module."""
    (tmp_path / "clean.py").write_text(textwrap.dedent(CLEAN))
    (tmp_path / "dirty.py").write_text(textwrap.dedent(DIRTY))
    return tmp_path


class TestModuleEntryPoint:
    def test_clean_file_exits_zero(self, tree, capsys):
        assert lint_main([str(tree / "clean.py")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tree, capsys):
        assert lint_main([str(tree / "dirty.py")]) == 1
        out = capsys.readouterr().out
        assert "unseeded-randomness" in out
        assert "1 finding(s)" in out

    def test_directory_discovery(self, tree, capsys):
        assert lint_main([str(tree)]) == 1
        assert "checked 2 files" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "ghost")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_py_file_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "ghost.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_syntax_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert lint_main([str(bad)]) == 1
        assert "syntax-error" in capsys.readouterr().out

    def test_undecodable_file_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "latin1.py"
        bad.write_bytes(b"X = 1\nNAME = '\xe9t\xe9'\n")
        assert lint_main([str(bad), str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "latin1.py:2:0: [syntax-error] cannot decode file as UTF-8" in out
        assert "checked 1 file:" in out

    def test_merges_rule_and_pass_findings(self, tmp_path, capsys):
        # One run reports a per-file rule and a whole-program pass.
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            "from .impl import helper\n\n__all__ = ['helper']\n"
        )
        (pkg / "impl.py").write_text(
            textwrap.dedent(DIRTY) + "\n\ndef helper():\n    return 1\n"
        )
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[unseeded-randomness]" in out
        assert "[unused-export]" in out


class TestParser:
    def test_defaults(self):
        assert vars(build_parser().parse_args([])) == {"paths": []}

    def test_help_lists_only_paths(self):
        options = [
            action.option_strings
            for action in build_parser()._actions
            if action.option_strings
        ]
        assert options == [["-h", "--help"]]

    def test_every_finding_fails_without_flags(self, tmp_path):
        # An __all__ entry nothing imports (P105) and a swallowed
        # OSError outside core/, distributed/ and kg/ (R005) each fail
        # the run with no flags at all.
        lib = tmp_path / "lib"
        lib.mkdir()
        (lib / "__init__.py").write_text(
            "from .io import helper\n\n__all__ = ['helper']\n"
        )
        (lib / "io.py").write_text(
            textwrap.dedent(
                """
                '''Module with a swallowed exception.'''


                def helper(path):
                    try:
                        return open(path)
                    except OSError:
                        pass
                """
            )
        )
        src = Path(__file__).resolve().parents[2] / "src"
        run = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            cwd=tmp_path,
        )
        assert run.returncode == 1, run.stdout + run.stderr
        assert "[unused-export]" in run.stdout
        assert "[bare-except]" in run.stdout
        assert "2 finding(s)" in run.stdout
