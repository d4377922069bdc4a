"""Integration test: the quickstart example runs end to end.

The heavier examples (classification/alignment/recommendation) exercise
the same code paths as the task tests and benches, so only the
quickstart — which a new user runs first — is executed here.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
EXAMPLES = ROOT / "examples"


def test_quickstart_runs_and_demonstrates_completion():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    out = result.stdout
    assert "Generate the product KG" in out
    assert "SELECT ?t WHERE" in out
    assert "margin loss" in out
    assert "service payload" in out
    assert "true tail in top-5" in out


def test_all_examples_importable():
    """Every example compiles, and every ``from repro… import names`` in
    ``examples/`` and ``perf/`` resolves.

    Both trees sit outside the linter's roots, so its unused-export
    pass cannot see what they import; this is the check that a deleted
    export they still use fails loudly.
    """
    scripts = sorted(EXAMPLES.glob("*.py"))
    checked = 0
    for script in scripts + sorted((ROOT / "perf").rglob("*.py")):
        source = script.read_text(encoding="utf-8")
        tree = ast.parse(source, str(script))
        if script in scripts:
            compile(tree, str(script), "exec")
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module.split(".")[0] == "repro"
            ):
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name) or importlib.util.find_spec(
                    f"{node.module}.{alias.name}"  # a submodule, e.g. protocol
                ), f"{script.name}: from {node.module} import {alias.name}"
                checked += 1
    assert checked > 0
