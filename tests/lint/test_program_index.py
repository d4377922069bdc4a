"""Tests for the project index: naming, imports, aliases, call edges."""

import ast
import textwrap

from repro.lint.program import ProgramIndex, module_name_for, summarize_tree
from repro.lint.program.index import KIND_CLASS, KIND_FUNCTION, KIND_MODULE


def make_index(modules):
    """Build an index from ``{dotted_name: source}`` (no files needed)."""
    summaries = []
    for name, source in modules.items():
        is_package = source.lstrip().startswith("# package")
        path = name.replace(".", "/") + ("/__init__.py" if is_package else ".py")
        tree = ast.parse(textwrap.dedent(source))
        summaries.append(summarize_tree(name, path, tree, is_package))
    return ProgramIndex(summaries)


class TestModuleNaming:
    def test_walks_init_parents(self, tmp_path):
        (tmp_path / "src" / "repro" / "core").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (tmp_path / "src" / "repro" / "core" / "__init__.py").write_text("")
        mod = tmp_path / "src" / "repro" / "core" / "pkgm.py"
        mod.write_text("X = 1\n")
        assert module_name_for(mod) == ("repro.core.pkgm", False)

    def test_package_init(self, tmp_path):
        (tmp_path / "repro").mkdir()
        init = tmp_path / "repro" / "__init__.py"
        init.write_text("")
        assert module_name_for(init) == ("repro", True)

    def test_stray_script_uses_stem(self, tmp_path):
        script = tmp_path / "check_env.py"
        script.write_text("X = 1\n")
        assert module_name_for(script) == ("check_env", False)


class TestImportGraph:
    def test_project_imports_recorded_external_ignored(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.util": "def helper():\n    return 1\n",
                "repro.main": "import os\nimport repro.util\n",
            }
        )
        assert index.import_graph["repro.main"] == ["repro.util"]

    def test_from_import_of_submodule(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.util": "def helper():\n    return 1\n",
                "repro.main": "from repro import util\n",
            }
        )
        assert "repro.util" in index.import_graph["repro.main"]


class TestSymbolResolution:
    def test_module_alias(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.util": "def helper():\n    return 1\n",
                "repro.main": "import repro.util as u\n",
            }
        )
        assert index.resolve_symbol("repro.main", "u") == (
            KIND_MODULE,
            "repro.util",
        )

    def test_reexport_chain_through_package_init(self):
        index = make_index(
            {
                "repro": "# package\nfrom .util import helper\n",
                "repro.util": "def helper():\n    return 1\n",
                "repro.main": "from repro import helper\n",
            }
        )
        assert index.resolve_symbol("repro.main", "helper") == (
            KIND_FUNCTION,
            "repro.util.helper",
        )

    def test_class_resolution(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.model": (
                    "class PKGM:\n    def __init__(self):\n        pass\n"
                ),
                "repro.main": "from repro.model import PKGM\n",
            }
        )
        assert index.resolve_symbol("repro.main", "PKGM") == (
            KIND_CLASS,
            "repro.model.PKGM",
        )


class TestCallEdges:
    def test_cross_module_function_call(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.util": "def helper():\n    return 1\n",
                "repro.main": (
                    "from repro.util import helper\n"
                    "def run():\n"
                    "    return helper()\n"
                ),
            }
        )
        assert index.call_graph["repro.main.run"] == {"repro.util.helper": 3}

    def test_aliased_module_call(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.util": "def helper():\n    return 1\n",
                "repro.main": (
                    "import repro.util as u\n"
                    "def run():\n"
                    "    return u.helper()\n"
                ),
            }
        )
        assert "repro.util.helper" in index.call_graph["repro.main.run"]

    def test_constructor_resolves_to_init(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.model": (
                    "class PKGM:\n    def __init__(self):\n        pass\n"
                ),
                "repro.main": (
                    "from repro.model import PKGM\n"
                    "def build():\n"
                    "    return PKGM()\n"
                ),
            }
        )
        assert "repro.model.PKGM.__init__" in index.call_graph["repro.main.build"]

    def test_self_method_call(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.model": (
                    "class Trainer:\n"
                    "    def step(self):\n"
                    "        self.log()\n"
                    "    def log(self):\n"
                    "        pass\n"
                ),
            }
        )
        assert (
            "repro.model.Trainer.log"
            in index.call_graph["repro.model.Trainer.step"]
        )

    def test_inherited_method_via_base(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.base": (
                    "class Base:\n    def close(self):\n        pass\n"
                ),
                "repro.model": (
                    "from repro.base import Base\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        self.close()\n"
                ),
            }
        )
        assert (
            "repro.base.Base.close"
            in index.call_graph["repro.model.Child.run"]
        )

    def test_local_shadow_blocks_resolution(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.util": "def helper():\n    return 1\n",
                "repro.main": (
                    "from repro.util import helper\n"
                    "def run(helper):\n"
                    "    return helper()\n"
                ),
            }
        )
        assert index.call_graph["repro.main.run"] == {}


class TestReverseGraph:
    def test_reverse_edges_sorted(self):
        index = make_index(
            {
                "repro": "# package\n",
                "repro.util": "def helper():\n    return 1\n",
                "repro.b": (
                    "from repro.util import helper\n"
                    "def g():\n    helper()\n"
                ),
                "repro.a": (
                    "from repro.util import helper\n"
                    "def f():\n    helper()\n"
                ),
            }
        )
        callers = index.reverse_call_graph()["repro.util.helper"]
        assert [c for c, _ in callers] == ["repro.a.f", "repro.b.g"]
