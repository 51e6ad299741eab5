"""Every top-level import in the library modules is used somewhere in its
module, every private top-level function or class is referenced in the
package, only the CLI's error funnel catches every exception, and importing
the package loads numpy but no scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "smclm"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level _private function or class that no
    module in sources names, by a plain name, an attribute or an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                referenced.add(n.id)
            elif isinstance(n, ast.Attribute):
                referenced.add(n.attr)
            elif isinstance(n, ast.alias):
                referenced.add(n.name)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]


def broad_handlers(source: str) -> list[str]:
    """The enclosing function (or <module>) of each except clause that
    catches Exception, BaseException or, bare, everything."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(c is None or getattr(c, "id", None) in ("Exception", "BaseException")
                       for c in caught):
                    found.append(where)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(ast.parse(source), "<module>")
    return found


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]


def test_detects_an_unreferenced_private_definition():
    sources = {
        "a": "def _called(): pass\ndef _orphan(): pass\nclass _Gone: pass\n"
             "def _imported(): pass\ndef _attr(): pass\ndef public(): pass\n_called()\n",
        "b": "import a\nfrom a import _imported\na._attr()\n",
    }
    assert unreferenced_private_definitions(sources) == ["a._orphan", "a._Gone"]


def test_detects_a_broad_handler():
    source = (
        "try: pass\nexcept: pass\n"
        "def f():\n    try: pass\n    except (KeyError, Exception): pass\n"
        "    def g():\n        try: pass\n        except BaseException: pass\n"
        "def h():\n    try: pass\n    except ValueError: pass\n"
    )
    assert broad_handlers(source) == ["<module>", "f", "g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_definition_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def test_only_the_cli_error_funnel_catches_everything():
    # a catch-all elsewhere turns a failed run into a partial one
    found = [
        f"{p.stem}.{where}"
        for p in sorted(SRC.glob("*.py"))
        for where in broad_handlers(p.read_text(encoding="utf-8"))
    ]
    assert found == ["cli.main"]


def test_importing_the_package_loads_no_scipy():
    code = (
        "import sys, smclm, smclm.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
