"""No module under src/quantloop keeps a module-level import it never uses.

A stand-in for a linter's unused-import rule (F401), which needs nothing
beyond ``ast``.  An import whose first line carries ``# noqa: F401`` is
kept on purpose (for instance, so a tracer can patch the name there).
``__init__`` modules are skipped: their imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quantloop"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``"line N: name"`` for each module-level import the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import pi, tau\n"
        "from json import dumps  # noqa: F401\n"
        "from sys import argv\n"
        "__all__ = ['argv']\n"
        "def f(x: osp.PathLike) -> float:\n"
        "    return pi\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
