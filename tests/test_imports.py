"""Every module of the package uses what it imports."""

import ast
from pathlib import Path

import quatflow

PACKAGE = Path(quatflow.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads or lists in
    __all__; ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    bound = []
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read | exported]


def test_unused_import_check_sees_an_alias():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field as dataclass_field\n"
              "__all__ = ['dataclass']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["dataclass_field"]


def test_modules_use_every_name_they_import():
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
