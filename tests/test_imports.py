"""Every module of the package uses each name it imports: an unused-import
check built on the standard library's ast module alone. An import on a line
marked `# noqa: F401` (a re-export) is exempt, and so is `__init__.py`,
whose imports are the package's public names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cgqa"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """'line: name' for each imported name that the module never reads. A
    dotted `import a.b` counts as read only where `a.b` is."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            if name != "*" and name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, want", [
    ("import os\n", ["1: os"]),
    ("import os\nos.sep\n", []),
    ("import urllib.error\nimport urllib.request\nurllib.request.urlopen\n",
     ["1: urllib.error"]),
    ("from a import (\n    b,\n    c,\n)\nc()\n", ["1: b"]),
    ("from a import b as c\nb\n", ["1: c"]),
    ("from a import b  # noqa: F401, re-export\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n", ["2: json"]),
], ids=["unused", "used", "dotted", "multiline", "alias", "noqa", "future",
        "local"])
def test_unused_imports_finds_each_unread_name(source, want):
    assert unused_imports(source) == want
