"""Every name a ``src/repro`` module imports is used by that module.

Package ``__init__`` files and import lines marked ``# noqa: F401``
(deliberate re-exports) are exempt.  A string that parses as an
expression counts as a use of its names, so a name listed in ``__all__``
or used only inside a quoted annotation is used.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def used_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "StorageBackend | None"
                names |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and name != "annotations":
                unused.append(f"{path.relative_to(SRC)}:{node.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    found = [
        entry
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for entry in unused_imports(path)
    ]
    assert found == []
