"""The package exports only what it runs, and the README names only what exists."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "domm"


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_is_read_in_the_package():
    """A name in a module's ``__all__`` that no package code reads is an API only tests call."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in exported_names(tree)
        if name not in read
    ]
    assert unread == []


def readme_entry_point_imports() -> list[str]:
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library entry points\s+```python\n(.*?)```", text, re.S)
    assert block, "README has no Library entry points block"
    return [line for line in block.group(1).splitlines() if line.startswith("from ")]


@pytest.mark.parametrize("line", readme_entry_point_imports())
def test_readme_entry_point_imports_resolve(line):
    exec(line, {})
