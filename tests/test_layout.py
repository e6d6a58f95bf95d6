"""The package exports only what it runs, and the README names only what exists."""

import ast
import json
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


def test_readme_config_example_is_the_default_config():
    from domm.experiment import ExperimentConfig

    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Experiment config.*?```json\n(.*?)```", text, re.S)
    assert block, "README has no Experiment config block"
    assert json.loads(block.group(1)) == ExperimentConfig().to_dict()


def bound_names(tree: ast.Module) -> set[str]:
    """Every name a module defines, imports, reads or reads as an attribute."""
    return {
        value
        for node in ast.walk(tree)
        for value in (getattr(node, field, None) for field in ("name", "id", "attr"))
        if isinstance(value, str)
    }


def test_feature_files_are_parsed_only_through_load_features():
    """``core`` defines the reader, ``experiment.load_features`` is its one caller, ``__init__`` re-exports it."""
    binders = sorted(
        path.stem for path in PACKAGE.glob("*.py") if "parse_features" in bound_names(ast.parse(path.read_text()))
    )
    assert binders == ["__init__", "core", "experiment"]


def test_standardization_is_decided_in_experiment_and_bundle_only():
    """``svm`` defines the z-score fit and ``experiment`` calls it; models take z-scored frames."""
    import inspect
    from dataclasses import fields
    from importlib import import_module

    from domm.svm import LinearModel

    binders = sorted(
        path.stem
        for path in PACKAGE.glob("*.py")
        if "fit_standardization" in bound_names(ast.parse(path.read_text()))
    )
    assert binders == ["experiment", "svm"]
    takers = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = import_module("domm" if path.stem == "__init__" else f"domm.{path.stem}")
        for name in exported_names(ast.parse(path.read_text())):
            fn = getattr(module, name)
            if inspect.isfunction(fn) and "standardization" in inspect.signature(fn).parameters:
                takers.append(f"{path.stem}.{name}")
    assert takers == []
    assert [f.name for f in fields(LinearModel)] == ["weights", "bias"]


def test_eps_tie_is_bound_only_in_core_and_labels():
    """The manifest's ``preprocessing`` block is the tie tolerance's one home: ``core`` declares it, ``labels`` reads it."""
    binders = sorted(
        path.stem for path in PACKAGE.glob("*.py") if "eps_tie" in bound_names(ast.parse(path.read_text()))
    )
    assert binders == ["core", "labels"]


def test_bundle_alone_reads_and_writes_the_model_json_layout():
    """``bundle`` holds the layout's version and its one encoder and decoder; the model classes are plain records."""
    import inspect
    from importlib import import_module

    from domm.core import Config

    layout_names = {"FORMAT_VERSION", "format_version", "checked_from_dict"}
    binders = []
    serializers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        if layout_names & (bound_names(tree) | strings):
            binders.append(path.stem)
        module = import_module("domm" if path.stem == "__init__" else f"domm.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and not issubclass(cls, Config):
                serializers += [f"{name}.{m}" for m in ("to_dict", "from_dict") if hasattr(cls, m)]
    assert binders == ["bundle"]
    assert serializers == []


def test_linear_solves_run_only_in_the_newton_loop():
    """Every fit is a Newton solve, and ``svm._newton_loop`` is the one place that takes a Newton step."""
    solvers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if getattr(node, "attr", None) == "solve" or getattr(node, "id", None) == "solve":
                enclosing = [fn for fn in functions if fn.lineno <= node.lineno <= fn.end_lineno]
                name = max(enclosing, key=lambda fn: fn.lineno).name if enclosing else "<module>"
                solvers.append(f"{path.stem}.{name}")
    assert solvers == ["svm._newton_loop"]


def test_readme_oracle_paragraph_names_every_oracle():
    """Every top-level function in ``tests/oracles.py`` is named in backticks in the README's oracle paragraph."""
    text = (ROOT / "README.md").read_text()
    paragraph = next(p for p in text.split("\n\n") if "`tests/oracles.py`" in p)
    named = set(re.findall(r"`(\w+)`", paragraph))
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    oracles = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert [name for name in oracles if name not in named] == []
