"""Module boundaries of the package, checked on its source."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "longlasso"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _defined_private_names(tree: ast.Module) -> set[str]:
    """Private names the module binds: functions, classes, fields, variables and attributes it sets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return set(filter(_is_private, names))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_another_modules_private_name(path):
    # a private name stays inside its module: the dataset's CSV grammar,
    # say, is read only through load_csv and load_predictions
    private = [
        f"from .{node.module} import {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_reads_another_modules_private_attribute(path):
    # nor is one read as an attribute: the solver's Gram memo lives in the
    # solver, and a panel is built through LongitudinalDataset.from_panel
    tree = _tree(path)
    own = _defined_private_names(tree)
    others = set().union(*(_defined_private_names(_tree(other)) for other in MODULES if other != path))
    reads = [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr in others - own
    ]
    assert reads == []
