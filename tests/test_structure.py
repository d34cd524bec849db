"""Module boundaries of the package, checked on its source."""
import ast
from pathlib import Path

import pytest

from longlasso.correlation import STRUCTURES

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


def _docstrings(tree: ast.Module) -> set[int]:
    """ids of the docstring constants of the module, its classes and its functions."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }


def test_the_solver_names_no_correlation_structure():
    # which structures have alpha-free terms in R^{-1} is correlation's rule
    # (inverse_terms): the solver reads the terms, never a structure's name
    tree = _tree(PACKAGE / "fista.py")
    docstrings = _docstrings(tree)
    named = [
        f"{node.value!r} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in STRUCTURES and id(node) not in docstrings
    ]
    assert named == []
