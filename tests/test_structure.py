"""Module boundaries of the package, checked on its source."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "longlasso"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_another_modules_private_name(path):
    # a private name stays inside its module: the dataset's CSV grammar,
    # say, is read only through load_csv and load_predictions
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"from .{node.module} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
