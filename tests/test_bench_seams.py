"""The benchmark tracer wraps functions at named module attributes; a
refactor that renames or drops one of them breaks ``bench/run.py --trace 1``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr_path", [t[:2] for t in load_tracing().TARGETS])
def test_tracer_binding_resolves(module_name, attr_path):
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr_path} is gone"
        owner = getattr(owner, part)
    assert callable(owner)

