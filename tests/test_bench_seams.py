"""The benchmark tracer wraps functions at named module attributes; a
refactor that renames or drops one of them breaks ``bench/run.py --trace 1``.
The committed ``BENCH_*.json`` perf records must say what they ran.
"""
import importlib
import importlib.util
import json
import re
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



BENCH_RECORDS = sorted(TRACING.parent.parent.glob("BENCH_*.json"))


def test_bench_records_name_their_runs():
    # each committed perf record: alternating pairs of sweep reports on a
    # parent commit and a change, one seed per pair
    assert BENCH_RECORDS
    for path in BENCH_RECORDS:
        record = json.loads(path.read_text())
        assert isinstance(record["pr"], int), path.name
        assert re.fullmatch(r"[0-9a-f]{7,40}", record["parent"]), path.name
        assert record["pairs"], path.name
        for pair in record["pairs"]:
            assert isinstance(pair["seed"], int) and pair["first"] in ("parent", "change"), path.name
            for side in ("parent", "change"):
                report = pair[side]
                assert isinstance(report["environment"]["blas_threads"], int), path.name
                assert report["workloads"], path.name
                for workload in report["workloads"].values():
                    assert [run["seed"] for run in workload["runs"]] == [pair["seed"]], path.name
