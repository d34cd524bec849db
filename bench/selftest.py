"""Self-test of the benchmark on tiny panels (about a minute on 2 CPUs).

usage: python3 bench/selftest.py

For every workload in BENCHMARK.json it runs the real command at
``--size tiny`` three times:

1. untraced, recording the answers as the seed's fingerprint: every
   end-to-end metric must be printed with its unit, and the run must pass;
2. traced, checked against that fingerprint: every per-layer metric must
   be printed with its unit, and the run must pass;
3. untraced against a deliberately wrong fingerprint: the run must report
   failed operations, ``correct: false`` and a non-zero exit code.

Finally it runs the command in a directory holding only BENCHMARK.json
and the benchmark's files, where it must fail without printing a result.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 600


def run(cwd: Path, workload: str, trace: int, fingerprints: Path, record: bool = False):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", "--fingerprints", str(fingerprints)]
    if record:
        cmd.append("--record")
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def metric_problems(result, wanted) -> list:
    problems = []
    if result is None:
        return ["no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = result.get("metrics", {})
    for entry in wanted:
        metric = got.get(entry["name"])
        if metric is None:
            problems.append(f"missing metric {entry['name']}")
        elif metric.get("unit") != entry["unit"] or not math.isfinite(metric.get("value", math.nan)):
            problems.append(f"bad metric {entry['name']}: {metric}")
    extra = set(got) - {e["name"] for e in wanted}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main() -> int:
    failures = []

    def expect(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        tmp = Path(tmp)
        fingerprints = tmp / "fingerprints.json"
        for workload in (w["name"] for w in SPEC["workloads"]):
            proc, result = run(ROOT, workload, 0, fingerprints, record=True)
            problems = metric_problems(result, SPEC["end_to_end"])
            expect(proc.returncode == 0 and result and result["correct"] and not problems,
                   f"{workload}: untraced run prints every end-to-end metric {problems or ''}"
                   f"{proc.stderr[-500:] if proc.returncode else ''}")

            proc, result = run(ROOT, workload, 1, fingerprints)
            problems = metric_problems(result, SPEC["per_layer"])
            expect(proc.returncode == 0 and result and result["correct"] and not problems,
                   f"{workload}: traced run prints every per-layer metric and matches the "
                   f"recorded fingerprint {problems or ''}{proc.stderr[-500:] if proc.returncode else ''}")

            good = json.loads(fingerprints.read_text())
            wrong = json.loads(json.dumps(good))
            fp = wrong[workload]["tiny"]["0"]
            fp["alpha_hat"] += 0.5
            bad = tmp / "wrong.json"
            bad.write_text(json.dumps(wrong))
            proc, result = run(ROOT, workload, 0, bad)
            expect(proc.returncode != 0 and result is not None and result["correct"] is False
                   and result["failed"] >= 1,
                   f"{workload}: a wrong fingerprint is reported as a failed operation")

        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        workload = SPEC["workloads"][0]["name"]
        proc, result = run(bare, workload, 0, bare / "none.json")
        expect(proc.returncode != 0 and result is None,
               "without the sources the command fails and prints no result")

    print(f"{'FAILED' if failures else 'OK'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
