"""Run the benchmark over several seeds and report each metric's spread.

usage: python3 bench/sweep.py --workloads W [W ...] --seeds 0-9 [--trace 0|1] [--record] [--out FILE]

For each workload it runs the command of BENCHMARK.json once per seed,
one run at a time, and prints for every metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to a third of the metric's bound.  ``--record``
is passed on to ``run.py``, which then stores the answers of seeds that
have no fingerprint yet.  ``--out`` writes the per-run results, the
summaries and the environment as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values),
            "bound": bound, "steady": bound is None or spread < bound / 3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true")
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {"cpu_model": cpu_model(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)]
            if args.record:
                cmd.append("--record")
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            env_line = next((l for l in lines if l.startswith("environment ")), None)
            if env_line:
                report["environment"] = json.loads(env_line.split(" ", 1)[1])
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            runs.append({"seed": seed, "exit": proc.returncode, "wall_s": wall, "result": result})
            values = {k: round(v["value"], 6) for k, v in (result or {}).get("metrics", {}).items()}
            print(f"{workload} seed {seed} exit {proc.returncode} wall {wall:.1f}s "
                  f"correct {result and result['correct']} {values if not args.trace else ''}",
                  flush=True)
            if proc.returncode != 0 or not result or not result["correct"]:
                ok = False
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
        good = [r["result"] for r in runs if r["result"]]
        summary = {}
        for m in metrics:
            values = [g["metrics"][m["name"]]["value"] for g in good if m["name"] in g["metrics"]]
            if len(values) >= 2:
                summary[m["name"]] = summarize(values, bounds[m["name"]])
                s = summary[m["name"]]
                flag = "" if s["steady"] or m["name"] == "setup_s" else "  <-- spread above bound/3"
                print(f"  {m['name']:<34} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f} bound {s['bound']}{flag}")
        report["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "wall_s": sum(r["wall_s"] for r in runs)}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
