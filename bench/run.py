"""longlasso benchmark: one workload, one seed, one line of JSON at the end.

usage: python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run sets up the inputs several times
(``setup_s`` is the median), then issues operations one after another
while the next one is expected to end within ``--seconds``, at least one,
and reports the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` it runs one traced operation and reports the per-layer
metrics; the spans are written to ``.bench_work/``.  Its tracing overhead
is traced minus untraced ``total_s``, the untraced figure taken from an
earlier untraced run of the same workload, seed and sources in this
checkout, or else from one untraced operation run first.  Every
operation's answers are checked; the exit code is 1 when a check or an
operation fails and 2 when the sources or the benchmark file are missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
FINGERPRINTS = HERE / "fingerprints.json"
# set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS are
# spent (at most SETUP_MAX times), so that a set-up of a few milliseconds
# still gets a steady median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 50, 1.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("fit-gauss-ar1-paper", "cv-gauss-ar1-quick", "cli-bern-exch-paper")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny panels exercise every code path in seconds (self-test)")
    p.add_argument("--fingerprints", type=Path, default=FINGERPRINTS)
    p.add_argument("--record", action="store_true",
                   help="store this run's answers as the seed's fingerprint when none is recorded")
    return p.parse_args(argv)


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns the cap."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        if not os.environ.get(var) or int(os.environ[var]) > cpus:
            os.environ[var] = str(cpus)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "longlasso").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


# ------------------------------------------------------------------ stats


def tail(values):
    """(percentile, value) with ten samples beyond it, or None below 11 samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    idx = len(ordered) - 11
    return round(100.0 * (idx + 1) / len(ordered)), ordered[idx]


def summary_line(name, values, unit) -> str:
    median = statistics.median(values)
    t = tail(values)
    tail_text = f"p{t[0]}={t[1]:.6g}" if t else "tail n/a (<11 samples)"
    return f"  {name:<34} {median:>14.6g} {unit:<6} median, {tail_text}, n={len(values)}"


# ----------------------------------------------------------------- checks


class Checks:
    """Answer checks; each one counts as an attempted operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)


def check_ops(ops, fingerprint, tolerances, checks: Checks) -> None:
    first = ops[0].answers
    for i, op in enumerate(ops):
        a = op.answers
        if not a:
            continue
        checks.add(f"op{i}.finite", a["finite"], "predictions and metric finite")
        if "in_unit_interval" in a:
            checks.add(f"op{i}.in_unit_interval", a["in_unit_interval"], "Bernoulli predictions in (0,1)")
            checks.add(f"op{i}.auc_matches", abs(a["auc_recomputed"] - a["test_auc"]) <= 1e-12,
                       f"evaluate {a['test_auc']!r} vs recomputed {a['auc_recomputed']!r}")
        if i:
            for key in ("support", "alpha_hat", "best_cell", "model_sha256"):
                if key in first:
                    checks.add(f"op{i}.same_{key}", a[key] == first[key], "repeat of op0")
    if fingerprint is None or not first:
        return
    checks.add("fingerprint.support", first["support"] == fingerprint["support"],
               f"{first['support']} vs recorded {fingerprint['support']}")
    alpha_tol, error_tol = tolerances
    checks.add("fingerprint.alpha_hat",
               abs(first["alpha_hat"] - fingerprint["alpha_hat"]) <= alpha_tol,
               f"{first['alpha_hat']:.6f} vs recorded {fingerprint['alpha_hat']:.6f}")
    checks.add("fingerprint.test_error",
               first["test_error"] <= (1.0 + error_tol) * fingerprint["test_error"],
               f"{first['test_error']:.6g} vs recorded {fingerprint['test_error']:.6g}")
    if "best_cell" in fingerprint:
        checks.add("fingerprint.best_cell", first.get("best_cell") == fingerprint["best_cell"],
                   f"{first.get('best_cell')} vs recorded {fingerprint['best_cell']}")


def fingerprint_of(answers: dict) -> dict:
    fp = {key: answers[key] for key in ("support", "alpha_hat", "test_error")}
    if "best_cell" in answers:
        fp["best_cell"] = answers["best_cell"]
    return fp


def load_fingerprints(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def dump_fingerprints(fingerprints: dict) -> str:
    """JSON with one line per seed: workload -> size -> seed -> fingerprint."""
    blocks = []
    for workload, sizes in sorted(fingerprints.items()):
        size_blocks = []
        for size, by_seed in sorted(sizes.items()):
            rows = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(fp, sort_keys=True)}"
                              for seed, fp in sorted(by_seed.items(), key=lambda kv: int(kv[0])))
            size_blocks.append(f"  {json.dumps(size)}: {{\n{rows}\n  }}")
        blocks.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(size_blocks) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def check_model_bytes(wl, ops, checks: Checks) -> None:
    """The CLI model JSON must be byte-identical across the runs of one set.

    Runs of one set share a checkout, so the first run of given commands
    on a given source tree leaves the model hash in ``.bench_work`` and
    later runs compare against it.
    """
    sha = ops[0].answers.get("model_sha256") if ops[0].answers else None
    if sha is None:
        return
    store = WORK / "cli-model-sha256.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    commands = hashlib.sha256(json.dumps(wl.commands()).encode()).hexdigest()[:16]
    key = f"{commands}:{src_digest()}"
    if key in known:
        checks.add("model_json.same_across_runs", known[key] == sha, f"{sha[:12]} vs {known[key][:12]}")
    else:
        known[key] = sha
        store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------------- runs


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.subprocesses else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(wl, seconds: float):
    setups = []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
        state = None  # one set of inputs in memory at a time keeps peak_rss_mb steady
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    ops = []
    start = time.perf_counter()
    while True:
        ops.append(wl.operate(state))
        if ops[-1].failed:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(op.timings["total_s"] for op in ops)
        if elapsed + typical > seconds:
            break
    rss = peak_rss_mb(wl)
    for op in ops:
        wl.finish(op, state)
    return setups, ops, rss


class UntracedTotals:
    """Untraced ``total_s`` of earlier runs in this checkout, by workload,
    size, seed and source tree, so that the traced run can report its
    overhead without repeating the untraced operation."""

    def __init__(self, wl, args):
        self.path = WORK / "untraced-total_s.json"
        self.key = f"{wl.name}:{args.size}:{args.seed}:{src_digest()}"

    def _load(self) -> dict:
        return json.loads(self.path.read_text()) if self.path.exists() else {}

    def get(self):
        return self._load().get(self.key)

    def put(self, value: float) -> None:
        known = self._load()
        known[self.key] = value
        self.path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def traced_run(wl, args):
    import tracing

    ops = []
    untraced_total = UntracedTotals(wl, args).get()
    if untraced_total is None:
        state = wl.setup()
        ops.append(wl.operate(state))
        wl.finish(ops[0], state)
        untraced_total = ops[0].timings["total_s"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = wl.setup()
        mark = tracer.mark()
        op = wl.operate(state, tracer)
    finally:
        tracer.uninstall()
    wl.finish(op, state)
    tracer.write(WORK / f"spans-{wl.name}-seed{args.seed}.json")
    return ops + [op], per_layer_metrics(tracer.spans, mark, op, untraced_total)


def per_layer_metrics(spans, mark, op, untraced_total: float) -> dict:
    import tracing as tr

    timed = spans[mark:]

    def calls(*names):
        return tr.calls_and_time(spans, set(names), mark)

    def data(name, field=None):
        values = [s[tr.DATA] for s in timed if s[tr.NAME] == name and s[tr.DATA] is not None]
        return [v if field is None else v[field] for v in values]

    m = {}
    lp_calls, lp_s = calls("fista.linear_predictor")
    steps, _ = calls("fista.fista_step")
    trials, _ = calls("penalty.prox_row_groups")
    m["fista.linear_predictor_calls"] = lp_calls
    m["fista.linear_predictor_s"] = lp_s
    m["fista.matvecs_per_iteration"] = lp_calls / steps if steps else 0.0
    m["fista.design_mb_moved"] = sum(data("fista.linear_predictor")) / 1e6
    m["fista.lipschitz_calls"], m["fista.lipschitz_s"] = calls("fista.lipschitz_upper")
    m["fista.smooth_loss_calls"], m["fista.smooth_loss_s"] = calls("fista.smooth_loss")
    m["fista.accepted_step_ratio"] = steps / trials if trials else 0.0
    m["fista.inner_solve_calls"], m["fista.inner_solve_s"] = calls("fista.inner_solve")
    m["fista.iterations"] = sum(data("fista.inner_solve", 0))
    m["fista.capped_solves"] = sum(data("fista.inner_solve", 1))
    m["penalty.prox_calls"], m["penalty.prox_s"] = calls(
        "penalty.prox_row_groups", "penalty.prox_col_groups")
    m["correlation.make_working_calls"], m["correlation.make_working_s"] = calls(
        "correlation.make_working")
    m["correlation.moment_s"] = calls(
        "correlation.pearson_residuals", "correlation.estimate_phi", "correlation.estimate_alpha")[1]
    m["alternation.fit_calls"], m["alternation.fit_s"] = calls("alternation.fit")
    m["alternation.outer_rounds"] = sum(data("alternation.fit", 0))
    m["alternation.reported_converged"] = sum(data("alternation.fit", 1))
    m["alternation.converged_but_capped"] = sum(data("alternation.fit", 2))
    m["alternation.predict_s"] = calls("alternation.predict")[1]
    m["evaluation.cells"] = sum(data("evaluation.grid_cv", 0))
    m["evaluation.failed_cells"] = sum(data("evaluation.grid_cv", 1))
    cell_fits = [
        s[tr.END] - s[tr.START]
        for i, s in enumerate(spans)
        if i >= mark and s[tr.NAME] == "alternation.fit" and tr.under(spans, i, "evaluation.grid_cv")
    ]
    m["evaluation.cell_fit_p50_s"] = statistics.median(cell_fits) if cell_fits else 0.0
    cell_tail = tail(cell_fits)
    m["evaluation.cell_fit_tail_s"] = cell_tail[1] if cell_tail else 0.0
    m["evaluation.lambda_max_s"] = calls("evaluation.lambda_max")[1]
    m["evaluation.grid_cv_s"] = calls("evaluation.grid_cv")[1]
    m["dataset.load_csv_calls"], m["dataset.load_csv_s"] = calls("dataset.load_csv")
    writes, m["dataset.write_csv_s"] = calls("dataset.write_csv")
    m["dataset.csv_mb"] = op.answers.get("csv_mb", 0.0)
    csv_s = m["dataset.load_csv_s"] + m["dataset.write_csv_s"]
    moved = m["dataset.csv_mb"] * (m["dataset.load_csv_calls"] + writes)
    m["dataset.csv_mb_per_s"] = moved / csv_s if csv_s else 0.0
    m["dataset.build_lagged_calls"], m["dataset.build_lagged_s"] = calls("dataset.build_lagged")
    # the library workloads generate their panel in the traced set-up
    m["simulate.generate_s"] = tr.calls_and_time(
        spans, {"simulate.generate_regression", "simulate.generate_classification"})[1]
    imports = [s[tr.END] - s[tr.START] for s in timed if s[tr.NAME] == "cli.import"]
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    for command in ("simulate", "fit", "predict", "evaluate"):
        m[f"cli.{command}_s"] = op.timings.get(f"{command}_s", 0.0) if imports else 0.0
    self_s = tr.self_times(spans, mark)
    for layer in tr.LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["trace.total_s"] = op.timings["total_s"]
    m["trace.untraced_total_s"] = untraced_total
    m["trace.overhead_s"] = op.timings["total_s"] - untraced_total
    m["trace.unattributed_s"] = op.timings["total_s"] - sum(self_s.values())
    return m


def end_to_end_metrics(setups, ops, rss) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(op.timings["total_s"] for op in ops),
        "peak_rss_mb": rss,
    }


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "longlasso" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a longlasso checkout: {SRC / 'longlasso'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    blas_threads = limit_blas_threads()
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    try:
        return run(args, spec, blas_threads)
    except Exception:
        # an operation that raises is a failed operation; no metrics follow
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


def run(args, spec: dict, blas_threads: int) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, WORK)
    checks = Checks()
    if args.trace:
        ops, metrics = traced_run(wl, args)
        wanted = spec["per_layer"]
    else:
        setups, ops, rss = timed_run(wl, args.seconds)
        metrics = end_to_end_metrics(setups, ops, rss)
        UntracedTotals(wl, args).put(metrics["total_s"])
        wanted = spec["end_to_end"]
        check_model_bytes(wl, ops, checks)

    fingerprints = load_fingerprints(args.fingerprints)
    recorded = fingerprints.get(wl.name, {}).get(args.size, {})
    fingerprint = recorded.get(str(args.seed))
    check_ops(ops, fingerprint, (workloads.ALPHA_TOL, workloads.TEST_ERROR_TOL), checks)
    if args.record and fingerprint is None and ops[0].answers and not args.trace:
        recorded[str(args.seed)] = fingerprint_of(ops[0].answers)
        fingerprints.setdefault(wl.name, {})[args.size] = recorded
        args.fingerprints.write_text(dump_fingerprints(fingerprints))

    attempted = sum(op.attempted for op in ops) + len(checks.results)
    failed = sum(op.failed for op in ops) + checks.failed
    correct = failed == 0

    env = environment(blas_threads)
    print(f"workload {wl.name}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"operations {len(ops)}  attempted {attempted}  failed {failed}  "
          f"failed_ops_ratio {failed / attempted:.6g}")
    for op in ops:
        for note in op.notes:
            print(f"  note: {note}")
    answered = [op for op in ops if op.answers]
    if not args.trace:
        print("end-to-end (median, highest percentile with ten samples beyond it, samples):")
        print(summary_line("setup_s", setups, "s"))
        for key in ("cv_s", "fit_s", "total_s"):
            values = [op.timings[key] for op in ops if key in op.timings]
            if values:
                print(summary_line(key, values, "s"))
        print(summary_line("peak_rss_mb", [rss], "MB"))
        for key in ("test_error", "test_nmse", "test_auc"):
            if answered and key in answered[0].answers:
                print(summary_line(key, [op.answers[key] for op in answered], "ratio"))
        print(summary_line("failed_ops_ratio", [failed / attempted], "ratio"))
    else:
        print("per-layer (traced operation):")
    answers = answered[-1].answers if answered else {}
    for key in ("oracle_nmse", "oracle_auc", "alpha_hat", "support", "best_cell", "best_lambdas",
                "outer_rounds", "inner_iterations", "converged"):
        if key in answers:
            print(f"  answer {key}: {answers[key]}")
    print(f"  fingerprint: {'recorded for this seed' if fingerprint else 'none recorded for this seed'}")
    for name, ok, detail in checks.results:
        if not ok:
            print(f"  CHECK FAILED {name}: {detail}")
    print(f"  checks: {len(checks.results) - checks.failed}/{len(checks.results)} passed")

    out = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        if args.trace:
            print(f"  {entry['name']:<34} {float(value):>14.6g} {entry['unit']}")
    if args.trace:
        print(f"  self times sum to traced total_s within {metrics['trace.unattributed_s']:.4g} s; "
              f"tracing overhead {metrics['trace.overhead_s']:.4g} s")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
