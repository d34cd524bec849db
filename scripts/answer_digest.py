"""Print the solver's answers and a digest of them, to compare two trees' answers.

For each seed it builds the benchmark's own inputs from ``bench/workloads.py``
(its panels, split, penalties and support tolerance) and runs six cases:

- ``fit-gauss-ar1-paper``: ``FitGaussAr1``'s Gaussian AR(1) fit of the
  paper panel at that class's penalties;
- ``cv-gauss-ar1-paper``: the default-grid AR(1) ``grid_cv`` of the same
  panel's training part;
- ``cv-gauss-ar1-quick``: ``CvGaussAr1``'s default-grid AR(1) ``grid_cv``
  of the quickstart panel;
- ``cv-final-fit-quick``: the Gaussian AR(1) fit at its best cell;
- ``fit-lagged-ar1-quick``: a Gaussian AR(1) fit of the quickstart panel
  with the lagged outcome in the design, at lambda = (50, 200);
- ``fit-bern-exch-paper``: the Bernoulli exchangeable fit that
  ``CliBernExch``'s CLI pipeline runs, on that class's panel and penalties.

Each case prints one JSON line on stdout: a sha256 and, beside it, the
answers it covers.  For a fit the sha256 covers U and V bit for bit,
alpha-hat, phi and each round's inner iterations; the line prints all but
U and V, and also ``converged`` and the support at the benchmark's
``SUPPORT_REL_TOL``.  For a cross-validation it covers the table and the
best cell; the line prints the best and runner-up cells (indices into the
two grids, ranked as ``grid_cv`` ranks them), their mean scores and their
gap relative to the best score.  Each case's seconds go to stderr, a
panel's simulation counted in its first case.  So stdout is the same from
run to run, and a ``diff`` of two trees' stdout compares their answers at
the same BLAS thread count (a fit's last bits depend on it: set
``OPENBLAS_NUM_THREADS``).  ``--size tiny`` runs the benchmark's tiny
panels for a smoke run.

Example:
    OPENBLAS_NUM_THREADS=1 python scripts/answer_digest.py --seeds 0-9 > answers.jsonl
    OPENBLAS_NUM_THREADS=1 python scripts/answer_digest.py --seeds 8,16
    python scripts/answer_digest.py --size tiny --seeds 0
"""
import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import longlasso as ll

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

# (lambda1, lambda2) of the lagged-outcome fit, which no benchmark workload runs
LAGGED_PENALTIES = (50.0, 200.0)


def parse_seeds(text: str) -> list:
    """Seeds from a comma-separated list of integers and inclusive ranges, e.g. ``0-9`` or ``0,3,5-7``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def fit_answers(result):
    """A fit's digest parts and the answers its line prints."""
    alpha, phi = result.working.alpha, result.working.phi
    iterations = [int(trace.size) for trace in result.inner_traces]
    parts = [result.coefficients.U.tobytes(), result.coefficients.V.tobytes(),
             repr(alpha), repr(phi), repr(iterations)]
    features, lags = ll.selected_support(result, rel_tol=workloads.SUPPORT_REL_TOL)
    return parts, {"alpha": alpha, "phi": phi, "inner_iterations": iterations,
                   "converged": bool(result.converged), "support": [features, lags]}


def cv_answers(cv):
    """A cross-validation's digest parts and the answers its line prints.

    The runner-up is the best of the other scored cells by ``grid_cv``'s
    ranking: lower mean nMSE, ties toward the larger lambda1 + lambda2.
    """
    best = (cv.best_lam1, cv.best_lam2)
    scored = {cell: score for cell, score in cv.mean_scores.items() if score is not None and cell != best}
    runner_up = min(scored, key=lambda cell: (scored[cell], -(cell[0] + cell[1])))
    best_score, runner_up_score = cv.mean_scores[best], scored[runner_up]

    def indices(cell):
        return [cv.lam1_grid.index(cell[0]), cv.lam2_grid.index(cell[1])]

    return [repr(cv.table), repr(indices(best))], {
        "best_cell": indices(best), "best_score": best_score,
        "runner_up": indices(runner_up), "runner_up_score": runner_up_score,
        "relative_gap": (runner_up_score - best_score) / abs(best_score),
    }


def cases(seed: int, size: str):
    """(case name, (digest parts, answers)) of each case on one seed's panels."""
    paper = workloads.FitGaussAr1(seed, size, None)
    state = paper.setup()
    yield "fit-gauss-ar1-paper", fit_answers(ll.fit(state["design"], "gaussian", "ar1", paper.lam1, paper.lam2))
    yield "cv-gauss-ar1-paper", cv_answers(ll.grid_cv(state["train"], state["design"].tau, "gaussian", "ar1",
                                                      ll.CvSpec()))

    state = workloads.CvGaussAr1(seed, size, None).setup()
    tau = state["design"].tau
    cv = ll.grid_cv(state["train"], tau, "gaussian", "ar1", ll.CvSpec())
    yield "cv-gauss-ar1-quick", cv_answers(cv)
    yield "cv-final-fit-quick", fit_answers(ll.fit(state["design"], "gaussian", "ar1", cv.best_lam1, cv.best_lam2))
    lagged = ll.build_lagged(state["train"], tau, include_lagged_outcome=True)
    yield "fit-lagged-ar1-quick", fit_answers(ll.fit(lagged, "gaussian", "ar1", *LAGGED_PENALTIES))

    cli = workloads.CliBernExch(seed, size, None)
    train, _ = ll.split_temporal(ll.generate_classification(cli.cfg)[0], workloads.HOLDOUT, cli.cfg.tau)
    design = ll.build_lagged(train, cli.cfg.tau)
    yield "fit-bern-exch-paper", fit_answers(ll.fit(design, "bernoulli", "exchangeable", cli.lam1, cli.lam2))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="seeds as a list of integers and ranges, e.g. 0-9")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        for case, (parts, answers) in cases(seed, args.size):
            seconds = time.perf_counter() - start
            print(json.dumps({"seed": seed, "case": case, "sha256": digest(parts), **answers}), flush=True)
            print(f"seed {seed} {case}: {seconds:.2f} s", file=sys.stderr, flush=True)
            start = time.perf_counter()
    return 0


if __name__ == "__main__":
    sys.exit(main())
