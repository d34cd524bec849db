"""Time the default grid cross-validation on the paper's panel.

Simulates the paper's Gaussian AR(1) panel for each seed (d=200, T=30,
m=400, tau=4, alpha 0.64, feature rows 0..149 and lags 1 and 4 zero),
holds the last 5 times out, runs ``grid_cv`` with the default ``CvSpec``
(5x5 grid, 3 folds) under AR(1) on the training part, and prints one JSON
line per seed: the seed, the seconds ``grid_cv`` took, the best cell as
indices into the lambda1 and lambda2 grids with its mean score, the
runner-up cell by ``grid_cv``'s ranking (lower mean nMSE, ties toward the
larger lambda1 + lambda2) with its mean score, and their gap relative to
the best score.  The sizes scale down for a smoke run; the zero rows are
the first three quarters of the features.

Example:
    python scripts/time_paper_cv.py --seeds 0,1,2
    python scripts/time_paper_cv.py --features 6 --subjects 20 --times 12 --tau 2 --holdout 3
"""
import argparse
import json
import sys
import time

import longlasso as ll


def _indices(cv, cell):
    """A (lambda1, lambda2) cell as its indices into the two grids."""
    return [cv.lam1_grid.index(cell[0]), cv.lam2_grid.index(cell[1])]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--features", type=int, default=200)
    parser.add_argument("--subjects", type=int, default=400)
    parser.add_argument("--times", type=int, default=30)
    parser.add_argument("--tau", type=int, default=4)
    parser.add_argument("--holdout", type=int, default=5)
    parser.add_argument("--seeds", default="0", help="comma-separated simulation seeds")
    args = parser.parse_args()

    for seed in (int(value) for value in args.seeds.split(",")):
        cfg = ll.SimConfig(
            d=args.features, T=args.times, m=args.subjects, tau=args.tau,
            zero_feature_rows=tuple(range(3 * args.features // 4)),
            zero_lag_columns=tuple(c for c in (1, 4) if c <= args.tau),
            structure="ar1", alpha=0.64, seed=seed,
        )
        panel, _, _ = ll.generate_regression(cfg)
        train, _ = ll.split_temporal(panel, args.holdout, args.tau)
        start = time.perf_counter()
        cv = ll.grid_cv(train, args.tau, "gaussian", "ar1", ll.CvSpec())
        seconds = time.perf_counter() - start
        ranked = sorted(
            ((score, cell) for cell, score in cv.mean_scores.items() if score is not None),
            key=lambda item: (item[0], -(item[1][0] + item[1][1])),
        )
        (best_score, best), (runner_up_score, runner_up) = ranked[:2]
        assert best == (cv.best_lam1, cv.best_lam2), "the ranking disagrees with grid_cv's best cell"
        print(json.dumps({
            "seed": seed, "seconds": round(seconds, 3), "best_cell": _indices(cv, best), "best_score": best_score,
            "runner_up": _indices(cv, runner_up), "runner_up_score": runner_up_score,
            "relative_gap": (runner_up_score - best_score) / abs(best_score),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
