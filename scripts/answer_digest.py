"""Print a digest of the solver's answers, to show two trees answer bit for bit alike.

For each seed it simulates its panels from ``SimConfig(seed=s)``, holds
the last 5 times out (tau = 4) and runs five cases on the training part:

- ``fit-gauss-ar1-paper``: a Gaussian AR(1) fit of the paper panel at
  lambda = (2000, 5000);
- ``cv-gauss-ar1-quick``: the default-grid AR(1) ``grid_cv`` of the
  quickstart panel (d = 50, m = 100, feature rows 0..37 zero);
- ``cv-final-fit-quick``: the Gaussian AR(1) fit at its best cell;
- ``fit-bern-exch-paper``: a Bernoulli exchangeable fit of the paper
  panel's classification outcomes at lambda = (650, 2400);
- ``fit-lagged-ar1-quick``: a Gaussian AR(1) fit of the quickstart panel
  with the lagged outcome in the design, at lambda = (50, 200).

It prints one JSON line per case and seed: a sha256 over the bytes of U
and V, the repr of alpha-hat and phi and the inner iterations of each
outer round, and for the cross-validation its table and best cell.  Two
trees answer alike when they print the same lines at the same BLAS thread
count (the last bits of a fit depend on it: set ``OPENBLAS_NUM_THREADS``).
``--size tiny`` shrinks every panel, and the penalties with it, for a
smoke run.

Example:
    OPENBLAS_NUM_THREADS=1 python scripts/answer_digest.py --seeds 0-9 > digest.jsonl
    python scripts/answer_digest.py --size tiny --seeds 0
"""
import argparse
import hashlib
import json
import sys

import longlasso as ll

HOLDOUT = 5
TAU = 4
# the paper and quickstart panels, and the tiny ones a smoke run fits
PANELS = {
    "full": {"paper": dict(d=200, m=400, zero_feature_rows=tuple(range(150))),
             "quick": dict(d=50, m=100, zero_feature_rows=tuple(range(38)))},
    "tiny": {"paper": dict(d=8, T=14, m=40, zero_feature_rows=tuple(range(6))),
             "quick": dict(d=6, T=12, m=20, zero_feature_rows=tuple(range(4)))},
}
# (lambda1, lambda2) of the Gaussian paper fit, the Bernoulli fit and the
# lagged-outcome fit
PENALTIES = {
    "full": {"gauss": (2000.0, 5000.0), "bern": (650.0, 2400.0), "lagged": (50.0, 200.0)},
    "tiny": {"gauss": (100.0, 250.0), "bern": (30.0, 120.0), "lagged": (10.0, 40.0)},
}


def parse_seeds(text: str) -> list:
    """Seeds from a comma-separated list of integers and inclusive ranges, e.g. ``0-9`` or ``0,3,5-7``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def fit_parts(result) -> list:
    """What a fit answers: U and V bit for bit, alpha-hat, phi and each round's inner iterations."""
    U, V = result.coefficients.U, result.coefficients.V
    return [U.tobytes(), V.tobytes(), repr(float(result.working.alpha)), repr(float(result.working.phi)),
            repr([int(trace.size) for trace in result.inner_traces])]


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def training_design(dataset, include_lagged_outcome=False):
    train, _ = ll.split_temporal(dataset, HOLDOUT, TAU)
    return train, ll.build_lagged(train, TAU, include_lagged_outcome)


def cases(seed: int, size: str):
    """(case name, the parts of its answer) of each case on one seed's panels."""
    panels, penalties = PANELS[size], PENALTIES[size]
    paper = ll.SimConfig(tau=TAU, seed=seed, **panels["paper"])
    quick = ll.SimConfig(tau=TAU, seed=seed, **panels["quick"])

    _, design = training_design(ll.generate_regression(paper)[0])
    yield "fit-gauss-ar1-paper", fit_parts(ll.fit(design, "gaussian", "ar1", *penalties["gauss"]))

    quick_panel = ll.generate_regression(quick)[0]
    train, design = training_design(quick_panel)
    cv = ll.grid_cv(train, TAU, "gaussian", "ar1", ll.CvSpec())
    best_cell = [cv.lam1_grid.index(cv.best_lam1), cv.lam2_grid.index(cv.best_lam2)]
    yield "cv-gauss-ar1-quick", [repr(cv.table), repr(best_cell)]
    yield "cv-final-fit-quick", fit_parts(ll.fit(design, "gaussian", "ar1", cv.best_lam1, cv.best_lam2))

    _, design = training_design(ll.generate_classification(paper)[0])
    yield "fit-bern-exch-paper", fit_parts(ll.fit(design, "bernoulli", "exchangeable", *penalties["bern"]))

    _, design = training_design(quick_panel, include_lagged_outcome=True)
    yield "fit-lagged-ar1-quick", fit_parts(ll.fit(design, "gaussian", "ar1", *penalties["lagged"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-9", help="seeds as a list of integers and ranges, e.g. 0-9")
    parser.add_argument("--size", choices=sorted(PANELS), default="full")
    args = parser.parse_args()
    for seed in parse_seeds(args.seeds):
        for case, parts in cases(seed, args.size):
            print(json.dumps({"seed": seed, "case": case, "sha256": digest(parts)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
