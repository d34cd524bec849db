"""Prediction metrics and subject-wise k-fold cross-validation over a
(lambda1, lambda2) grid.

Folds partition subjects, never time points: time-sliced folds would leak
through overlapping lag windows.  Fold assignment is a deterministic
function of the subject order and the seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import alternation, fista
from .correlation import make_working, spd_cholesky
from .dataset import LongitudinalDataset, build_lagged
from .errors import DataError, NumericalError, check_finite
from .families import get_family
from .penalty import row_norms

METRICS = ("nmse", "auc")
# the default grids: GRID_POINTS log-spaced values per penalty, from
# GRID_SPAN * lambda_max up to lambda_max
GRID_POINTS = 5
GRID_SPAN = 1e-3
# support_lambdas: each penalty is the SUPPORT_QUANTILE of its block's largest
# group pulls over SUPPORT_DRAWS noise draws, times the block's inflation
SUPPORT_DRAWS = 40
SUPPORT_QUANTILE = 0.9
SUPPORT_ROW_INFLATION = 1.5
SUPPORT_COL_INFLATION = 2.2
# every CV cell's fit: lighter than a final fit, as cells only need ranking
CV_CELL_CONFIG = alternation.FitConfig(max_outer=6, inner_max_iterations=800, inner_tolerance=1e-5)


def nmse(predictions, actuals) -> float:
    """Mean squared error divided by the population variance of actuals."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    actuals = np.asarray(actuals, dtype=float).ravel()
    if predictions.shape != actuals.shape:
        raise ValueError("predictions and actuals must have matching lengths")
    if actuals.size < 2:
        raise ValueError("need at least two observations")
    variance = float(np.var(actuals))
    if variance <= 0.0:
        raise ValueError("zero variance in actuals")
    return float(np.mean((predictions - actuals) ** 2) / variance)


def auc(scores, labels) -> float:
    """Area under the ROC curve in the Mann-Whitney form.

    P(score+ > score-) + 0.5 * P(tie), computed exactly via midranks.
    Invariant under strictly increasing transforms of the scores.  NaN
    scores rank above every number and tie with each other.
    """
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have matching lengths")
    unique = set(np.unique(labels))
    if not unique <= {0.0, 1.0}:
        raise ValueError("labels must be binary")
    n_pos = int(np.sum(labels == 1.0))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both classes must be present")
    # a group of tied scores spans 1-based ranks end - count + 1 .. end
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = float(np.sum(midranks[group][labels == 1.0]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def lambda_max(design, family) -> tuple[float, float]:
    """Smallest penalties that zero everything at the first prox step.

    Computed from the gradient at W = 0 under R = I, phi = 1: the largest
    row norm bounds lambda1, the largest column norm bounds lambda2.
    Both are the norms as the data give them, so outcomes rescaled by s
    scale them by s, and features rescaled by s scale them by s too.
    """
    family = get_family(family)
    working = make_working("independent", 0.0, 1.0, design.n)
    g = fista.gradient_matrix(design, family, working, np.zeros(design.coef_shape))
    return float(row_norms(g).max()), float(row_norms(g.T).max())


def support_lambdas(design, family, structure: str, seed: int = 0):
    """Noise-calibrated penalties targeting support recovery.

    Prediction error cannot identify the U/V split (the loss depends on
    W = U + V only), so penalties chosen by prediction CV systematically
    under-regularize the decomposition.  This calibrator fits an
    unpenalized pilot, simulates ``SUPPORT_DRAWS`` pure-noise panels from
    its working covariance (drawn from ``seed``), measures the largest
    row and column group norms of the resulting gradient pulls, and
    returns their ``SUPPORT_QUANTILE`` quantiles inflated by
    ``SUPPORT_ROW_INFLATION`` and ``SUPPORT_COL_INFLATION`` to withstand
    penalty cross-talk (each block's penalty must also absorb the pull
    induced by the other block's active groups).  Returns (lambda1, lambda2).
    """
    family = get_family(family)
    pilot_config = alternation.FitConfig(max_outer=4, inner_max_iterations=600, inner_tolerance=1e-5)
    pilot = alternation.fit(design, family, structure, 0.0, 0.0, config=pilot_config)
    working = pilot.working
    eta = fista.linear_predictor(design, pilot.W)
    root = np.sqrt(family.variance(family.mean(eta)))
    chol = spd_cholesky(working.R, "working correlation")
    rng = np.random.default_rng(seed)
    row_pulls = np.empty(SUPPORT_DRAWS)
    col_pulls = np.empty(SUPPORT_DRAWS)
    for b in range(SUPPORT_DRAWS):
        z = rng.standard_normal((design.m, design.n))
        noise = (root * (z @ chol.T)) / np.sqrt(working.phi)
        g = fista.estimating_function(design, working, noise, root)
        row_pulls[b] = row_norms(g).max()
        col_pulls[b] = row_norms(g.T).max()
    return (
        SUPPORT_ROW_INFLATION * float(np.quantile(row_pulls, SUPPORT_QUANTILE)),
        SUPPORT_COL_INFLATION * float(np.quantile(col_pulls, SUPPORT_QUANTILE)),
    )


def default_grids(design, family):
    """``GRID_POINTS`` log-spaced values from ``GRID_SPAN`` * lambda_max up to lambda_max, per penalty."""
    lam1_top, lam2_top = lambda_max(design, family)
    fractions = np.logspace(np.log10(GRID_SPAN), 0.0, GRID_POINTS)
    return (
        tuple(float(f * lam1_top) for f in fractions),
        tuple(float(f * lam2_top) for f in fractions),
    )


@dataclass(frozen=True)
class CvSpec:
    """Cross-validation plan.

    ``lam1_grid``/``lam2_grid`` default to the data-driven log grids of
    ``default_grids``.  Every cell fits with the solver settings of
    ``CV_CELL_CONFIG``.
    """

    lam1_grid: tuple[float, ...] | None = None
    lam2_grid: tuple[float, ...] | None = None
    folds: int = 3
    metric: str = "nmse"
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        for name in ("lam1_grid", "lam2_grid"):
            grid = getattr(self, name)
            if grid is not None and len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            for value in grid or ():
                check_finite(f"{name} entry", value)


@dataclass(frozen=True)
class CvResult:
    """Grid scores and the chosen cell.

    ``failures`` maps (lambda1, lambda2, fold) of each failed fit to
    "ExcType: message"; those rows of ``table`` score None.
    """

    best_lam1: float
    best_lam2: float
    lam1_grid: tuple[float, ...]
    lam2_grid: tuple[float, ...]
    table: tuple[tuple[float, float, int, float | None], ...]
    mean_scores: dict
    failures: dict = field(default_factory=dict)


def fold_assignments(subject_ids, folds: int, seed: int) -> dict:
    """Deterministic subject -> fold map from the id order and the seed."""
    ids = list(subject_ids)
    if folds > len(ids):
        raise ValueError("more folds than subjects")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    return {ids[idx]: int(pos % folds) for pos, idx in enumerate(order)}


def _score_cell(design, test_design, family, structure, lam1, lam2, spec):
    """Held-out score of one cell on one fold."""
    result = alternation.fit(design, family, structure, lam1, lam2, config=CV_CELL_CONFIG)
    predictions = alternation.predict(result, test_design)
    if spec.metric == "nmse":
        return nmse(predictions.ravel(), test_design.y.ravel())
    return auc(predictions.ravel(), test_design.y.ravel())


def grid_cv(
    train: LongitudinalDataset,
    tau: int,
    family: str = "gaussian",
    structure: str = "independent",
    spec: CvSpec | None = None,
    include_lagged_outcome: bool = False,
) -> CvResult:
    """Evaluate every (lambda1, lambda2) cell with subject-wise k-fold CV.

    Each cell fits on k-1 folds and scores on the held-out fold; the best
    cell optimizes the mean metric (min nMSE or max AUC) with ties broken
    toward larger lambda1 + lambda2, i.e. sparser models.  Cells whose fit
    fails on any fold are marked invalid, and the reason is kept in
    ``failures``; if every cell is invalid an error is raised.  Outcomes
    outside the family's support, or not binary under the AUC metric,
    raise ``DataError`` before any cell runs, and so does a held-out fold
    whose outcomes the metric refuses to score (a single class under AUC,
    zero variance under nMSE); a fold's training design that
    ``alternation.check_design`` refuses raises it before that fold's
    cells.  Each would fail every cell alike.
    """
    spec = spec or CvSpec()
    # the cells fit and score every subject's outcomes from time tau on
    outcomes = train.outcomes[:, tau:].ravel()
    get_family(family).check_outcomes(outcomes)
    if spec.metric == "auc" and not np.all((outcomes == 0.0) | (outcomes == 1.0)):
        raise DataError("metric 'auc' needs binary outcomes, 0 or 1")
    assignment = fold_assignments(train.subject_ids, spec.folds, spec.seed)
    metric = nmse if spec.metric == "nmse" else auc
    for f in range(spec.folds):
        # the metric's own refusals, on the held-out outcomes scored against themselves
        held = train.outcomes[[assignment[sid] == f for sid in train.subject_ids], tau:].ravel()
        try:
            metric(held, held)
        except ValueError as exc:
            raise DataError(f"held-out fold {f} cannot be scored by metric {spec.metric!r}: {exc}") from None
    lam1_grid, lam2_grid = spec.lam1_grid, spec.lam2_grid
    if lam1_grid is None or lam2_grid is None:
        # the whole panel's design serves only the grids: freed before fold 0
        auto1, auto2 = default_grids(build_lagged(train, tau, include_lagged_outcome), family)
        lam1_grid, lam2_grid = lam1_grid or auto1, lam2_grid or auto2

    cells = [(lam1, lam2) for lam1 in lam1_grid for lam2 in lam2_grid]
    fold_scores = []
    failures = {}
    for f in range(spec.folds):
        # one fold at a time: its designs are built once, serve every cell,
        # and are freed before the next fold's are built
        held_out = [sid for sid in train.subject_ids if assignment[sid] == f]
        kept = [sid for sid in train.subject_ids if assignment[sid] != f]
        design = build_lagged(train.subset(kept), tau, include_lagged_outcome)
        alternation.check_design(design, structure)
        test_design = build_lagged(train.subset(held_out), tau, include_lagged_outcome)
        scores = []
        for lam1, lam2 in cells:
            try:
                score = _score_cell(design, test_design, family, structure, lam1, lam2, spec)
            except (NumericalError, ValueError) as exc:
                failures[(lam1, lam2, f)] = f"{type(exc).__name__}: {exc}"
                score = None
            scores.append(score)
        fold_scores.append(scores)
        del design, test_design

    table = []
    mean_scores = {}
    for c, (lam1, lam2) in enumerate(cells):
        scores = [fold_scores[f][c] for f in range(spec.folds)]
        table.extend((lam1, lam2, f, score) for f, score in enumerate(scores))
        if any(score is None for score in scores):
            mean_scores[(lam1, lam2)] = None
        else:
            mean_scores[(lam1, lam2)] = float(np.mean(scores))

    valid = {cell: s for cell, s in mean_scores.items() if s is not None}
    if not valid:
        raise NumericalError("every cross-validation cell failed to fit")
    sign = 1.0 if spec.metric == "nmse" else -1.0
    best = min(valid.items(), key=lambda item: (sign * item[1], -(item[0][0] + item[0][1])))
    return CvResult(
        best_lam1=best[0][0],
        best_lam2=best[0][1],
        lam1_grid=tuple(lam1_grid),
        lam2_grid=tuple(lam2_grid),
        table=tuple(table),
        mean_scores=mean_scores,
        failures=failures,
    )
