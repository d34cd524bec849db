import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import longlasso as ll
from longlasso import alternation, evaluation
from longlasso.dataset import LaggedDesign, build_lagged
from longlasso.errors import NumericalError
from longlasso.evaluation import CV_CELL_CONFIG


def test_nmse_examples():
    y = np.array([1.0, 2.0, 4.0])
    assert ll.nmse(y, y) == 0.0
    assert ll.nmse(np.full(3, y.mean()), y) == pytest.approx(1.0)
    assert ll.nmse(np.array([1.0, 1.0]), np.array([0.0, 2.0])) == pytest.approx(1.0)


def test_nmse_errors():
    with pytest.raises(ValueError, match="zero variance"):
        ll.nmse(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
    with pytest.raises(ValueError):
        ll.nmse(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ll.nmse(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_auc_examples():
    assert ll.auc(np.array([0.9, 0.8, 0.1, 0.2]), np.array([1, 1, 0, 0])) == 1.0
    assert ll.auc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([1, 0, 1, 0])) == 0.5
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    labels = np.array([0, 0, 1, 1])
    assert ll.auc(scores, labels) == pytest.approx(0.75)


def test_auc_ties_counted_half():
    assert ll.auc(np.array([0.3, 0.3, 0.1]), np.array([1, 0, 0])) == pytest.approx(0.75)


@settings(deadline=None, max_examples=100)
@given(
    pairs=st.lists(
        st.tuples(
            st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, allow_nan=False)),
            st.sampled_from([0.0, 1.0]),
        ),
        min_size=2,
        max_size=60,
    )
)
def test_auc_matches_pairwise_definition(pairs):
    scores = np.array([s for s, _ in pairs])
    labels = np.array([y for _, y in pairs])
    if labels.min() == labels.max():
        labels[0] = 1.0 - labels[0]
    pos, neg = scores[labels == 1.0, None], scores[None, labels == 0.0]
    pairwise = (np.sum(pos > neg) + 0.5 * np.sum(pos == neg)) / (pos.size * neg.size)
    assert abs(ll.auc(scores, labels) - pairwise) <= 1e-12


def test_auc_nan_scores_tie_above_every_number():
    scores = np.array([np.nan, 0.2, np.nan, 0.9, 0.1])
    labels = np.array([1, 0, 0, 1, 0])
    # pairs (nan+, 0.2), (nan+, nan-), (nan+, 0.1), (0.9, 0.2), (0.9, nan-), (0.9, 0.1)
    assert ll.auc(scores, labels) == (1 + 0.5 + 1 + 1 + 0 + 1) / 6


def test_auc_errors():
    with pytest.raises(ValueError, match="both classes"):
        ll.auc(np.array([0.1, 0.2]), np.array([1, 1]))
    with pytest.raises(ValueError, match="binary"):
        ll.auc(np.array([0.1, 0.2]), np.array([1, 2]))
    with pytest.raises(ValueError, match="^scores and labels must have matching lengths$"):
        ll.auc(np.array([0.1, 0.2]), np.array([0, 1, 1]))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**31 - 1))
def test_auc_invariant_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=12)
    labels = rng.integers(0, 2, size=12).astype(float)
    if labels.min() == labels.max():
        labels[0] = 1.0 - labels[0]
    base = ll.auc(scores, labels)
    assert ll.auc(np.exp(scores), labels) == pytest.approx(base)
    assert ll.auc(3.0 * scores + 7.0, labels) == pytest.approx(base)


def test_nmse_shift_invariance():
    rng = np.random.default_rng(0)
    y = rng.normal(size=10)
    p = rng.normal(size=10)
    assert ll.nmse(p + 5.0, y + 5.0) == pytest.approx(ll.nmse(p, y))


def test_fold_assignments_deterministic():
    ids = tuple(f"s{i}" for i in range(10))
    a = evaluation.fold_assignments(ids, 3, seed=4)
    b = evaluation.fold_assignments(ids, 3, seed=4)
    assert a == b
    c = evaluation.fold_assignments(ids, 3, seed=5)
    assert a != c
    counts = [list(a.values()).count(f) for f in range(3)]
    assert max(counts) - min(counts) <= 1
    with pytest.raises(ValueError):
        evaluation.fold_assignments(ids[:2], 3, seed=0)


def _sim_train(seed=0, m=24):
    cfg = ll.SimConfig(
        d=4, T=12, m=m, tau=1, zero_feature_rows=(0, 1), zero_lag_columns=(1,),
        structure="independent", alpha=0.0, residual_sd=1.0, seed=seed,
    )
    ds, U, V = ll.generate_regression(cfg)
    return ds, U + V


def test_grid_cv_single_cell():
    ds, _ = _sim_train()
    spec = ll.CvSpec(lam1_grid=(0.5,), lam2_grid=(0.5,), folds=3, seed=0)
    cv = ll.grid_cv(ds, 1, "gaussian", "independent", spec)
    assert cv.best_lam1 == 0.5 and cv.best_lam2 == 0.5
    assert len(cv.table) == 3
    assert all(score is not None for *_, score in cv.table)


def test_grid_cv_duplicate_values_score_identically():
    ds, _ = _sim_train()
    spec = ll.CvSpec(lam1_grid=(0.5, 0.5), lam2_grid=(1.0,), folds=2, seed=0)
    cv = ll.grid_cv(ds, 1, "gaussian", "independent", spec)
    assert cv.mean_scores[(0.5, 1.0)] == cv.mean_scores[(0.5, 1.0)]
    scores = [s for l1, l2, f, s in cv.table]
    assert scores[:2] == scores[2:]


def test_grid_cv_tie_breaks_toward_larger_penalty():
    ds, _ = _sim_train()
    spec = ll.CvSpec(lam1_grid=(0.5, 0.5), lam2_grid=(1.0,), folds=2, seed=0)
    cv = ll.grid_cv(ds, 1, "gaussian", "independent", spec)
    # duplicated cells score identically; the sum tie-break is a no-op for
    # equal pairs but must pick a deterministic winner
    assert (cv.best_lam1, cv.best_lam2) == (0.5, 1.0)


def test_grid_cv_selected_cell_close_to_best_on_holdout():
    cfg = ll.SimConfig(
        d=4, T=16, m=30, tau=1, zero_feature_rows=(0, 1), zero_lag_columns=(1,),
        structure="independent", alpha=0.0, residual_sd=1.0, seed=2,
    )
    ds, *_ = ll.generate_regression(cfg)
    train, test = ll.split_temporal(ds, 4, 1)
    design = build_lagged(train, 1)
    l1m, l2m = ll.lambda_max(design, "gaussian")
    grid1 = tuple(float(l1m * f) for f in (1e-4, 1e-3, 1e-2))
    grid2 = tuple(float(l2m * f) for f in (1e-4, 1e-3, 1e-2))
    spec = ll.CvSpec(lam1_grid=grid1, lam2_grid=grid2, folds=3, seed=0)
    cv = ll.grid_cv(train, 1, "gaussian", "independent", spec)
    test_design = build_lagged(test, 1)
    holdout_scores = {}
    for lam1 in grid1:
        for lam2 in grid2:
            res = ll.fit(design, "gaussian", "independent", lam1, lam2, config=CV_CELL_CONFIG)
            pred = ll.predict(res, test_design)
            holdout_scores[(lam1, lam2)] = ll.nmse(pred.ravel(), test_design.y.ravel())
    best_holdout = min(holdout_scores.values())
    assert holdout_scores[(cv.best_lam1, cv.best_lam2)] <= 2.0 * best_holdout


def test_grid_cv_auc_metric_maximizes():
    cfg = ll.SimConfig(
        d=4, T=14, m=24, tau=1, zero_feature_rows=(), zero_lag_columns=(),
        structure="independent", alpha=0.0, residual_sd=1.0, seed=6,
    )
    ds, *_ = ll.generate_classification(cfg)
    spec = ll.CvSpec(lam1_grid=(0.5, 1e9), lam2_grid=(0.5, 1e9), folds=2, metric="auc", seed=0)
    cv = ll.grid_cv(ds, 1, "bernoulli", "independent", spec)
    # the cell killing both blocks predicts a constant (AUC 0.5, all
    # ties); the max-AUC rule must prefer a separating cell
    assert (cv.best_lam1, cv.best_lam2) != (1e9, 1e9)
    assert cv.mean_scores[(1e9, 1e9)] == pytest.approx(0.5)
    assert cv.mean_scores[(cv.best_lam1, cv.best_lam2)] > 0.9


def test_grid_cv_all_cells_failing_raises(monkeypatch):
    ds, _ = _sim_train()

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(alternation, "fit", boom)
    spec = ll.CvSpec(lam1_grid=(0.1,), lam2_grid=(0.1,), folds=2, seed=0)
    with pytest.raises(NumericalError, match="every cross-validation cell failed"):
        ll.grid_cv(ds, 1, "gaussian", "independent", spec)


@pytest.mark.parametrize("family", ["bernoulli", "poisson"])
def test_grid_cv_rejects_outcomes_outside_the_family_support_before_any_cell(monkeypatch, family):
    # Gaussian outcomes would fail, or run away in, every cell alike
    ds, _ = _sim_train()

    def unreachable(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(alternation, "fit", unreachable)
    spec = ll.CvSpec(lam1_grid=(0.5,), lam2_grid=(0.5,), folds=2, seed=0)
    with pytest.raises(ll.DataError, match=f"^{family} outcomes must "):
        ll.grid_cv(ds, 1, family, "independent", spec)


def test_grid_cv_auc_on_outcomes_that_are_not_binary_fails_before_any_cell(monkeypatch):
    # AUC scores would refuse every cell alike, after every cell was fit
    ds, _ = _sim_train()

    def unreachable(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(alternation, "fit", unreachable)
    spec = ll.CvSpec(lam1_grid=(0.5, 2.0), lam2_grid=(0.5, 2.0), folds=2, metric="auc", seed=0)
    with pytest.raises(ll.DataError, match="^metric 'auc' needs binary outcomes"):
        ll.grid_cv(ds, 1, "gaussian", "independent", spec)


@pytest.mark.parametrize("metric,reason", [
    ("auc", "both classes must be present"),
    ("nmse", "zero variance in actuals"),
])
def test_grid_cv_refuses_a_held_out_fold_its_metric_cannot_score_before_any_cell(monkeypatch, metric, reason):
    # 8 Bernoulli subjects whose only positives are in s0: with 2 folds at
    # seed 0 fold 0 holds out only negatives, one class of zero variance.
    # The metric would refuse that fold in every cell alike, after every
    # cell was fit
    rng = np.random.default_rng(0)
    outcomes = [np.zeros(10) for _ in range(8)]
    outcomes[0][1::2] = 1.0
    ds = ll.LongitudinalDataset(
        tuple(ll.SubjectSeries(id=f"s{i}", features=rng.normal(size=(3, 10)), outcomes=y)
              for i, y in enumerate(outcomes)),
        ("f0", "f1", "f2"),
    )
    assert evaluation.fold_assignments(ds.subject_ids, 2, 0)["s0"] == 1

    def unreachable(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(alternation, "fit", unreachable)
    spec = ll.CvSpec(lam1_grid=(0.5, 2.0), lam2_grid=(0.5, 2.0), folds=2, metric=metric, seed=0)
    with pytest.raises(ll.DataError, match=f"^held-out fold 0 cannot be scored by metric '{metric}': {reason}$"):
        ll.grid_cv(ds, 1, "bernoulli", "exchangeable", spec)


@pytest.mark.parametrize("structure,m,T,tau,folds,message", [
    # one example per subject: no alpha to estimate
    ("exchangeable", 60, 4, 3, 3, "the exchangeable working correlation needs at least two examples"),
    # 2 training subjects of 3 examples for p = 4 * 2 parameters
    ("independent", 4, 4, 1, 2, "not enough examples"),
])
def test_grid_cv_refuses_a_fold_design_no_fit_can_use_before_its_cells(
    monkeypatch, structure, m, T, tau, folds, message
):
    rng = np.random.default_rng(0)
    ds = ll.LongitudinalDataset(
        tuple(ll.SubjectSeries(id=f"s{i}", features=rng.normal(size=(4, T)), outcomes=rng.normal(size=T))
              for i in range(m)),
        tuple(f"f{j}" for j in range(4)),
    )

    def unreachable(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(alternation, "fit", unreachable)
    spec = ll.CvSpec(lam1_grid=(0.5, 2.0), lam2_grid=(0.5, 2.0), folds=folds, seed=0)
    with pytest.raises(ll.DataError, match=f"^{message}"):
        ll.grid_cv(ds, tau, "gaussian", structure, spec)


def test_grid_cv_partial_failure_marks_cell_invalid(monkeypatch):
    ds, _ = _sim_train()
    real_fit = alternation.fit

    def flaky(design, family, structure, lam1, lam2, **kwargs):
        if lam1 == 0.1:
            raise NumericalError("synthetic failure")
        return real_fit(design, family, structure, lam1, lam2, **kwargs)

    monkeypatch.setattr(alternation, "fit", flaky)
    spec = ll.CvSpec(lam1_grid=(0.1, 0.5), lam2_grid=(0.5,), folds=2, seed=0)
    cv = ll.grid_cv(ds, 1, "gaussian", "independent", spec)
    assert cv.mean_scores[(0.1, 0.5)] is None
    assert cv.best_lam1 == 0.5
    assert cv.failures == {
        (0.1, 0.5, 0): "NumericalError: synthetic failure",
        (0.1, 0.5, 1): "NumericalError: synthetic failure",
    }
    assert [row[3] is None for row in cv.table] == [True, True, False, False]


def test_grid_cv_frees_the_default_grid_design_before_fold_0(monkeypatch):
    # the whole panel's design serves only the default grids
    ds, _ = _sim_train()
    designs, alive = [], []
    build = evaluation.build_lagged

    def build_and_watch(*args):
        alive.append([ref() is not None for ref in designs])
        design = build(*args)
        designs.append(weakref.ref(design))
        return design

    monkeypatch.setattr(evaluation, "build_lagged", build_and_watch)
    spec = ll.CvSpec(lam2_grid=(0.5,), folds=2, seed=0)
    cv = ll.grid_cv(ds, 1, "gaussian", "independent", spec)
    assert len(cv.lam1_grid) == evaluation.GRID_POINTS
    # the grid design, then each fold's train and test designs
    assert len(alive) == 5 and alive[1] == [False]


def test_grid_cv_fits_every_cell_with_the_cell_config(monkeypatch):
    ds, _ = _sim_train()
    configs = []
    real_fit = alternation.fit

    def recording(*args, config=None, **kwargs):
        configs.append(config)
        return real_fit(*args, config=config, **kwargs)

    monkeypatch.setattr(alternation, "fit", recording)
    spec = ll.CvSpec(lam1_grid=(0.1, 0.5), lam2_grid=(0.5,), folds=2, seed=0)
    ll.grid_cv(ds, 1, "gaussian", "independent", spec)
    assert len(configs) == 4 and all(config is CV_CELL_CONFIG for config in configs)
    assert CV_CELL_CONFIG == ll.FitConfig(max_outer=6, inner_max_iterations=800, inner_tolerance=1e-5)


def test_lambda_max_kills_everything_at_first_step():
    ds, _ = _sim_train()
    design = build_lagged(ds, 1)
    l1m, l2m = ll.lambda_max(design, "gaussian")
    res = ll.fit(design, "gaussian", "independent", l1m * (1 + 1e-9), l2m * (1 + 1e-9))
    assert np.array_equal(res.W, np.zeros(design.coef_shape))
    # just below the bound at least one group survives
    res2 = ll.fit(design, "gaussian", "independent", l1m * 0.95, l2m * 0.95)
    assert np.any(res2.W != 0.0)


def test_default_grids_span_and_size():
    ds, _ = _sim_train()
    design = build_lagged(ds, 1)
    g1, g2 = ll.default_grids(design, "gaussian")
    assert evaluation.GRID_POINTS == 5 and evaluation.GRID_SPAN == 1e-3
    assert len(g1) == 5 and len(g2) == 5
    assert g1[0] == pytest.approx(1e-3 * g1[-1])
    assert g1[0] < g1[-1]
    l1m, l2m = ll.lambda_max(design, "gaussian")
    assert g1[-1] == pytest.approx(l1m)
    assert g2[-1] == pytest.approx(l2m)


def test_lambda_max_and_default_grids_scale_exactly_with_the_features():
    # a power-of-two rescaling of the features is exact in every product,
    # so the largest group norms, and every grid point, follow it bit for bit
    rng = np.random.default_rng(0)
    scale = 2.0 ** -50
    panels = [[], []]
    for i in range(10):
        X, y = rng.normal(size=(3, 8)), rng.normal(size=8)
        panels[0].append(ll.SubjectSeries(id=f"s{i}", features=X, outcomes=y))
        panels[1].append(ll.SubjectSeries(id=f"s{i}", features=X * scale, outcomes=y))
    design, small = (build_lagged(ll.LongitudinalDataset(tuple(p), ("a", "b", "c")), 1) for p in panels)
    assert ll.lambda_max(small, "gaussian") == tuple(scale * v for v in ll.lambda_max(design, "gaussian"))
    grids = ll.default_grids(design, "gaussian")
    assert ll.default_grids(small, "gaussian") == tuple(tuple(scale * v for v in g) for g in grids)


def test_support_lambdas_deterministic_and_positive():
    ds, _ = _sim_train()
    design = build_lagged(ds, 1)
    a = ll.support_lambdas(design, "gaussian", "independent", seed=7)
    b = ll.support_lambdas(design, "gaussian", "independent", seed=7)
    assert a == b
    assert a[0] > 0 and a[1] > 0
    assert (evaluation.SUPPORT_DRAWS, evaluation.SUPPORT_QUANTILE) == (40, 0.9)
    assert (evaluation.SUPPORT_ROW_INFLATION, evaluation.SUPPORT_COL_INFLATION) == (1.5, 2.2)


def test_cv_spec_validation():
    with pytest.raises(ValueError):
        ll.CvSpec(folds=1)
    with pytest.raises(ValueError):
        ll.CvSpec(metric="accuracy")
    with pytest.raises(ValueError):
        ll.CvSpec(lam1_grid=())


def test_no_library_path_copies_the_flat_design(monkeypatch):
    # fits, predictions, lambda_max and CV read the design's feature window
    # alone: the flat (m, n, p) copy is for checks against NumPy only
    cfg = ll.SimConfig(
        d=4, T=10, m=12, tau=2, zero_feature_rows=(0, 1), zero_lag_columns=(),
        structure="ar1", alpha=0.4, residual_sd=1.0, seed=3,
    )
    ds, *_ = ll.generate_regression(cfg)
    labels, *_ = ll.generate_classification(cfg)
    design = build_lagged(ds, 2)
    bern_design = build_lagged(labels, 2, include_lagged_outcome=True)
    # one copy of every feature value (and of the outcome series)
    assert design.X.nbytes == 8 * ds.m * ds.T * ds.d
    assert bern_design.X.nbytes == 8 * labels.m * labels.T * (labels.d + 1)

    def forbidden(self):
        raise AssertionError("flat design copied")

    monkeypatch.setattr(LaggedDesign, "flat_design", forbidden)
    for structure in ("ar1", "tridiagonal"):
        fit = ll.fit(design, "gaussian", structure, 0.5, 0.5)
        assert ll.predict(fit, design).shape == design.y.shape
    bern = ll.fit(bern_design, "bernoulli", "exchangeable", 0.5, 0.5)
    assert ll.predict(bern, bern_design).shape == bern_design.y.shape
    assert all(value > 0 for value in evaluation.lambda_max(design, "gaussian"))
    cv = ll.grid_cv(ds, 2, "gaussian", "ar1", ll.CvSpec(folds=2, seed=0))
    assert len(cv.mean_scores) == 25 and not cv.failures
