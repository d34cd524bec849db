import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import longlasso as ll
from longlasso import alternation, fista
from longlasso.correlation import STRUCTURES, make_working
from longlasso.dataset import LaggedDesign, LongitudinalDataset, SubjectSeries, build_lagged
from longlasso.families import FAMILIES, get_family


def gaussian_dataset(seed, m=8, d=3, T=12, noise=1.0):
    rng = np.random.default_rng(seed)
    W = rng.normal(0, 1, (d, 2))
    subjects = []
    for i in range(m):
        X = rng.normal(0, 1, (d, T))
        eta = np.zeros(T)
        eta[1:] = W[:, 0] @ X[:, 1:] + W[:, 1] @ X[:, :-1]
        y = eta + noise * rng.normal(size=T)
        subjects.append(SubjectSeries(id=f"s{i:02d}", features=X, outcomes=y))
    return LongitudinalDataset(tuple(subjects), tuple(f"f{j}" for j in range(d))), W


def test_independent_unpenalized_equals_single_inner_solve():
    ds, _ = gaussian_dataset(0)
    design = build_lagged(ds, 1)
    config = ll.FitConfig(inner_tolerance=1e-11, inner_max_iterations=20000)
    result = ll.fit(design, "gaussian", "independent", 0.0, 0.0, config=config)
    working = make_working("independent", 0.0, 1.0, design.n)
    single = fista.inner_solve(
        design,
        get_family("gaussian"),
        working,
        ll.InnerConfig(lam1=0.0, lam2=0.0, tolerance=1e-11, max_iterations=20000),
    )
    assert result.working.alpha == 0.0
    # the U/V split is not identifiable at lambda = 0 but W is
    flat = design.flat_design().reshape(design.n_examples, design.n_params)
    assert np.allclose(flat @ result.W.ravel(), flat @ (single.U + single.V).ravel(), atol=1e-6)
    # exactly one correlation pass: phi estimated once, then one refit
    assert result.outer_iterations == 2
    assert result.converged


def test_fit_is_deterministic():
    ds, _ = gaussian_dataset(1)
    design = build_lagged(ds, 1)
    a = ll.fit(design, "gaussian", "ar1", 0.4, 0.4, seed=5)
    b = ll.fit(design, "gaussian", "ar1", 0.4, 0.4, seed=5)
    assert np.array_equal(a.coefficients.U, b.coefficients.U)
    assert np.array_equal(a.coefficients.V, b.coefficients.V)
    assert a.working.alpha == b.working.alpha
    assert a.working.phi == b.working.phi
    assert a.trace == b.trace


def test_fit_requires_enough_examples():
    ds, _ = gaussian_dataset(2, m=1, d=3, T=8)
    design = build_lagged(ds, 1)  # 7 examples <= 6 parameters is fine; shrink further
    small = build_lagged(ds, 5)  # 3 examples, 18 parameters
    with pytest.raises(ll.DataError):
        ll.fit(small, "gaussian", "independent", 0.0, 0.0)


@pytest.mark.parametrize("family", ["bernoulli", "poisson"])
def test_fit_rejects_outcomes_outside_the_family_support(monkeypatch, family):
    # Gaussian outcomes, some negative: a Bernoulli or Poisson fit used to
    # run away silently and report convergence
    design = build_lagged(gaussian_dataset(3)[0], 1)
    assert design.y.min() < 0.0

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(fista, "inner_solve", unreachable)
    with pytest.raises(ll.DataError, match=f"^{family} outcomes must "):
        ll.fit(design, family, "independent", 0.1, 0.1)


def test_max_outer_reached_flag():
    ds, _ = gaussian_dataset(3)
    design = build_lagged(ds, 1)
    result = ll.fit(
        design, "gaussian", "ar1", 0.1, 0.1, config=ll.FitConfig(max_outer=1)
    )
    assert result.max_outer_reached
    assert not result.converged
    assert result.outer_iterations == 1


def test_capped_inner_solves_do_not_report_convergence():
    ds, _ = gaussian_dataset(1)
    design = build_lagged(ds, 1)
    result = ll.fit(
        design, "gaussian", "ar1", 0.1, 0.1, config=ll.FitConfig(inner_max_iterations=1)
    )
    # the alternation settles, but on one-iteration inner solves
    assert not result.max_outer_reached
    assert all(r.iterations == 1 and not r.converged for r in result.rounds)
    assert not result.converged


def test_rounds_record_each_outer_round():
    ds, _ = gaussian_dataset(2)
    design = build_lagged(ds, 1)
    config = ll.FitConfig()
    result = ll.fit(design, "gaussian", "ar1", 0.1, 0.1, config=config)
    rounds = result.rounds
    assert len(rounds) == result.outer_iterations > 2
    assert result.trace == tuple(r.objective_trace[-1] for r in rounds)
    assert result.inner_traces == tuple(r.objective_trace for r in rounds)
    # round 0 solves under R = I with phi = 1; round k under round k - 1's update
    assert rounds[0].working.is_identity and rounds[0].working.phi == 1.0
    assert all(r.working.structure == "ar1" for r in rounds)
    assert any(r.working.alpha != 0.0 for r in rounds[1:])
    # a Gaussian solve stops at its cap exactly when its iterate change never settled
    assert [r.converged for r in rounds] == [r.iterations < config.inner_max_iterations for r in rounds]
    assert not rounds[0].converged and rounds[-1].converged
    assert alternation.from_json_dict(alternation.to_json_dict(result)).rounds == ()


def test_predict_zero_coefficients():
    ds, _ = gaussian_dataset(4)
    design = build_lagged(ds, 1)
    res = ll.fit(design, "gaussian", "independent", 1e12, 1e12)
    assert np.allclose(ll.predict(res, design), 0.0)

    labels = LongitudinalDataset(
        tuple(
            SubjectSeries(id=s.id, features=s.features, outcomes=(s.outcomes > 0).astype(float))
            for s in ds.subjects
        ),
        ds.feature_names,
    )
    bern_design = build_lagged(labels, 1)
    bern = ll.fit(bern_design, "bernoulli", "independent", 1e12, 1e12)
    assert np.allclose(ll.predict(bern, bern_design), 0.5)


def test_predict_hand_trace():
    # one example at time 1: x_1 = 3 at lag 0, x_0 = 4 at lag 1
    series = SubjectSeries(id="a", features=[[4.0, 3.0]], outcomes=[0.0, 0.0])
    design = LaggedDesign(LongitudinalDataset((series,), ("x1",)), 1)
    result = alternation.FitResult(
        coefficients=ll.CoefficientPair(U=np.array([[1.0, 2.0]]), V=np.zeros((1, 2))),
        working=make_working("independent", 0.0, 1.0, 1),
        family="gaussian",
        tau=1,
        include_lagged_outcome=False,
        feature_names=("x1",),
        trace=(0.0,),
        converged=True,
        max_outer_reached=False,
        config={},
    )
    assert ll.predict(result, design)[0, 0] == pytest.approx(11.0)


def test_predict_shape_mismatch():
    ds, _ = gaussian_dataset(5)
    design = build_lagged(ds, 1)
    res = ll.fit(design, "gaussian", "independent", 0.0, 0.0)
    other = build_lagged(ds, 2)
    with pytest.raises(ValueError, match="does not match"):
        ll.predict(res, other)


def _result_with(U, V):
    return alternation.FitResult(
        coefficients=ll.CoefficientPair(U=U, V=V),
        working=make_working("independent", 0.0, 1.0, 2),
        family="gaussian",
        tau=U.shape[1] - 1,
        include_lagged_outcome=False,
        feature_names=tuple(f"f{i}" for i in range(U.shape[0])),
        trace=(0.0,),
        converged=True,
        max_outer_reached=False,
        config={},
    )


def test_selected_support_examples():
    U = np.zeros((9, 3))
    U[7] = [1.0, 0.0, 2.0]
    V = np.zeros((9, 5))
    V[:, 0] = 1.0
    V[:, 2] = 2.0
    V[:, 3] = 0.5
    res = _result_with(U, np.zeros((9, 3)))
    feats, _ = ll.selected_support(res)
    assert feats == (7,)

    res = _result_with(np.zeros((9, 5)), V)
    _, lags = ll.selected_support(res)
    assert lags == (0, 2, 3)

    res = _result_with(np.zeros((9, 5)), np.zeros((9, 5)))
    feats, lags = ll.selected_support(res)
    assert feats == ()
    assert lags == ()

    with pytest.raises(ValueError):
        ll.selected_support(res, rel_tol=1.0)


def test_unpenalized_fit_matches_least_squares_predictions():
    ds, _ = gaussian_dataset(6, m=10, T=14)
    design = build_lagged(ds, 1)
    config = ll.FitConfig(inner_tolerance=1e-12, inner_max_iterations=50000)
    res = ll.fit(design, "gaussian", "independent", 0.0, 0.0, config=config)
    flat = design.flat_design().reshape(design.n_examples, design.n_params)
    w_ls, *_ = np.linalg.lstsq(flat, design.y.ravel(), rcond=None)
    assert np.linalg.norm(ll.predict(res, design).ravel() - flat @ w_ls) <= 1e-6


def test_outer_loop_sanity_on_correlated_data():
    cfg = ll.SimConfig(
        d=6, T=15, m=60, tau=1, zero_feature_rows=(0, 1), zero_lag_columns=(),
        structure="ar1", alpha=0.6, residual_sd=1.0, seed=8,
    )
    ds, _, _ = ll.generate_regression(cfg)
    design = build_lagged(ds, 1)
    res = ll.fit(design, "gaussian", "ar1", 1.0, 1.0)
    assert np.all(np.isfinite(res.trace))
    assert res.converged or res.max_outer_reached
    assert 0.3 <= res.working.alpha <= 0.9


def test_support_refit_stability():
    # V fully masked: the true W is row-sparse, so unselected features
    # carry no signal at all
    cfg = ll.SimConfig(
        d=10, T=20, m=80, tau=1, zero_feature_rows=tuple(range(6)), zero_lag_columns=(0, 1),
        structure="independent", alpha=0.0, residual_sd=1.0, seed=9,
    )
    ds, U_true, V_true = ll.generate_regression(cfg)
    train, test = ll.split_temporal(ds, 4, 1)
    design = build_lagged(train, 1)
    lam1, lam2 = ll.support_lambdas(design, "gaussian", "independent", seed=3)
    res = ll.fit(design, "gaussian", "independent", lam1, lam2)
    feats, _ = ll.selected_support(res, rel_tol=1e-3)
    assert feats, "expected a nonempty selected feature set"
    test_design = build_lagged(test, 1)
    full_nmse = ll.nmse(ll.predict(res, test_design).ravel(), test_design.y.ravel())

    keep = list(feats)
    reduced_train = LongitudinalDataset(
        tuple(
            SubjectSeries(id=s.id, features=s.features[keep], outcomes=s.outcomes, time_start=s.time_start)
            for s in train.subjects
        ),
        tuple(train.feature_names[i] for i in keep),
    )
    reduced_test = LongitudinalDataset(
        tuple(
            SubjectSeries(id=s.id, features=s.features[keep], outcomes=s.outcomes, time_start=s.time_start)
            for s in test.subjects
        ),
        tuple(test.feature_names[i] for i in keep),
    )
    reduced_design = build_lagged(reduced_train, 1)
    reduced_res = ll.fit(reduced_design, "gaussian", "independent", lam1, lam2)
    reduced_eval = build_lagged(reduced_test, 1)
    reduced_nmse = ll.nmse(ll.predict(reduced_res, reduced_eval).ravel(), reduced_eval.y.ravel())
    assert abs(full_nmse - reduced_nmse) < 1e-3


def test_exchangeable_fit_recovers_alpha():
    cfg = ll.SimConfig(
        d=5, T=16, m=120, tau=1, zero_feature_rows=(0,), zero_lag_columns=(),
        structure="exchangeable", alpha=0.45, residual_sd=1.0, seed=21,
    )
    ds, _, _ = ll.generate_regression(cfg)
    design = build_lagged(ds, 1)
    res = ll.fit(design, "gaussian", "exchangeable", 0.5, 0.5)
    assert res.converged
    assert abs(res.working.alpha - 0.45) <= 0.1
    assert 0.5 <= res.working.phi <= 1.5


def test_poisson_fit_through_alternation():
    rng = np.random.default_rng(12)
    m, d, T = 30, 3, 12
    W = rng.normal(0, 0.3, (d, 2))
    subjects = []
    for i in range(m):
        X = rng.normal(0, 1, (d, T))
        eta = np.zeros(T)
        eta[1:] = W[:, 0] @ X[:, 1:] + W[:, 1] @ X[:, :-1]
        y = rng.poisson(np.exp(np.clip(eta, -10, 10))).astype(float)
        subjects.append(SubjectSeries(id=f"s{i:02d}", features=X, outcomes=y))
    ds = LongitudinalDataset(tuple(subjects), tuple(f"f{j}" for j in range(d)))
    design = build_lagged(ds, 1)
    res = ll.fit(design, "poisson", "exchangeable", 0.5, 0.5)
    assert res.converged or res.max_outer_reached
    mu = ll.predict(res, design)
    assert np.all(mu > 0)
    assert np.all(np.isfinite(mu))
    # fitted rates track the truth direction
    eta_true = fista.linear_predictor(design, W)
    assert np.corrcoef(np.log(mu).ravel(), eta_true.ravel())[0, 1] > 0.7


@functools.lru_cache(maxsize=None)
def _strong_design(family, m=40, d=6, T=12, tau=2):
    """A lagged design whose outcomes follow three rows of W drawn from N(0, 2^2)."""
    rng = np.random.default_rng(7)
    W = np.zeros((d, tau + 1))
    W[:3] = rng.normal(0.0, 2.0, (3, tau + 1))
    subjects = []
    for i in range(m):
        X = rng.normal(0.0, 1.0, (d, T))
        eta = np.zeros(T)
        for lag in range(tau + 1):
            eta[tau:] += W[:, lag] @ X[:, tau - lag:T - lag]
        if family == "bernoulli":
            y = (rng.uniform(size=T) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        else:
            y = rng.poisson(np.exp(eta)).astype(float)
        subjects.append(SubjectSeries(id=f"s{i:02d}", features=X, outcomes=y))
    return build_lagged(LongitudinalDataset(tuple(subjects), tuple(f"f{j}" for j in range(d))), tau)


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("family", ["poisson", "bernoulli"])
def test_scoring_fit_converges_in_few_rounds_on_a_strong_signal(family, lam):
    # the Fisher-scoring loop converges in 3 outer rounds here, within 1e-4
    # of a tight refit; one scoring step per inner solve takes 8-10 rounds,
    # or stops without converging.  The refit's tolerance is the tightest at
    # which the Poisson fit at lam = 1 still converges: at 1e-9 it runs to
    # the outer cap
    design = _strong_design(family)
    res = ll.fit(design, family, "exchangeable", lam, lam)
    assert res.converged and res.outer_iterations <= 6
    tight = ll.fit(design, family, "exchangeable", lam, lam, config=ll.FitConfig(inner_tolerance=1e-8))
    assert tight.converged
    assert np.linalg.norm(res.W - tight.W) <= 1e-3 * np.linalg.norm(tight.W)


def test_fit_result_json_round_trip():
    ds, _ = gaussian_dataset(10)
    design = build_lagged(ds, 1)
    res = ll.fit(design, "gaussian", "ar1", 0.3, 0.5, seed=11)
    text = json.dumps(alternation.to_json_dict(res), sort_keys=True, indent=2)
    assert text == json.dumps(alternation.to_json_dict(res), sort_keys=True, indent=2)
    payload = json.loads(text)
    assert payload["schema"] == alternation.FIT_RESULT_SCHEMA
    assert payload["shape"] == [design.d_eff, design.n_lags]
    back = alternation.from_json_dict(payload)
    assert np.allclose(back.W, res.W)
    assert back.working.R.shape == res.working.R.shape
    assert back.working.alpha == pytest.approx(res.working.alpha)
    assert back.working.phi == pytest.approx(res.working.phi)
    assert back.feature_names == res.feature_names
    assert np.allclose(ll.predict(back, design), ll.predict(res, design))
    # a saved model loads back to the object it was written from: every
    # field but the per-round solve records, which the JSON does not keep
    for case in itertools.product(("gaussian", "bernoulli"), STRUCTURES, (False, True)):
        family, structure, lagged = case
        design = build_lagged(_panel(3, family), 1, lagged)
        res = ll.fit(design, family, structure, 0.1, 0.2, config=ll.FitConfig(max_outer=3), seed=5)
        back = alternation.from_json_dict(json.loads(json.dumps(alternation.to_json_dict(res))))
        for field in dataclasses.fields(alternation.FitResult):
            if field.name == "coefficients":
                for part in ("U", "V", "lam1", "lam2"):
                    assert np.array_equal(getattr(back.coefficients, part),
                                          getattr(res.coefficients, part)), (case, part)
            elif field.name != "rounds":
                assert getattr(back, field.name) == getattr(res, field.name), (case, field.name)


def _panel(seed, family, m=6, d=2, T=8):
    """A small random panel with outcomes of the family's kind."""
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(m):
        X = rng.normal(0, 1, (d, T))
        if family == "bernoulli":
            y = (rng.uniform(size=T) < 1.0 / (1.0 + np.exp(-X[0]))).astype(float)
        elif family == "poisson":
            y = rng.poisson(np.exp(0.3 * X[0])).astype(float)
        else:
            y = X[0] + rng.normal(size=T)
        subjects.append(SubjectSeries(id=f"s{i}", features=X, outcomes=y))
    return LongitudinalDataset(tuple(subjects), tuple(f"f{j}" for j in range(d)))


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(["gaussian", "bernoulli", "poisson"]),
    structure=st.sampled_from(["independent", "exchangeable", "tridiagonal", "ar1"]),
    lagged=st.booleans(),
    seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
    panel=st.integers(0, 2**16),
)
def test_model_round_trip_is_exact(family, structure, lagged, seed, panel):
    # dump, load and dump give the same text, and the loaded model predicts
    # exactly what the fitted one does
    design = build_lagged(_panel(panel, family), 1, lagged)
    config = ll.FitConfig(max_outer=3, inner_max_iterations=300)
    res = ll.fit(design, family, structure, 0.1, 0.1, config=config, seed=seed)
    text = json.dumps(alternation.to_json_dict(res), sort_keys=True, indent=2)
    back = alternation.from_json_dict(json.loads(text))
    assert json.dumps(alternation.to_json_dict(back), sort_keys=True, indent=2) == text
    assert back.seed == seed and back.include_lagged_outcome == lagged
    assert np.array_equal(ll.predict(back, design), ll.predict(res, design))


def _unit_panel(seed, family, outcome_scale=1.0, feature_scale=1.0):
    """30 subjects, d = 4, T = 12, eta = 2 x0(t) - x1(t-1), in the given units."""
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(30):
        X = rng.normal(0, 1, (4, 12))
        eta = 2.0 * X[0]
        eta[1:] -= X[1, :-1]
        if family == "bernoulli":
            y = (rng.uniform(size=12) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        else:
            y = eta + rng.normal(size=12)
        subjects.append(SubjectSeries(id=f"s{i}", features=X * feature_scale, outcomes=y * outcome_scale))
    return build_lagged(LongitudinalDataset(tuple(subjects), tuple(f"f{j}" for j in range(4))), 2)


@settings(max_examples=10, deadline=None)
@given(
    family=st.just("gaussian"),
    structure=st.sampled_from(STRUCTURES),
    lam=st.sampled_from([0.0, 0.3, 1.0]),
    scaled=st.sampled_from(["outcomes", "features"]),
    k=st.integers(0, 10),
    panel=st.integers(0, 2**16),
)
@example(family="bernoulli", structure="exchangeable", lam=0.3, scaled="features", k=8, panel=0)
def test_fit_is_unit_equivariant(family, structure, lam, scaled, k, panel):
    # a change of units only rescales the fit: outcomes times s with the
    # penalties times s, or features over s with the penalties over s, give
    # W times s and the same alpha; phi goes as 1 / s^2 with the outcomes.
    # The iterate-change rule's 1 + ||U|| + ||V|| is not scale-free, so at
    # k = 0 the alternation may settle a round apart; on this panel that
    # moves W by a few 1e-6
    s = 10.0 ** k
    if scaled == "outcomes":
        design, lam_s, phi_s = _unit_panel(panel, family, outcome_scale=s), lam * s, 1.0 / s**2
    else:
        design, lam_s, phi_s = _unit_panel(panel, family, feature_scale=1.0 / s), lam / s, 1.0
    config = ll.FitConfig(inner_tolerance=1e-10, inner_max_iterations=20000)
    base = ll.fit(_unit_panel(panel, family), family, structure, lam, lam, config=config)
    res = ll.fit(design, family, structure, lam_s, lam_s, config=config)
    assert np.linalg.norm(res.W / s - base.W) <= 1e-4 * np.linalg.norm(base.W)
    assert res.working.alpha == pytest.approx(base.working.alpha, abs=1e-4)
    assert res.working.phi == pytest.approx(base.working.phi * phi_s, rel=1e-4)


@functools.lru_cache(maxsize=None)
def _saved_model(structure):
    """A small fitted model's design and its model JSON text."""
    design = build_lagged(_panel(7, "gaussian", T=10), 1)
    config = ll.FitConfig(max_outer=3, inner_max_iterations=300)
    res = ll.fit(design, "gaussian", structure, 0.1, 0.1, config=config)
    return design, json.dumps(alternation.to_json_dict(res))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


# the keys that hold JSON numbers: a boolean there, also inside an array, is refused
_NUMBER_KEYS = {"seed", "U", "V", "shape", "trace"} | {
    key for key, kind in alternation._MODEL_KEYS.items() if kind in (int, (int, float))
}


def _booleans(value) -> int:
    """The JSON booleans in a value, inside arrays at any depth."""
    return (value is True or value is False) + (sum(map(_booleans, value)) if isinstance(value, list) else 0)


def _model_value(key, shape):
    """JSON values for one model key, with values of the key's own domain mixed in.

    Every key that holds numbers also draws booleans, alone and in arrays.
    """
    if key == "n":
        # R is n x n but predict never reads it: a large n must cost nothing
        return st.integers(1, 60) | st.integers(1, 10**12) | st.integers(1, 10**400) | st.booleans()
    if key in ("U", "V"):
        row = st.lists(st.floats(-5, 5) | st.booleans() | _JSON_VALUES, min_size=shape[1], max_size=shape[1])
        return _JSON_VALUES | st.lists(row, min_size=shape[0], max_size=shape[0])
    domains = {"family": st.sampled_from(FAMILIES) | st.text(max_size=8),
               "structure": st.sampled_from(STRUCTURES), "alpha": st.floats(-1.0, 1.0),
               "phi": st.floats()}
    values = domains[key] | _JSON_VALUES if key in domains else _JSON_VALUES
    if key in _NUMBER_KEYS:
        values = values | st.booleans() | st.lists(st.integers(-3, 70) | st.booleans(), max_size=3)
    return values


@pytest.mark.parametrize("key", [*alternation._MODEL_KEYS, "schema", "seed", "extra"])
@settings(max_examples=40, deadline=None)
@given(structure=st.sampled_from(STRUCTURES), data=st.data())
def test_model_key_mutations_are_refused_or_predict_from_the_payload(key, structure, data):
    # a model JSON with one key deleted or replaced either loads as a data
    # error (exit 2) or predicts the family's mean of X (U + V) from its own
    # keys and writes back as standard JSON
    design, text = _saved_model(structure)
    payload = json.loads(text)
    if key in payload and data.draw(st.booleans(), label="delete"):
        del payload[key]
    else:
        payload[key] = data.draw(_model_value(key, design.coef_shape), label="value")
    try:
        result = alternation.from_json_dict(payload)
    except ValueError:
        return
    assert not (key in _NUMBER_KEYS and _booleans(payload.get(key)))
    W = np.asarray(payload["U"], dtype=float) + np.asarray(payload["V"], dtype=float)
    expected = get_family(payload["family"]).mean(fista.linear_predictor(design, W))
    assert np.array_equal(ll.predict(result, design), expected)
    json.dumps(alternation.to_json_dict(result), allow_nan=False)


@pytest.mark.parametrize("where", ["tau", "n", "outer_iterations", "seed", "lambda1", "alpha", "phi",
                                   "U.0.0", "V.1.1", "trace.0"])
def test_from_json_dict_refuses_a_boolean_for_a_number(where):
    # ``where`` is a key, then the indices of one entry of its array
    key, *index = where.split(".")
    payload = json.loads(_saved_model("ar1")[1])
    # one round, so that outer_iterations = true would agree with the trace
    payload["trace"], payload["outer_iterations"] = payload["trace"][:1], 1
    alternation.from_json_dict(payload)
    target, last = payload, key
    for step in index:
        target, last = target[last], int(step)
    target[last] = True
    with pytest.raises(ll.DataError, match=f"model JSON key '{key}' has an invalid value"):
        alternation.from_json_dict(payload)


@pytest.mark.parametrize("structure", ["exchangeable", "tridiagonal", "ar1"])
def test_fit_refuses_one_example_per_subject_under_a_correlated_structure_before_any_solve(monkeypatch, structure):
    # tau = T - 1 leaves one example per subject: no alpha to estimate
    design = build_lagged(_panel(7, "gaussian", m=20, T=4), 3)
    assert design.n == 1
    ll.fit(design, "gaussian", "independent", 0.1, 0.1)

    def unreachable(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(fista, "inner_solve", unreachable)
    with pytest.raises(ll.DataError, match=f"^the {structure} working correlation needs at least two examples"):
        ll.fit(design, "gaussian", structure, 0.1, 0.1)


@pytest.mark.parametrize("names", [[None, math.inf], ["f0", 5], ["f0", "f0"]], ids=["null-inf", "number", "repeated"])
def test_from_json_dict_refuses_feature_names_other_than_unique_strings(names):
    # each would load: the first then fails to write back as standard JSON,
    # the others fail at the read of a dataset's columns by name
    payload = json.loads(_saved_model("ar1")[1])
    payload["feature_names"][:2] = names
    with pytest.raises(ll.DataError, match="model JSON key 'feature_names' must hold unique strings"):
        alternation.from_json_dict(payload)


def test_from_json_dict_rejects_bad_schema():
    with pytest.raises(ll.DataError):
        alternation.from_json_dict({"schema": "other"})
