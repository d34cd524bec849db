import json

import numpy as np
import pytest

import longlasso as ll
from longlasso import fista
from longlasso.dataset import build_lagged
from longlasso.simulate import SimConfig, generate_classification, generate_regression


def small_cfg(**overrides):
    base = dict(
        d=4, T=10, m=6, tau=2, zero_feature_rows=(0,), zero_lag_columns=(1,),
        structure="ar1", alpha=0.5, residual_sd=1.0, seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(tau=10)
    with pytest.raises(ValueError):
        small_cfg(zero_feature_rows=(4,))
    with pytest.raises(ValueError):
        small_cfg(zero_lag_columns=(3,))
    with pytest.raises(ValueError):
        small_cfg(residual_sd=0.0)
    with pytest.raises(ValueError, match="^d and m must be positive$"):
        small_cfg(d=0, zero_feature_rows=())
    with pytest.raises(ValueError, match="^T must be at least 2$"):
        small_cfg(T=1)


@pytest.mark.parametrize("field", ["feature_sd", "coef_sd", "residual_sd", "alpha"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        small_cfg(**{field: value})


def test_masked_entries_exactly_zero():
    _, U, V = generate_regression(small_cfg())
    assert np.array_equal(U[0], np.zeros(3))
    assert np.array_equal(V[:, 1], np.zeros(4))
    assert np.any(U[1:] != 0)
    assert np.any(V[:, [0, 2]] != 0)


def test_noiseless_limit_reproduced_by_prediction():
    cfg = small_cfg(residual_sd=1e-9)
    ds, U, V = generate_regression(cfg)
    design = build_lagged(ds, cfg.tau)
    eta = fista.linear_predictor(design, U + V)
    assert np.allclose(eta, design.y, atol=1e-6)


def test_default_protocol_shapes():
    cfg = SimConfig(seed=1)
    assert (cfg.d, cfg.T, cfg.m, cfg.tau) == (200, 30, 400, 4)
    assert cfg.zero_feature_rows == tuple(range(150))
    assert cfg.zero_lag_columns == (1, 4)
    ds, U, V = generate_regression(cfg)
    assert (ds.m, ds.d, ds.T) == (400, 200, 30)
    assert U.shape == (200, 5)
    assert build_lagged(ds, 4).n == 26


def test_determinism_and_seed_sensitivity():
    a1, Ua, Va = generate_regression(small_cfg())
    a2, *_ = generate_regression(small_cfg())
    b, *_ = generate_regression(small_cfg(seed=1))
    for s1, s2 in zip(a1.subjects, a2.subjects):
        assert np.array_equal(s1.features, s2.features)
        assert np.array_equal(s1.outcomes, s2.outcomes)
    assert not np.array_equal(a1.subjects[0].features, b.subjects[0].features)


def test_coef_seed_pins_truth_across_data_seeds():
    _, U1, V1 = generate_regression(small_cfg(seed=10, coef_seed=99))
    ds2, U2, V2 = generate_regression(small_cfg(seed=11, coef_seed=99))
    assert np.array_equal(U1, U2)
    assert np.array_equal(V1, V2)
    ds1, *_ = generate_regression(small_cfg(seed=10, coef_seed=99))
    assert not np.array_equal(ds1.subjects[0].outcomes, ds2.subjects[0].outcomes)


def test_ar1_residual_autocorrelation():
    cfg = SimConfig(
        d=2, T=21, m=600, tau=0, zero_feature_rows=(), zero_lag_columns=(),
        structure="ar1", alpha=0.64, residual_sd=2.0, seed=3,
    )
    ds, U, V = generate_regression(cfg)
    design = build_lagged(ds, 0)
    resid = design.y - fista.linear_predictor(design, U + V)
    a = resid[:, :-1].ravel()
    b = resid[:, 1:].ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr - 0.64) <= 0.05


def test_variance_grows_with_residual_sd():
    variances = []
    for sd in (1.0, 2.0, 3.0):
        ds, *_ = generate_regression(small_cfg(residual_sd=sd, seed=5))
        variances.append(np.var(np.concatenate([s.outcomes for s in ds.subjects])))
    assert variances[0] < variances[1] < variances[2]


def test_classification_labels_binary_and_deterministic():
    cfg = small_cfg()
    ds1, *_ = generate_classification(cfg)
    ds2, *_ = generate_classification(cfg)
    values = np.concatenate([s.outcomes for s in ds1.subjects])
    assert set(np.unique(values)) <= {0.0, 1.0}
    for s1, s2 in zip(ds1.subjects, ds2.subjects):
        assert np.array_equal(s1.outcomes, s2.outcomes)


def test_classification_saturated_labels_follow_sign():
    # with sizeable coefficients the latent outcome is far from zero and
    # the logistic mean saturates, so labels match its sign
    cfg = SimConfig(
        d=6, T=12, m=20, tau=1, zero_feature_rows=(), zero_lag_columns=(),
        structure="independent", alpha=0.0, residual_sd=1.0, seed=7,
    )
    reg, U, V = generate_regression(cfg)
    cls, *_ = generate_classification(cfg)
    for sr, sc in zip(reg.subjects, cls.subjects):
        big = np.abs(sr.outcomes) > 40.0
        assert np.array_equal(sc.outcomes[big], (sr.outcomes[big] > 0).astype(float))


def test_classification_balanced_at_zero_signal():
    cfg = SimConfig(
        d=2, T=50, m=2000, tau=0, zero_feature_rows=(0, 1), zero_lag_columns=(),
        structure="independent", alpha=0.0, residual_sd=1e-6, seed=8,
    )
    ds, *_ = generate_classification(cfg)
    mean = np.mean(np.concatenate([s.outcomes for s in ds.subjects]))
    assert 0.495 <= mean <= 0.505


def test_features_shared_between_regression_and_classification():
    cfg = small_cfg()
    reg, *_ = generate_regression(cfg)
    cls, *_ = generate_classification(cfg)
    for sr, sc in zip(reg.subjects, cls.subjects):
        assert np.array_equal(sr.features, sc.features)


@pytest.mark.parametrize("generate", [generate_regression, generate_classification])
def test_independent_structure_ignores_alpha(generate):
    def panel(**overrides):
        ds, *_ = generate(small_cfg(**overrides))
        return [(s.features.tobytes(), s.outcomes.tobytes()) for s in ds.subjects]

    reference = panel(structure="independent", alpha=0.0)
    for alpha in (0.5, -0.9, 7.0):
        assert panel(structure="independent", alpha=alpha) == reference
    # at alpha = 0 every structure's R is the identity
    for structure in ("exchangeable", "ar1", "tridiagonal"):
        assert panel(structure=structure, alpha=0.0) == reference


@pytest.mark.parametrize("labels", [False, True])
def test_subject_stream_draw_order(labels):
    # per subject: features, then residual innovations, then label uniforms
    cfg = small_cfg(structure="independent", residual_sd=0.5, seed=4)
    ds, U, V = (generate_classification if labels else generate_regression)(cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.m + 1)[1:]
    W = U + V
    for s, stream in zip(ds.subjects, streams):
        rng = np.random.default_rng(stream)
        ext = rng.normal(0.0, cfg.feature_sd, size=(cfg.d, cfg.T + cfg.tau))
        eta = sum(W[:, k] @ ext[:, cfg.tau - k : cfg.tau - k + cfg.T] for k in range(cfg.tau + 1))
        y = eta + cfg.residual_sd * rng.normal(0.0, 1.0, size=cfg.T)
        if labels:
            y = (rng.uniform(size=cfg.T) < 1.0 / (1.0 + np.exp(-y))).astype(float)
        assert np.array_equal(s.features, ext[:, cfg.tau :])
        np.testing.assert_allclose(s.outcomes, y, rtol=1e-12, atol=1e-12)


def test_truth_config_rebuilds_the_config():
    cfg = small_cfg(coef_seed=5, structure="exchangeable", alpha=-0.1)
    ds, U, V = generate_regression(cfg)
    truth = json.loads(json.dumps(ll.simulate.truth_metadata(cfg, U, V, "gaussian")))
    assert SimConfig(**truth["config"]) == cfg
    assert truth["config"]["zero_feature_rows"] == [0]
