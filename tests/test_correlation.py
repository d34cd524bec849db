import numpy as np
import pytest

from longlasso import correlation
from longlasso.correlation import (
    STRUCTURES,
    alpha_bounds,
    build_R,
    estimate_alpha,
    estimate_phi,
    make_working,
    pearson_residuals,
    spd_cholesky,
)
from longlasso.errors import NumericalError


def test_build_R_examples():
    R = build_R("ar1", 0.5, 3)
    assert np.allclose(R, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]])
    assert np.array_equal(build_R("independent", 0.7, 4), np.eye(4))
    T = build_R("tridiagonal", 0.3, 3)
    assert np.allclose(T, [[1, 0.3, 0], [0.3, 1, 0.3], [0, 0.3, 1]])
    E = build_R("exchangeable", 0.2, 3)
    assert np.allclose(E, [[1, 0.2, 0.2], [0.2, 1, 0.2], [0.2, 0.2, 1]])


def test_build_R_domain_errors():
    with pytest.raises(ValueError):
        build_R("ar1", 1.0, 3)
    with pytest.raises(ValueError):
        build_R("exchangeable", -0.6, 3)  # needs alpha > -1/(n-1) = -0.5
    with pytest.raises(ValueError):
        build_R("markov", 0.1, 3)
    with pytest.raises(ValueError, match="^n must be at least 1$"):
        build_R("ar1", 0.1, 0)


def test_tridiagonal_indefinite_fails_after_one_cholesky(monkeypatch):
    # eigenvalues 1 + 2*alpha*cos(k*pi/4): alpha = 0.8 > 1/sqrt(2) is indefinite
    calls = []
    real = correlation.spl.cho_factor

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(correlation.spl, "cho_factor", counted)
    with pytest.raises(NumericalError, match="^working correlation is not positive definite$"):
        make_working("tridiagonal", 0.8, 1.0, 3)
    assert len(calls) == 1


@pytest.mark.parametrize("structure", STRUCTURES)
def test_every_structure_factors_at_both_alpha_bounds(structure):
    # no factorization is retried, so R and R^{-1} at the clipping range's
    # ends must be positive definite as they are
    for n in range(2, 61):
        for alpha in alpha_bounds(structure, n):
            working = make_working(structure, alpha, 1.0, n)
            for M in (working.R, working.R_inv):
                C = spd_cholesky(M)
                assert np.allclose(C @ C.T, M, rtol=0.0, atol=1e-8 * np.abs(M).max()), (n, alpha)


def test_working_correlation_inverse():
    wk = make_working("ar1", 0.6, 2.0, 5)
    assert np.allclose(wk.R @ wk.R_inv, np.eye(5), atol=1e-10)
    assert wk.phi == 2.0
    assert not wk.is_identity
    assert make_working("independent", 0.0, 1.0, 4).is_identity


def test_ar1_inverse_is_tridiagonal():
    wk = make_working("ar1", 0.64, 1.0, 8)
    off = np.abs(np.triu(wk.R_inv, k=2))
    assert off.max() <= 1e-8 * np.abs(wk.R_inv).max()


def test_R_symmetric_unit_diagonal_all_structures():
    for structure, alpha in [("independent", 0.0), ("exchangeable", 0.3), ("tridiagonal", 0.4), ("ar1", -0.7)]:
        R = build_R(structure, alpha, 6)
        assert np.array_equal(R, R.T)
        assert np.allclose(np.diag(R), 1.0)


def test_pearson_residual_examples():
    y = np.array([[1.0, 2.0]])
    mu = np.array([[1.0, 2.0]])
    assert np.allclose(pearson_residuals(y, mu, np.ones((1, 2))), 0.0)

    y = np.array([[1.0, -1.0]])
    mu = np.zeros((1, 2))
    assert np.allclose(pearson_residuals(y, mu, np.ones((1, 2))), [[1.0, -1.0]])

    # bernoulli: (1 - 0.8) / sqrt(0.8 * 0.2) = 0.5
    gamma = pearson_residuals(np.array([[1.0]]), np.array([[0.8]]), np.array([[0.16]]))
    assert gamma[0, 0] == pytest.approx(0.5)


def test_pearson_degenerate_variance():
    with pytest.raises(NumericalError, match="degenerate variance"):
        pearson_residuals(np.ones((1, 2)), np.zeros((1, 2)), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="^y and mu must have matching shapes$"):
        pearson_residuals(np.ones((1, 2)), np.zeros((2, 1)), 1.0)
    with pytest.raises(NumericalError, match="^fitted values are not finite$"):
        pearson_residuals(np.ones((1, 2)), np.array([[0.0, np.inf]]), 1.0)


@pytest.mark.parametrize("gamma, n_params, message", [
    (np.ones(4), 0, r"gamma must be \(subjects, times\)"),
    (np.ones((5, 1)), 0, "alpha estimation needs at least two time points"),
    (np.ones((2, 3)), 6, "over-parameterized correlation estimate"),
])
def test_estimate_alpha_refusals(gamma, n_params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        estimate_alpha(gamma, "exchangeable", n_params, 1.0)


def test_estimate_phi_examples():
    gamma = np.ones((4, 5))  # all gamma^2 = 1, N = 20
    assert estimate_phi(gamma, 3) == pytest.approx((20 - 3) / 20)
    assert estimate_phi(2 * gamma, 3) == pytest.approx((20 - 3) / 80)
    with pytest.raises(ValueError):
        estimate_phi(np.zeros((4, 5)), 3)
    with pytest.raises(ValueError, match="over-parameterized"):
        estimate_phi(gamma, 20)


def test_estimate_phi_is_the_moment_ratio_for_large_residuals():
    # residuals in large units give a small scale, (N - p) / sum(gamma^2) exactly
    gamma = np.random.default_rng(0).normal(0.0, 1e5, (6, 10))
    assert estimate_phi(gamma, 4) == (60 - 4) / float(np.sum(gamma**2))


def test_estimate_alpha_closed_form_hand_case():
    # two subjects, two times, all residuals one: r_12 = n * sum(g1*g2) / (N-p)
    gamma = np.ones((2, 2))
    # n=2, N=4, p=2: r_12 = 2*2/2 = 2, scaled by phi
    assert estimate_alpha(gamma, "exchangeable", 2, 0.3) == pytest.approx(0.6)


def test_estimate_alpha_first_offdiagonal_band():
    gamma = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    # gamma^T gamma first off-diagonal = (1, 1); n=3, N=6, p=0
    # r = 3/6 * [[1,1,0],[1,2,1],[0,1,1]]; band mean = 0.5, phi = 1
    assert estimate_alpha(gamma, "ar1", 0, 1.0) == pytest.approx(0.5)
    assert estimate_alpha(gamma, "tridiagonal", 0, 1.0) == pytest.approx(0.5)
    assert estimate_alpha(gamma, "independent", 0, 1.0) == 0.0


def test_estimate_alpha_near_zero_for_iid_residuals():
    rng = np.random.default_rng(11)
    gamma = rng.standard_normal((500, 10))
    phi = estimate_phi(gamma, 12)
    for structure in ("exchangeable", "tridiagonal", "ar1"):
        assert abs(estimate_alpha(gamma, structure, 12, phi)) <= 0.05


def test_estimate_alpha_clipping():
    gamma = np.ones((3, 4)) * 2.0  # perfectly correlated residuals
    phi = estimate_phi(gamma, 1)
    lo, hi = alpha_bounds("exchangeable", 4)
    assert estimate_alpha(gamma, "exchangeable", 1, phi) <= hi
    # tridiagonal range additionally bounded by positive definiteness
    lo_t, hi_t = alpha_bounds("tridiagonal", 4)
    assert hi_t < 0.65
    assert estimate_alpha(gamma, "tridiagonal", 1, phi) <= hi_t


def test_estimate_alpha_consistent_for_exchangeable_residuals():
    # mean absolute error shrinks as the subject count grows
    alpha = 0.45
    sizes = (50, 100, 200, 400)
    n = 6
    R = build_R("exchangeable", alpha, n)
    chol = np.linalg.cholesky(R)
    means = []
    for m in sizes:
        errs = []
        for seed in range(20):
            rng = np.random.default_rng(1000 * m + seed)
            gamma = rng.standard_normal((m, n)) @ chol.T
            phi = estimate_phi(gamma, 2)
            errs.append(abs(estimate_alpha(gamma, "exchangeable", 2, phi) - alpha))
        means.append(np.mean(errs))
    assert all(a > b for a, b in zip(means, means[1:]))
