import math
import sys
import threading
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, eigh

import longlasso as ll
from longlasso import fista
from longlasso.correlation import alpha_bounds, make_working, spd_cholesky
from longlasso.dataset import LaggedDesign, LongitudinalDataset, SubjectSeries, build_lagged
from longlasso.errors import NumericalError
from longlasso.families import get_family
from longlasso.fista import (
    InnerConfig,
    InnerState,
    build_gram,
    fista_step,
    gradient,
    inner_solve,
    lipschitz_upper,
    momentum_update,
    smooth_loss,
)
from longlasso.penalty import norm_12_cols, norm_12_rows, prox_col_groups, prox_row_groups

GAUSS = get_family("gaussian")


def single_example_design(x=2.0, y=1.0):
    return LaggedDesign(
        tau=0,
        include_lagged_outcome=False,
        subject_ids=("a",),
        feature_names=("x1",),
        times=np.array([0]),
        subject_starts=(1,),
        X=np.array([[[[x]]]]),
        y=np.array([[y]]),
    )


def random_panel(seed, m=4, d=3, T=8, family="gaussian", constant=False):
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(m):
        X = rng.normal(0, 1, (d, T))
        if constant:
            # rows constant in time: the exchangeable R^{-1} near alpha = 1
            # cancels them almost exactly
            X = np.repeat(X[:, :1], T, axis=1)
        if family == "bernoulli":
            y = (rng.uniform(size=T) < 0.5).astype(float)
        elif family == "poisson":
            y = rng.poisson(1.5, T).astype(float)
        else:
            y = rng.normal(0, 1, T)
        subjects.append(SubjectSeries(id=f"s{i}", features=X, outcomes=y))
    return LongitudinalDataset(tuple(subjects), tuple(f"f{j}" for j in range(d)))


def random_design(seed, m=4, d=3, T=8, tau=1, family="gaussian", include_lagged_outcome=False):
    return build_lagged(random_panel(seed, m, d, T, family), tau, include_lagged_outcome)


def test_gradient_zero_at_perfect_fit():
    design = random_design(0)
    working = make_working("independent", 0.0, 1.0, design.n)
    rng = np.random.default_rng(1)
    W = rng.normal(size=design.coef_shape)
    eta = fista.linear_predictor(design, W)
    perfect = LaggedDesign(
        tau=design.tau,
        include_lagged_outcome=False,
        subject_ids=design.subject_ids,
        feature_names=design.feature_names,
        times=design.times,
        subject_starts=design.subject_starts,
        X=design.X,
        y=eta,
    )
    gU, gV = gradient(perfect, GAUSS, working, W, np.zeros_like(W))
    assert np.allclose(gU, 0.0, atol=1e-12)
    assert np.array_equal(gU, gV)


def test_gradient_hand_example():
    design = single_example_design(x=2.0, y=1.0)
    working = make_working("independent", 0.0, 1.0, 1)
    gU, gV = gradient(design, GAUSS, working, np.zeros((1, 1)), np.zeros((1, 1)))
    assert gU[0, 0] == pytest.approx(-2.0)
    assert np.array_equal(gU, gV)


def test_gradient_matches_finite_differences():
    h = 1e-5
    for family_name, structure, alpha in [
        ("gaussian", "ar1", 0.5),
        ("gaussian", "exchangeable", 0.3),
        ("bernoulli", "independent", 0.0),
        ("poisson", "independent", 0.0),
    ]:
        family = get_family(family_name)
        design = random_design(3, family=family_name)
        working = make_working(structure, alpha, 1.3, design.n)
        rng = np.random.default_rng(4)
        U = rng.normal(0, 0.3, design.coef_shape)
        V = rng.normal(0, 0.3, design.coef_shape)
        g, _ = gradient(design, family, working, U, V)
        fd = np.zeros_like(g)
        for r in range(g.shape[0]):
            for c in range(g.shape[1]):
                bump = np.zeros_like(U)
                bump[r, c] = h
                fp = smooth_loss(design, family, working, U + bump + V)
                fm = smooth_loss(design, family, working, U - bump + V)
                fd[r, c] = (fp - fm) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-5 * np.linalg.norm(g)


def test_lipschitz_hand_example_and_scaling():
    design = single_example_design(x=2.0)
    working = make_working("independent", 0.0, 1.0, 1)
    assert lipschitz_upper(design, GAUSS, working) == pytest.approx(8.0, rel=1e-6)
    scaled = single_example_design(x=6.0)  # features scaled by 3
    assert lipschitz_upper(scaled, GAUSS, working) == pytest.approx(72.0, rel=1e-6)


def test_lipschitz_bernoulli_reference_variance():
    design = single_example_design(x=2.0)
    working = make_working("independent", 0.0, 1.0, 1)
    # at W = 0 the variance diagonal is 0.25, so the bound is 2 * (0.25 * 4)
    assert lipschitz_upper(design, get_family("bernoulli"), working) == pytest.approx(2.0, rel=1e-6)


def test_lipschitz_degenerate_design():
    design = single_example_design(x=0.0)
    working = make_working("independent", 0.0, 1.0, 1)
    with pytest.raises(NumericalError, match="degenerate design"):
        lipschitz_upper(design, GAUSS, working)


def test_momentum_sequence_values():
    t1 = 1.0
    t2 = momentum_update(t1)
    t3 = momentum_update(t2)
    assert t2 == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-4)
    assert t3 == pytest.approx(2.1935, abs=1e-4)


def test_momentum_lower_bound():
    t = 1.0
    for k in range(1, 10_001):
        assert t >= (k + 1) / 2.0
        t = momentum_update(t)


def test_fista_step_huge_penalty_kills_everything():
    design = random_design(5)
    working = make_working("independent", 0.0, 1.0, design.n)
    config = InnerConfig(lam1=1e9, lam2=1e9, step_mode="fixed")
    L = lipschitz_upper(design, GAUSS, working)
    smooth = build_gram(design, working)
    state = fista_step(InnerState(smooth, config, L))
    assert np.array_equal(state.U, np.zeros(design.coef_shape))
    assert np.array_equal(state.V, np.zeros(design.coef_shape))


def test_fista_step_first_iteration_extrapolates_from_start():
    design = random_design(6)
    working = make_working("independent", 0.0, 1.0, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="fixed")
    L = lipschitz_upper(design, GAUSS, working)
    rng = np.random.default_rng(7)
    U0 = rng.normal(size=design.coef_shape)
    V0 = rng.normal(size=design.coef_shape)
    smooth = build_gram(design, working)
    state = InnerState(smooth, config, L, start=(U0, V0))
    assert np.array_equal(state.Z_tilde[0], U0)
    assert np.array_equal(state.Z_tilde[1], V0)
    g, _ = gradient(design, GAUSS, working, *state.Z_tilde[:2])
    stepped = fista_step(state)
    assert np.allclose(stepped.U, prox_row_groups(U0 - g / L, config.lam1 / L))
    assert np.allclose(stepped.V, prox_col_groups(V0 - g / L, config.lam2 / L))
    G, _, _ = _per_subject_gram(design, working)
    assert np.allclose(stepped.Z[2], (G @ np.ravel(stepped.U + stepped.V)).reshape(design.coef_shape))
    assert stepped.t == pytest.approx(momentum_update(1.0))


def test_fista_step_extrapolated_predictor_matches_matvec():
    design = random_design(20)
    working = make_working("ar1", 0.3, 1.0, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="fixed")
    smooth = build_gram(design, working)
    state = InnerState(smooth, config, lipschitz_upper(design, GAUSS, working))
    for _ in range(5):
        state = fista_step(state)
        direct = smooth.predictor(state.Z_tilde[0] + state.Z_tilde[1])
        assert np.allclose(state.Z_tilde[2], direct, rtol=1e-12, atol=1e-12)


def test_fista_step_backtracking_grows_L():
    design = random_design(8)
    working = make_working("independent", 0.0, 1.0, design.n)
    L = lipschitz_upper(design, GAUSS, working)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="backtracking")
    smooth = build_gram(design, working)
    # backtracking starts from the bound it is given over INIT_L_SHRINK = 8
    state = InnerState(smooth, config, L / 8.0)
    assert state.L == L / 64.0
    stepped = fista_step(state)
    assert stepped.L > L / 64.0


def test_fista_step_accepts_the_step_at_a_bound_below_the_curvature(monkeypatch):
    design = random_design(9)
    working = make_working("independent", 0.0, 1.0, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="backtracking")

    # a curvature far above the bound: the majorization test fails at every
    # constant below it, and the step is taken at the bound itself
    system = build_gram(design, working)
    smooth = replace(system, G=system.G * 1e40)
    state = InnerState(smooth, config, 1.0)
    calls = []

    def dsymv(*args, **kwargs):
        calls.append(1)
        return blas.dsymv(*args, **kwargs)

    monkeypatch.setattr(fista, "blas", SimpleNamespace(dsymv=dsymv))
    stepped = fista_step(state)
    # one product per trial, at 1/8, 1/4 and 1/2, then the untested one at 1
    assert len(calls) == 1 + math.log2(fista.INIT_L_SHRINK) == 4
    assert stepped.L == 1.0
    assert np.all(np.isfinite(stepped.Z)) and math.isfinite(stepped.mapping)


@pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("step_mode", ["backtracking", "fixed"])
def test_inner_state_refuses_a_bound_that_is_not_finite_and_positive(L, step_mode):
    smooth = fista.GramSmooth(G=np.eye(2, order="F"), b=np.ones((2, 1)), c=0.0, phi=1.0)
    with pytest.raises(ValueError, match="step bound L must be finite and positive"):
        InnerState(smooth, InnerConfig(lam1=0.1, lam2=0.1, step_mode=step_mode), L)


def _reference_model_solve(smooth, L, start, config, floor=0.0):
    """``_model_solve`` with one fresh array per operation, as a plain loop.

    Its per-step arithmetic is the solver's before the stacked workspace:
    the shrink by ``np.where`` under ``errstate``, the majorization test,
    the loss and the stopping rules by ``np.sum`` and ``np.linalg.norm``.
    Each Gram product is ``dsymv`` on G's upper triangle, as the solver's.
    Its step rule is the solver's: the constant doubles, capped at the
    bound ``L``, and a step at the bound is accepted untested.
    """

    def product(W):
        return blas.dsymv(1.0, G, np.ravel(W)).reshape(b.shape)

    def shrink_rows(P, theta):
        norms = np.sqrt(np.sum(P**2, axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(norms > theta, 1.0 - theta / norms, 0.0)
        return scale[:, None] * P

    G, b, c, phi = smooth.G, smooth.b, smooth.c, smooth.phi
    bound = L
    if config.step_mode == "backtracking":
        L = L / fista.INIT_L_SHRINK
    U, V = (np.zeros(b.shape), np.zeros(b.shape)) if start is None else (start[0].copy(), start[1].copy())
    eta = product(U + V)
    U_t, V_t, eta_t, t = U, V, eta, 1.0
    objective, steps = [], []
    while len(objective) < config.max_iterations:
        grad = phi * (eta_t - b)
        while True:
            U_n = shrink_rows(U_t - grad / L, config.lam1 / L)
            V_n = shrink_rows((V_t - grad / L).T, config.lam2 / L).T
            W_n = U_n + V_n
            eta_n = product(W_n)
            if L >= bound:
                break
            dU, dV = U_n - U_t, V_n - V_t
            curvature = phi * float(np.sum((eta_n - eta_t) * (dU + dV)))
            if curvature <= L * float(np.sum(dU * dU) + np.sum(dV * dV)):
                break
            L = min(L * fista.GROWTH, bound)
        loss = 0.5 * phi * (c - 2.0 * np.sum(b * W_n) + np.sum(W_n * eta_n))
        objective.append(loss + config.lam1 * norm_12_rows(U_n) + config.lam2 * norm_12_cols(V_n))
        steps.append(L)
        change = max(np.linalg.norm(U_n - U), np.linalg.norm(V_n - V)) / (
            1.0 + np.linalg.norm(U_n) + np.linalg.norm(V_n)
        )
        dU, dV = U_n - U_t, V_n - V_t
        mapping = L * math.sqrt(float(np.sum(dU * dU) + np.sum(dV * dV)))
        t_next = momentum_update(t)
        shift = (t - 1.0) / t_next
        U_t, V_t, eta_t = U_n + shift * (U_n - U), V_n + shift * (V_n - V), eta_n + shift * (eta_n - eta)
        U, V, eta, t = U_n, V_n, eta_n, t_next
        if change < config.tolerance:
            return U, V, objective, steps, True
        if floor > 0.0 and mapping < floor:
            break
    return U, V, objective, steps, False


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d=st.integers(1, 4),
    lags=st.integers(1, 3),
    lam=st.sampled_from([0.0, 0.05, 0.5, 1e9]),
    step_mode=st.sampled_from(["backtracking", "fixed"]),
    warm=st.booleans(),
    floor=st.sampled_from([0.0, 1e-3, 0.5]),
)
@example(seed=1, d=1, lags=3, lam=0.05, step_mode="backtracking", warm=True, floor=0.0)
@example(seed=2, d=4, lags=1, lam=0.05, step_mode="fixed", warm=False, floor=1e-3)
# p = 1 at lam = 0: the majorization test at the bound is an exact tie
# that the solver's dot products round against the step
@example(seed=190768, d=1, lags=1, lam=0.0, step_mode="backtracking", warm=True, floor=0.0)
def test_model_solve_matches_plain_reference_loop(seed, d, lags, lam, step_mode, warm, floor):
    # the stacked, in-place iteration keeps the U/V arithmetic bit for bit;
    # only the objective's sums run in another order
    rng = np.random.default_rng(seed)
    p = d * lags
    A = rng.normal(size=(p + 12, p))
    y = rng.normal(size=p + 12) + A @ rng.normal(size=p)
    phi = float(rng.uniform(0.5, 2.0))
    smooth = fista.GramSmooth(
        G=np.asfortranarray(A.T @ A), b=(A.T @ y).reshape(d, lags), c=float(y @ y), phi=phi
    )
    L = 2.0 * phi * fista._top_eigenvalue(smooth.G)
    start = (rng.normal(size=(d, lags)), rng.normal(size=(d, lags))) if warm else None
    config = InnerConfig(lam1=lam, lam2=2.0 * lam, max_iterations=300, tolerance=1e-9, step_mode=step_mode)
    trace = ([], [])
    U, V, converged = fista._model_solve(smooth, L, start, config, trace, floor)
    U_ref, V_ref, objective, steps, converged_ref = _reference_model_solve(smooth, L, start, config, floor)
    assert np.array_equal(U, U_ref) and np.array_equal(V, V_ref)
    assert trace[1] == steps
    assert len(trace[0]) == len(objective) and converged == converged_ref
    assert np.allclose(trace[0], objective, rtol=1e-12, atol=0.0)
    # one triangle or the whole G: the products differ in their last bits only
    W = np.ravel(U + V)
    assert np.allclose(smooth.predictor(W).ravel(), smooth.G @ W, rtol=1e-12, atol=1e-12)


def _identity_step(lam1, lam2, grad):
    """One fixed step at L = 1 from the origin on an identity Gram: (U, V) = prox(-grad).

    With b = -grad the quadratic's gradient at the origin is ``grad`` itself.
    """
    smooth = fista.GramSmooth(G=np.eye(grad.size, order="F"), b=-grad, c=0.0, phi=1.0)
    return fista_step(InnerState(smooth, InnerConfig(lam1=lam1, lam2=lam2, step_mode="fixed"), 1.0))


def test_fista_step_shrink_keeps_zero_groups_at_zero_threshold():
    grad = np.array([[0.0, 0.0], [3.0, 4.0]])
    state = _identity_step(0.0, 0.0, grad)
    assert np.array_equal(state.U, -grad) and np.array_equal(state.V, -grad)
    assert state.penalty == 0.0 and np.isfinite(state.loss)


def test_fista_step_shrink_kills_groups_at_the_threshold():
    # row 1 has norm 5 = lam1; column 0 norm 3 = lam2, column 1 norm 4 > lam2
    grad = np.array([[0.0, 0.0], [3.0, 4.0]])
    state = _identity_step(5.0, 3.0, grad)
    assert np.array_equal(state.U, np.zeros((2, 2)))
    assert np.array_equal(state.V, [[0.0, 0.0], [0.0, -1.0]])
    assert state.penalty == pytest.approx(3.0 * 1.0)


def test_inner_solve_zero_outcome_fixed_point():
    design = random_design(10)
    zeroed = LaggedDesign(
        tau=design.tau,
        include_lagged_outcome=False,
        subject_ids=design.subject_ids,
        feature_names=design.feature_names,
        times=design.times,
        subject_starts=design.subject_starts,
        X=design.X,
        y=np.zeros_like(design.y),
    )
    working = make_working("independent", 0.0, 1.0, design.n)
    result = inner_solve(zeroed, GAUSS, working, InnerConfig(lam1=0.5, lam2=0.5))
    assert np.array_equal(result.U, np.zeros(design.coef_shape))
    assert np.array_equal(result.V, np.zeros(design.coef_shape))
    assert result.converged


def test_inner_solve_unpenalized_matches_least_squares():
    design = random_design(11, m=8, d=3, T=10, tau=1)
    working = make_working("independent", 0.0, 1.0, design.n)
    config = InnerConfig(lam1=0.0, lam2=0.0, max_iterations=30000, tolerance=1e-13)
    result = inner_solve(design, GAUSS, working, config)
    flat = design.flat_design().reshape(design.n_examples, design.n_params)
    w_ls, *_ = np.linalg.lstsq(flat, design.y.ravel(), rcond=None)
    pred_fit = flat @ np.ravel(result.U + result.V)
    pred_ls = flat @ w_ls
    assert np.linalg.norm(pred_fit - pred_ls) <= 1e-6


def test_inner_solve_accelerated_matched_by_plain_proximal():
    design = random_design(12, m=5, d=2, T=5, tau=1)
    working = make_working("independent", 0.0, 1.0, design.n)
    lam = 0.1
    accelerated = inner_solve(
        design, GAUSS, working, InnerConfig(lam1=lam, lam2=lam, max_iterations=5000, tolerance=1e-14)
    )
    L = lipschitz_upper(design, GAUSS, working)
    U = np.zeros(design.coef_shape)
    V = np.zeros(design.coef_shape)
    for _ in range(20000):
        g = fista.gradient_matrix(design, GAUSS, working, U + V)
        U = prox_row_groups(U - g / L, lam / L)
        V = prox_col_groups(V - g / L, lam / L)
    f_plain = (
        smooth_loss(design, GAUSS, working, U + V)
        + lam * norm_12_rows(U)
        + lam * norm_12_cols(V)
    )
    assert abs(accelerated.objective_trace[-1] - f_plain) <= 1e-6


def test_inner_solve_objective_envelope():
    design = random_design(13, m=10, d=6, T=9, tau=1)
    working = make_working("independent", 0.0, 1.0, design.n)
    config = InnerConfig(lam1=0.3, lam2=0.3, max_iterations=800, tolerance=1e-30, step_mode="fixed")
    result = inner_solve(design, GAUSS, working, config)
    L = result.lipschitz_bound
    f_star = result.objective_trace[-1]
    radius = np.sum(result.U**2) + np.sum(result.V**2)
    for k in range(10, 301):
        gap = result.objective_trace[k - 1] - f_star
        assert gap <= 2 * L * radius / (k + 1) ** 2 + 1e-9


def test_objective_jointly_convex_along_segments():
    design = random_design(14)
    working = make_working("ar1", 0.4, 1.0, design.n)
    lam1, lam2 = 0.2, 0.3
    rng = np.random.default_rng(15)

    def f(U, V):
        return (
            smooth_loss(design, GAUSS, working, U + V)
            + lam1 * norm_12_rows(U)
            + lam2 * norm_12_cols(V)
        )

    for _ in range(20):
        U1, V1, U2, V2 = (rng.normal(size=design.coef_shape) for _ in range(4))
        theta = rng.uniform()
        lhs = f(theta * U1 + (1 - theta) * U2, theta * V1 + (1 - theta) * V2)
        rhs = theta * f(U1, V1) + (1 - theta) * f(U2, V2)
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


def test_gradient_symmetry_exact():
    design = random_design(16)
    working = make_working("exchangeable", 0.25, 0.8, design.n)
    rng = np.random.default_rng(17)
    gU, gV = gradient(
        design, GAUSS, working, rng.normal(size=design.coef_shape), rng.normal(size=design.coef_shape)
    )
    assert np.array_equal(gU, gV)


def test_inner_solve_bernoulli_nonidentity_runs_fixed_mode():
    design = random_design(18, family="bernoulli")
    family = get_family("bernoulli")
    working = make_working("ar1", 0.4, 1.0, design.n)
    # no scalar loss exists for this combination; scoring needs none
    with pytest.raises(ValueError, match="no scalar loss"):
        smooth_loss(design, family, working, np.zeros(design.coef_shape))
    config = InnerConfig(lam1=0.2, lam2=0.2, step_mode="fixed")
    result = inner_solve(design, family, working, config)
    assert result.converged
    assert np.all(np.isfinite(result.U))
    assert np.all(np.isfinite(result.objective_trace))
    # fixed mode steps at each model's bound: the first model's is the bound at the start
    assert result.step_trace[0] == result.lipschitz_bound
    assert result.lipschitz_bound == pytest.approx(
        _dense_lipschitz(design, family, working, np.zeros(design.coef_shape)), rel=1e-10
    )


def test_inner_solve_poisson_identity_backtracks():
    design = random_design(19, family="poisson")
    working = make_working("independent", 0.0, 1.0, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="fixed")
    result = inner_solve(design, get_family("poisson"), working, config)
    assert result.converged
    assert np.all(np.isfinite(result.U))


def test_inner_config_validation():
    # penalties and grid entries must be finite and >= 0, tolerances finite
    # and > 0; every settings object names the field it rejects
    nan, inf = math.nan, math.inf
    zeros = np.zeros((2, 2))
    cases = [
        (InnerConfig, dict(lam1=-1.0, lam2=0.0), "lam1"),
        (InnerConfig, dict(lam1=nan, lam2=0.0), "lam1"),
        (InnerConfig, dict(lam1=0.0, lam2=inf), "lam2"),
        (InnerConfig, dict(lam1=0.0, lam2=0.0, tolerance=0.0), "tolerance"),
        (InnerConfig, dict(lam1=0.0, lam2=0.0, tolerance=nan), "tolerance"),
        (InnerConfig, dict(lam1=0.0, lam2=0.0, tolerance=inf), "tolerance"),
        (InnerConfig, dict(lam1=0.0, lam2=0.0, step_mode="adaptive"), "step_mode"),
        (ll.FitConfig, dict(inner_tolerance=nan), "inner_tolerance"),
        (ll.FitConfig, dict(inner_max_iterations=0), "inner_max_iterations"),
        (ll.CoefficientPair, dict(U=zeros, V=zeros, lam1=nan), "lam1"),
        (ll.CoefficientPair, dict(U=zeros, V=zeros, lam2=-inf), "lam2"),
        (ll.CvSpec, dict(lam1_grid=(1.0, nan)), "lam1_grid"),
        (ll.CvSpec, dict(lam2_grid=(inf,)), "lam2_grid"),
        (ll.CvSpec, dict(lam1_grid=(-1.0,)), "lam1_grid"),
    ]
    for make, kwargs, name in cases:
        with pytest.raises(ValueError, match=name):
            make(**kwargs)
    # zero penalties and zero grid entries are valid
    ll.CvSpec(lam1_grid=(0.0, 1.0), lam2_grid=(0.0,))
    ll.CoefficientPair(U=zeros, V=zeros, lam1=0.0, lam2=0.0)


def _per_subject_gram(design, working):
    flat = design.flat_design()
    G = sum(flat[i].T @ working.R_inv @ flat[i] for i in range(design.m))
    b = sum(flat[i].T @ working.R_inv @ design.y[i] for i in range(design.m))
    c = sum(design.y[i] @ working.R_inv @ design.y[i] for i in range(design.m))
    return G, b.reshape(design.coef_shape), float(c)


def _weighted(design, weights):
    """The design with example (i, j) of X scaled by weights[i, j]."""
    return LaggedDesign(
        tau=design.tau,
        include_lagged_outcome=design.include_lagged_outcome,
        subject_ids=design.subject_ids,
        feature_names=design.feature_names,
        times=design.times,
        subject_starts=design.subject_starts,
        X=design.X * weights[:, :, None, None],
        y=design.y,
    )


def _per_subject_sums(design, C, root_var):
    """G, b and c of the accumulator for the n x r factor C, one subject at a time."""
    scale = np.broadcast_to(1.0 if root_var is None else root_var, design.y.shape)
    flat = design.flat_design()
    G, b, c = 0.0, 0.0, 0.0
    for i in range(design.m):
        rows = C.T @ (scale[i, :, None] * flat[i])
        white_y = C.T @ (scale[i] * design.y[i])
        G = G + rows.T @ rows
        b = b + rows.T @ white_y
        c = c + white_y @ white_y
    return G, b, float(c)


def _close(actual, expected, rel=1e-12):
    return np.allclose(actual, expected, rtol=rel, atol=rel * np.abs(expected).max())


STRUCTURES = [("independent", 0.0), ("exchangeable", 0.3), ("tridiagonal", 0.25), ("ar1", 0.5)]


@pytest.mark.parametrize("structure,alpha", STRUCTURES)
@pytest.mark.parametrize("lagged", [False, True])
@pytest.mark.parametrize("m,chunk", [(7, 3), (1, 2), (5, None)])
def test_build_gram_matches_per_subject_sums(structure, alpha, lagged, m, chunk, monkeypatch):
    design = random_design(30, m=m, d=3, T=8, tau=2, include_lagged_outcome=lagged)
    n, p = design.n, design.n_params
    if chunk is not None:
        # a buffer of ``chunk`` subjects, so the last chunk is a partial one
        monkeypatch.setattr(fista, "GRAM_CHUNK_BYTES", chunk * 8 * n * p)
    working = make_working(structure, alpha, 1.3, design.n)
    system = build_gram(design, working)
    G, b, c = _per_subject_gram(design, working)
    assert np.array_equal(system.G, system.G.T)
    assert _close(system.G, G) and _close(system.b, b)
    assert system.c == pytest.approx(c, rel=1e-12)
    assert system.phi == 1.3
    # every factor the solver whitens by, under no, a scalar and a
    # per-example variance weighting
    edges = np.zeros((n, 2))
    edges[0, 0] = edges[-1, 1] = 1.0
    factors = {
        "identity": None,
        "ones": np.ones((n, 1)),
        "adjacent": np.eye(n, n - 1) + np.eye(n, n - 1, k=-1),
        "edges": edges,
        "cholesky": np.linalg.cholesky(working.R_inv),
    }
    rng = np.random.default_rng(31)
    for name, factor in factors.items():
        C = np.eye(n) if factor is None else factor
        if chunk is not None:
            # room for ``chunk`` subjects of r whitened rows, short of one
            # more: the last chunk of m = 7 is a partial one
            monkeypatch.setattr(fista, "GRAM_CHUNK_BYTES", (chunk + 1) * 8 * C.shape[1] * p - 1)
        for root_var in (None, 0.5, rng.uniform(0.2, 2.0, (design.m, n))):
            G, b, c = _per_subject_sums(design, C, root_var)
            acc_G, acc_b, acc_c = fista._accumulate(design, factor, root_var)
            assert acc_G.flags.f_contiguous, name
            assert _close(np.triu(acc_G), np.triu(G)) and _close(acc_b, b), name
            assert acc_c == pytest.approx(c, rel=1e-12), name


@pytest.mark.parametrize("per_example", [False, True])
def test_build_gram_variance_weighting_matches_per_subject_sums(per_example, monkeypatch):
    design = random_design(41, m=7, d=3, T=8, tau=2, include_lagged_outcome=True)
    monkeypatch.setattr(fista, "GRAM_CHUNK_BYTES", 3 * 8 * design.n * design.n_params)
    working = make_working("ar1", 0.5, 1.3, design.n)
    rng = np.random.default_rng(42)
    root_var = rng.uniform(0.2, 2.0, (design.m, design.n)) if per_example else 0.5
    H = build_gram(design, working, root_var).G
    G, _, _ = _per_subject_gram(_weighted(design, np.broadcast_to(root_var, design.y.shape)), working)
    assert H.flags.f_contiguous and np.array_equal(H, H.T)
    assert _close(H, G)


@pytest.mark.parametrize("structure,alpha", STRUCTURES)
def test_gram_gradient_and_loss_match_design(structure, alpha):
    design = random_design(31, m=6, d=3, T=9, tau=2)
    working = make_working(structure, alpha, 0.7, design.n)
    system = build_gram(design, working)
    W = np.random.default_rng(32).normal(size=design.coef_shape)
    Gw = system.predictor(W)
    g = fista.gradient_matrix(design, GAUSS, working, W)
    assert np.linalg.norm(system.gradient(Gw) - g) <= 1e-12 * np.linalg.norm(g)
    assert system.loss(Gw, W) == pytest.approx(smooth_loss(design, GAUSS, working, W), rel=1e-12)


@pytest.mark.parametrize("structure,alpha", STRUCTURES)
def test_gram_lipschitz_matches_top_eigenvalue(structure, alpha):
    design = random_design(33, m=6, d=3, T=9, tau=2)
    working = make_working(structure, alpha, 1.7, design.n)
    system = build_gram(design, working)
    exact = 2.0 * 1.7 * np.linalg.eigvalsh(system.G)[-1]
    assert lipschitz_upper(design, GAUSS, working, gram=system.G) == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("p", [1, 2, 7, 64, 130])
def test_top_eigenvalue_in_place_matches_eigh_and_restores_gram(p):
    rng = np.random.default_rng(p)
    A = rng.normal(size=(2 * p + 1, p))
    G = np.asfortranarray(A.T @ A)
    before = G.copy()
    top = fista._top_eigenvalue(G)
    assert np.array_equal(G, before)
    assert top == eigh(before, eigvals_only=True, subset_by_index=[p - 1, p - 1])[0]
    # a C-ordered or read-only Gram is copied, and left as it was too
    frozen = before.copy()
    frozen.setflags(write=False)
    for other in (np.ascontiguousarray(before), frozen):
        assert fista._top_eigenvalue(other) == top
        assert np.array_equal(other, before)


def test_lipschitz_keeps_a_gaussian_gram_intact():
    design = random_design(34, m=6, d=3, T=9, tau=2)
    working = make_working("ar1", 0.6, 1.7, design.n)
    system = build_gram(design, working)
    before = system.G.copy()
    L = lipschitz_upper(design, GAUSS, working, gram=system.G)
    assert np.array_equal(system.G, before)
    p = design.n_params
    assert L == 2.0 * 1.7 * eigh(before, eigvals_only=True, subset_by_index=[p - 1, p - 1])[0]


def test_top_eigenvalue_rejects_non_finite_gram():
    with pytest.raises(NumericalError, match="non-finite"):
        fista._top_eigenvalue(np.asfortranarray([[np.inf, 1.0], [1.0, 2.0]]))


def test_failed_eigensolve_raises_and_restores_gram(monkeypatch):
    # LAPACK may have overwritten the lower triangle before it failed
    def failing_eigh(a, **kwargs):
        a[np.tril_indices_from(a)] = np.nan
        raise np.linalg.LinAlgError("internal error")

    monkeypatch.setattr(fista, "linalg", SimpleNamespace(eigh=failing_eigh))
    G = np.asfortranarray([[2.0, 1.0], [1.0, 3.0]])
    before = G.copy()
    with pytest.raises(NumericalError, match="no top eigenvalue"):
        fista._top_eigenvalue(G)
    assert np.array_equal(G, before)


# designs small and large enough for OpenBLAS to thread the products
BLAS_DESIGNS = [dict(m=7, d=3, T=8, tau=2), dict(m=40, d=24, T=14, tau=4)]


@pytest.mark.parametrize("shape", BLAS_DESIGNS)
def test_design_products_match_numpy_bit_for_bit(shape):
    design = random_design(50, include_lagged_outcome=True, **shape)
    flat = design.flat_design().reshape(design.n_examples, design.n_params)
    rng = np.random.default_rng(51)
    W = rng.normal(size=design.coef_shape)
    eta = fista.linear_predictor(design, W)
    assert np.array_equal(eta, (flat @ W.ravel()).reshape(design.m, design.n))
    s = rng.normal(size=design.y.shape)
    root = rng.uniform(0.2, 2.0, design.y.shape)
    for structure, alpha in STRUCTURES:
        working = make_working(structure, alpha, 1.3, design.n)
        for r in (None, root):
            c = working.phi * (s @ working.R_inv) if r is None else working.phi * r * ((s / r) @ working.R_inv)
            expected = (flat.T @ c.ravel()).reshape(design.coef_shape)
            assert np.array_equal(fista.estimating_function(design, working, s, r), expected), structure


def _numpy_accumulate(design, factor, root_var):
    """``fista._accumulate`` with NumPy's ``matmul`` for its whitening and X^T y products."""
    m, n, p = design.m, design.n, design.n_params
    C = np.eye(n) if factor is None else factor
    r = C.shape[1]
    plain = root_var is None and np.array_equal(C, np.eye(n))
    chunk = min(max(1, fista.GRAM_CHUNK_BYTES // (8 * r * p)), m)
    scale = None if root_var is None else np.broadcast_to(root_var, (m, n))
    flat = design.flat_design()
    G, b, c = np.zeros((p, p), order="F"), np.zeros(p), 0.0
    for first in range(0, m, chunk):
        block = slice(first, min(first + chunk, m))
        X, y = flat[block], design.y[block]
        if not plain:
            whiten = C.T if scale is None else C.T * scale[block, None, :]
            if scale is not None:
                y = y * scale[block]
            X = np.matmul(whiten, X)
            y = y @ C
        rows = X.reshape(-1, p)
        white_y = y.ravel()
        b += rows.T @ white_y
        c += float(white_y @ white_y)
        G = blas.dsyrk(1.0, rows.T, beta=1.0, c=G, overwrite_c=1)
    return G, b, c


@pytest.mark.parametrize("shape", BLAS_DESIGNS)
@pytest.mark.parametrize("chunk", [3, None])
def test_accumulate_matches_numpy_products_bit_for_bit(shape, chunk, monkeypatch):
    design = random_design(52, include_lagged_outcome=True, **shape)
    n, p = design.n, design.n_params
    if chunk is not None:
        # ``chunk`` subjects of n rows, so the last chunk is a partial one
        monkeypatch.setattr(fista, "GRAM_CHUNK_BYTES", chunk * 8 * n * p)
    edges = np.zeros((n, 2))
    edges[0, 0] = edges[-1, 1] = 1.0
    factors = {
        "identity": None,
        "ones": np.ones((n, 1)),
        "adjacent": np.eye(n, n - 1) + np.eye(n, n - 1, k=-1),
        "edges": edges,
        "cholesky": np.linalg.cholesky(make_working("ar1", 0.5, 1.0, n).R_inv),
    }
    rng = np.random.default_rng(53)
    for name, factor in factors.items():
        for root_var in (None, 0.5, rng.uniform(0.2, 2.0, (design.m, n))):
            G, b, c = fista._accumulate(design, factor, root_var)
            G_ref, b_ref, c_ref = _numpy_accumulate(design, factor, root_var)
            # each subject is whitened by one dgemm, where matmul runs a
            # one-row factor on dgemv: the sums agree to rounding
            assert _close(G, G_ref) and _close(b, b_ref) and c == c_ref, name


@pytest.mark.parametrize("shape", BLAS_DESIGNS)
@pytest.mark.parametrize("step_mode", ["fixed", "backtracking"])
def test_fista_step_predictors_match_numpy_products(shape, step_mode):
    # the iteration's product is written in place into the point's
    # predictor: a copied target would leave a stale predictor behind.  It
    # is dsymv on G's upper triangle, equal to NumPy's G @ w to rounding
    design = random_design(54, **shape)
    working = make_working("ar1", 0.4, 1.2, design.n)
    smooth = build_gram(design, working)
    G = smooth.G
    config = InnerConfig(lam1=0.05, lam2=0.05, step_mode=step_mode)
    rng = np.random.default_rng(55)
    start = (rng.normal(size=design.coef_shape), rng.normal(size=design.coef_shape))
    L = lipschitz_upper(design, GAUSS, working, gram=G)
    state = InnerState(smooth, config, L, start)

    def product(U, V):
        return blas.dsymv(1.0, G, np.ravel(U + V)).reshape(design.coef_shape)

    assert np.array_equal(state.Z[2], product(*start))
    assert np.array_equal(state.Z_tilde[2], state.Z[2])
    for _ in range(6):
        eta_before, t_before = product(state.U, state.V), state.t
        state = fista_step(state)
        eta = product(state.U, state.V)
        assert np.array_equal(state.Z[2], eta)
        # the extrapolated predictor follows by linearity from two products
        shift = (t_before - 1.0) / state.t
        assert np.array_equal(state.Z_tilde[2], eta + (eta - eta_before) * shift)
        assert np.allclose(state.Z_tilde[2], product(*state.Z_tilde[:2]), rtol=1e-12, atol=1e-12)
    W = np.ravel(state.U + state.V)
    assert np.allclose(state.Z[2].ravel(), G @ W, rtol=1e-12, atol=1e-12)


def test_gram_smooth_holds_its_gram_in_fortran_order():
    # a C-ordered Gram is copied into Fortran order once, when the quadratic
    # is made; a Fortran-ordered one is held as given
    rng = np.random.default_rng(56)
    A = rng.normal(size=(20, 6))
    G_c = np.ascontiguousarray(A.T @ A)
    W = rng.normal(size=(3, 2))
    smooth = fista.GramSmooth(G=G_c, b=np.zeros((3, 2)), c=0.0, phi=1.0)
    assert smooth.G.flags.f_contiguous and not np.shares_memory(smooth.G, G_c)
    assert np.array_equal(smooth.G, G_c)
    G_f = np.asfortranarray(G_c)
    assert np.array_equal(smooth.predictor(W), blas.dsymv(1.0, G_f, W.ravel()).reshape(3, 2))
    assert np.allclose(smooth.predictor(W).ravel(), G_c @ W.ravel(), rtol=1e-12, atol=1e-12)
    held = fista.GramSmooth(G=G_f, b=np.zeros((3, 2)), c=0.0, phi=1.0)
    assert held.G is G_f
    assert replace(held, G=G_c).G.flags.f_contiguous


@pytest.mark.parametrize("step_mode", ["fixed", "backtracking"])
def test_gram_products_read_one_triangle(step_mode):
    # every Gram product reads the diagonal and the upper triangle alone: a
    # Gram whose strict lower triangle is NaN gives the intact Gram's arrays
    design = random_design(57, **BLAS_DESIGNS[0])
    working = make_working("ar1", 0.4, 1.2, design.n)
    intact = build_gram(design, working)
    G = intact.G.copy(order="F")
    G[np.tril_indices_from(G, k=-1)] = np.nan
    upper = replace(intact, G=G)
    L = lipschitz_upper(design, GAUSS, working, gram=intact.G)
    config = InnerConfig(lam1=0.05, lam2=0.05, max_iterations=200, step_mode=step_mode)
    rng = np.random.default_rng(58)
    start = (rng.normal(size=design.coef_shape), rng.normal(size=design.coef_shape))
    assert np.array_equal(upper.predictor(start[0]), intact.predictor(start[0]))
    states = [InnerState(smooth, config, L, start) for smooth in (intact, upper)]
    for _ in range(4):
        for state in states:
            fista_step(state)
        assert np.array_equal(states[1].Z, states[0].Z) and np.array_equal(states[1].Z_tilde, states[0].Z_tilde)
        assert states[1].L == states[0].L and states[1].loss == states[0].loss
    solved = [fista._model_solve(smooth, L, start, config, ([], [])) for smooth in (intact, upper)]
    assert all(np.array_equal(a, b) for a, b in zip(*solved))


def _cholesky_gram(design, working):
    """The quadratic of ``build_gram`` from one pass whitened by the Cholesky factor of R^{-1}.

    That is the pass ``build_gram`` makes for a structure without a basis.
    """
    G, b, c = fista._accumulate(design, spd_cholesky(working.R_inv))
    fista._mirror_upper(G)
    return fista.GramSmooth(G=G, b=b.reshape(design.coef_shape), c=c, phi=working.phi)


def _structured(working):
    """R^{-1} in its structure's pattern, from the entries the basis reads.

    Independent: r00 I.  Exchangeable (and every structure at n = 2):
    r00 on the diagonal, r01 elsewhere.  AR(1): r00 at both corners, r11
    on the rest of the diagonal and r01 on the first off-diagonals.
    """
    R_inv = working.R_inv
    n = R_inv.shape[0]
    if working.structure == "independent" or n == 1:
        return R_inv[0, 0] * np.eye(n)
    r00, r01 = R_inv[0, 0], R_inv[0, 1]
    if working.structure == "exchangeable" or n == 2:
        S = np.full((n, n), r01)
        np.fill_diagonal(S, r00)
        return S
    S = R_inv[1, 1] * np.eye(n) + r01 * (np.eye(n, k=1) + np.eye(n, k=-1))
    S[0, 0] = S[-1, -1] = r00
    return S


@settings(max_examples=150, deadline=None)
@given(
    structure=st.sampled_from(["independent", "exchangeable", "ar1"]),
    n=st.sampled_from([1, 2, 3, 7]),
    m=st.integers(1, 5),
    d=st.integers(1, 3),
    tau=st.integers(0, 2),
    lagged=st.booleans(),
    constant=st.booleans(),
    position=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    chunk_rows=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
@example(structure="exchangeable", n=7, m=1, d=2, tau=1, lagged=True, constant=True,
         position=1.0, chunk_rows=3, seed=0)
@example(structure="ar1", n=7, m=5, d=3, tau=2, lagged=True, constant=False,
         position=0.0, chunk_rows=6, seed=1)
@example(structure="ar1", n=3, m=5, d=2, tau=1, lagged=False, constant=False,
         position=0.9, chunk_rows=9, seed=2)
def test_basis_gram_matches_build_gram(
    structure, n, m, d, tau, lagged, constant, position, chunk_rows, seed
):
    """Basis G, b and c against the Cholesky-factor Gram, to 1e-12 of the rounding scale.

    Errors of either form scale with ||R^{-1}|| times the squared column
    norms, not with G itself: under exchangeable alpha near 1, rows that
    are constant in time leave G orders of magnitude smaller than its
    terms.  ``position`` places alpha in the clipping range, both ends
    included.  The reference Gram is built on R^{-1} in its exact
    structure, which ``make_working`` meets up to its inversion error,
    about eps * cond(R) (3e-11 at n = 7 and exchangeable alpha = 1 - 1e-6).
    """
    tau = max(tau, 2 - n)
    design = build_lagged(random_panel(seed, m, d, n + tau, constant=constant), tau, lagged)
    lo, hi = alpha_bounds(structure, n)
    alpha = hi if position == 1.0 else lo + position * (hi - lo)
    working = make_working(structure, alpha, 1.3, n)
    exact = _structured(working)
    cond = np.linalg.cond(working.R)
    assert np.abs(working.R_inv - exact).max() <= 64 * n * 2.2e-16 * cond * np.abs(exact).max()
    reference = SimpleNamespace(R_inv=exact, phi=working.phi)  # what _cholesky_gram reads
    # the basis terms are R^{-1} itself: sum_k w_k C_k C_k^T
    terms = fista._basis_terms(structure, exact)
    combined = sum(w * (np.eye(n) if C is None else C @ C.T) for C, w in terms)
    assert np.allclose(combined, exact, rtol=0.0, atol=1e-12 * np.abs(exact).max())
    p = design.n_params
    # chunk_rows whitened rows per buffer: partial chunks of
    # chunk_rows // r subjects for each factor, r its column count
    with mock.patch.object(fista, "GRAM_CHUNK_BYTES", chunk_rows * 8 * p):
        system = build_gram(design, working)
        ref = _cholesky_gram(design, reference)
    assert system.G.flags.f_contiguous and np.array_equal(system.G, system.G.T)
    norm = np.linalg.norm(exact, 2)
    flat = design.flat_design()
    columns = float(np.max(np.sum(flat * flat, axis=(0, 1))))
    outcomes = float(np.sum(design.y * design.y))
    assert np.abs(system.G - ref.G).max() <= 1e-12 * norm * columns
    assert np.abs(system.b - ref.b).max() <= 1e-12 * norm * math.sqrt(columns * outcomes)
    assert abs(system.c - ref.c) <= 1e-12 * norm * outcomes
    assert system.phi == 1.3


@pytest.mark.parametrize("structure,alpha", [("independent", 0.0), ("exchangeable", 0.6), ("ar1", 0.7)])
def test_inner_solve_on_basis_matches_build_gram(structure, alpha, monkeypatch):
    # a tight tolerance that some of these solves meet within the cap and
    # some do not: the two Grams must agree either way
    design = random_design(50, m=20, d=3, T=9, tau=1)
    working = make_working(structure, alpha, 1.2, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1, max_iterations=3000, tolerance=1e-12)
    on_basis = inner_solve(design, GAUSS, working, config)
    monkeypatch.setattr(fista, "build_gram", _cholesky_gram)
    rebuilt = inner_solve(design, GAUSS, working, config)
    assert on_basis.converged == rebuilt.converged
    assert np.abs(on_basis.U - rebuilt.U).max() <= 1e-10
    assert np.abs(on_basis.V - rebuilt.V).max() <= 1e-10


def test_gaussian_gram_at_zero_alpha_is_build_gram_bit_for_bit():
    # round 0 of every fit runs at R = I, where the basis Gram is G0 and the
    # step bound comes from the basis's lambda_max(G0)
    design = random_design(51, m=5, d=3, T=9, tau=2, include_lagged_outcome=True)
    for structure in ("independent", "exchangeable", "ar1"):
        working = make_working(structure, 0.0, 1.0, design.n)
        system = build_gram(design, working)
        ref = _cholesky_gram(design, working)
        assert np.array_equal(system.G, ref.G) and np.array_equal(system.b, ref.b)
        assert system.c == ref.c
        basis = design._gram_cache[structure]
        assert basis.top0 == fista._top_eigenvalue(ref.G)
        assert not any(G.flags.writeable for G in basis.G)
        with pytest.raises(FrozenInstanceError):
            basis.top0 = 0.0


def _count(monkeypatch, name):
    """Calls of the fista function ``name`` from here on, by design."""
    calls = []
    real = getattr(fista, name)

    def counted(design, *args, **kwargs):
        calls.append(design)
        return real(design, *args, **kwargs)

    monkeypatch.setattr(fista, name, counted)
    return calls


def test_ar1_fit_reads_the_design_for_its_gram_once(monkeypatch):
    builds = _count(monkeypatch, "_build_basis")
    grams = _count(monkeypatch, "build_gram")
    passes = _count(monkeypatch, "_accumulate")
    design = random_design(52, m=8, d=3, T=12, tau=2)
    result = ll.fit(design, "gaussian", "ar1", 0.05, 0.05)
    assert result.outer_iterations >= 3 and result.working.alpha != 0.0
    assert len(builds) == 1 and len(grams) == result.outer_iterations
    # one pass per basis factor (identity, adjacent sums, edges), and no
    # round at alpha != 0 reads the design again
    assert len(passes) == 3
    # later fits on the same design reuse it; another structure replaces it
    ll.fit(design, "gaussian", "ar1", 0.2, 0.2)
    assert len(builds) == 1
    ll.fit(design, "gaussian", "exchangeable", 0.05, 0.05)
    assert len(builds) == 2 and list(design._gram_cache) == ["exchangeable"]


@pytest.mark.parametrize("folds", [2, 3])
@pytest.mark.parametrize("grid", [(1, 1), (2, 3)])
def test_grid_cv_builds_one_basis_per_fold(folds, grid, monkeypatch):
    builds = _count(monkeypatch, "_build_basis")
    passes = _count(monkeypatch, "_accumulate")
    train = random_panel(53, m=9, d=3, T=10)
    spec = ll.CvSpec(
        lam1_grid=tuple(np.geomspace(0.05, 1.0, grid[0])),
        lam2_grid=tuple(np.geomspace(0.05, 1.0, grid[1])),
        folds=folds,
    )
    result = ll.grid_cv(train, 2, "gaussian", "ar1", spec)
    assert result.failures == {}
    assert len(builds) == folds and len({id(design) for design in builds}) == folds
    # one pass per basis factor of each fold, and no other read of a design
    assert len(passes) == 3 * folds


@pytest.mark.parametrize("folds", [2, 3])
def test_grid_cv_runs_one_eigensolve_per_fold_at_zero_alpha(folds, monkeypatch):
    # round 0 of every cell runs at R = I, where G is the fold's G0: its
    # lambda_max is found once per fold and kept on the fold's basis
    tops = _count(monkeypatch, "_top_eigenvalue")
    alphas = []
    solve = fista.inner_solve

    def recorded(design, family, working, *args, **kwargs):
        alphas.append(working.alpha)
        return solve(design, family, working, *args, **kwargs)

    monkeypatch.setattr(fista, "inner_solve", recorded)
    spec = ll.CvSpec(lam1_grid=(0.05, 0.2, 1.0), lam2_grid=(0.05, 0.5), folds=folds)
    result = ll.grid_cv(random_panel(53, m=9, d=3, T=10), 2, "gaussian", "ar1", spec)
    assert result.failures == {}
    at_zero = alphas.count(0.0)
    assert at_zero == 6 * folds
    assert len(tops) == folds + len(alphas) - at_zero


def test_concurrent_fits_share_one_design():
    # threads that fit different structures on one design replace each
    # other's basis; each solve keeps the basis it read, so only work is lost
    design = random_design(55, m=8, d=3, T=12, tau=2)
    structures = ["ar1", "exchangeable", "independent", "ar1", "exchangeable", "ar1"]
    serial = {s: ll.fit(random_design(55, m=8, d=3, T=12, tau=2), "gaussian", s, 0.05, 0.05).W
              for s in set(structures)}
    results = {}

    def work(i, structure):
        results[i] = ll.fit(design, "gaussian", structure, 0.05, 0.05).W

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=item) for item in enumerate(structures)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(len(structures)))
    for i, structure in enumerate(structures):
        assert np.allclose(results[i], serial[structure], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "family_name,structure", [("gaussian", "tridiagonal"), ("bernoulli", "ar1"), ("poisson", "exchangeable")]
)
def test_unbased_solves_build_their_own_grams(family_name, structure, monkeypatch):
    builds = _count(monkeypatch, "_build_basis")
    passes = _count(monkeypatch, "_accumulate")
    weighted = []
    real = fista.build_gram

    def recorded(design, working, root_var=None):
        weighted.append(root_var is not None)
        return real(design, working, root_var)

    monkeypatch.setattr(fista, "build_gram", recorded)
    design = random_design(54, m=8, d=3, T=12, tau=2, family=family_name)
    result = ll.fit(design, family_name, structure, 0.05, 0.05)
    # every Gram is one pass of its own over the design
    assert builds == [] and len(passes) == len(weighted)
    if family_name == "gaussian":
        assert len(weighted) == result.outer_iterations and not any(weighted)
    else:
        # one curvature Gram per scoring model, at least one per inner solve
        assert len(weighted) >= result.outer_iterations and all(weighted)


def _dense_lipschitz(design, family, working, W):
    """2 * phi * lambda_max of the curvature, summed subject by subject."""
    root = np.sqrt(family.variance(family.mean(design.flat_design() @ W.ravel())))
    H, _, _ = _per_subject_gram(_weighted(design, root), working)
    return 2.0 * working.phi * np.linalg.eigvalsh(H)[-1]


@pytest.mark.parametrize(
    "family_name,structure,alpha", [("bernoulli", "ar1", 0.5), ("poisson", "exchangeable", 0.3)]
)
@pytest.mark.parametrize("warm", [False, True])
def test_lipschitz_matrix_free_matches_dense_curvature(family_name, structure, alpha, warm):
    family = get_family(family_name)
    design = random_design(36, m=6, d=3, T=9, tau=2, family=family_name)
    working = make_working(structure, alpha, 1.4, design.n)
    if warm:
        # the scoring model's Gram at a warm point
        W = np.random.default_rng(37).normal(0, 0.3, design.coef_shape)
        L = lipschitz_upper(design, family, working, gram=_curvature_gram(design, family, working, W))
    else:
        W = np.zeros(design.coef_shape)
        L = lipschitz_upper(design, family, working)
    assert L == pytest.approx(_dense_lipschitz(design, family, working, W), rel=1e-10)


def _curvature_gram(design, family, working, W):
    root = np.sqrt(family.variance(family.mean(fista.linear_predictor(design, W))))
    return build_gram(design, working, root).G


@pytest.mark.parametrize(
    "family_name,structure,alpha", [("bernoulli", "ar1", 0.5), ("poisson", "exchangeable", 0.3)]
)
def test_inner_solve_fixed_step_covers_warm_start(family_name, structure, alpha):
    family = get_family(family_name)
    design = random_design(38, m=6, d=3, T=9, tau=2, family=family_name)
    working = make_working(structure, alpha, 1.0, design.n)
    rng = np.random.default_rng(39)
    start = (rng.normal(0, 0.2, design.coef_shape), rng.normal(0, 0.2, design.coef_shape))
    config = InnerConfig(lam1=0.2, lam2=0.2, step_mode="fixed")
    result = inner_solve(design, family, working, config, start=start)
    # the first model is built at the warm start and steps at its exact bound
    warm = _dense_lipschitz(design, family, working, start[0] + start[1])
    assert result.lipschitz_bound == pytest.approx(warm, rel=1e-10)
    assert result.step_trace[0] == result.lipschitz_bound
    assert result.converged


def test_inner_solve_fixed_step_takes_warm_bound_above_cold():
    # Under a correlated R a smaller variance can raise the curvature: the
    # warm start saturates every odd time point, which leaves the
    # time-constant features weighted on alternate examples only, and
    # R^{-1} of AR(1) weighs such an alternating pattern far more than a
    # constant one.
    rng = np.random.default_rng(43)
    m, d, T = 6, 3, 9
    subjects = []
    for i in range(m):
        X = np.repeat(rng.normal(0, 1, (d, 1)), T, axis=1)
        X[0] = 0.0
        X[0, 1::2] = 1e-3
        y = (rng.uniform(size=T) < 0.5).astype(float)
        y[1::2] = 1.0
        subjects.append(SubjectSeries(id=f"s{i}", features=X, outcomes=y))
    dataset = LongitudinalDataset(tuple(subjects), tuple(f"f{j}" for j in range(d)))
    design = build_lagged(dataset, 1, False)
    family = get_family("bernoulli")
    working = make_working("ar1", 0.9, 1.0, design.n)
    U0 = np.zeros(design.coef_shape)
    U0[0, 0] = 1e4
    start = (U0, np.zeros(design.coef_shape))
    cold = lipschitz_upper(design, family, working)
    warm = lipschitz_upper(design, family, working, gram=_curvature_gram(design, family, working, U0))
    assert warm > 10.0 * cold
    assert warm == pytest.approx(_dense_lipschitz(design, family, working, U0), rel=1e-10)
    for step_mode in ("fixed", "backtracking"):
        config = InnerConfig(lam1=0.2, lam2=0.2, step_mode=step_mode)
        result = inner_solve(design, family, working, config, start=start)
        assert result.lipschitz_bound == warm
        assert result.converged
        assert np.all(np.isfinite(result.U)) and np.all(np.isfinite(result.V))
        if step_mode == "fixed":
            assert result.step_trace[0] == warm


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(2, 5),
    d=st.integers(1, 3),
    tau=st.integers(0, 2),
    extra=st.integers(2, 5),
    structure=st.sampled_from(["independent", "exchangeable", "tridiagonal", "ar1"]),
    position=st.floats(0.05, 0.95),
    lam=st.sampled_from([0.0, 0.05, 0.5]),
    step_mode=st.sampled_from(["backtracking", "fixed"]),
    warm=st.booleans(),
)
# p = 1 at lam = 0: every step at the bound is an exact tie of the majorization test
@example(seed=0, m=3, d=1, tau=0, extra=4, structure="ar1", position=0.7, lam=0.0,
         step_mode="backtracking", warm=True)
@example(seed=1, m=2, d=1, tau=0, extra=3, structure="independent", position=0.5, lam=0.0,
         step_mode="backtracking", warm=False)
def test_inner_solve_steps_never_exceed_the_bound(
    seed, m, d, tau, extra, structure, position, lam, step_mode, warm
):
    # every Gaussian solve is one model on the bound it reports
    design = build_lagged(random_panel(seed, m, d, tau + extra), tau, False)
    lo, hi = alpha_bounds(structure, design.n)
    working = make_working(structure, lo + position * (hi - lo), 1.0, design.n)
    rng = np.random.default_rng(seed)
    start = (rng.normal(size=design.coef_shape), rng.normal(size=design.coef_shape)) if warm else None
    config = InnerConfig(lam1=lam, lam2=lam, max_iterations=300, step_mode=step_mode)
    result = inner_solve(design, GAUSS, working, config, start=start)
    assert result.iterations > 0
    assert np.all(result.step_trace <= result.lipschitz_bound)
    if step_mode == "fixed":
        assert np.all(result.step_trace == result.lipschitz_bound)


def _rising_norm(monkeypatch):
    """Make every gradient-mapping norm the solver takes larger than the one before.

    The norms start high enough that each model solve stops early at its
    first iteration.
    """
    values = iter(range(10**6, 10**6 + 10_000))
    monkeypatch.setattr(fista, "_mapping_norm", lambda *args: float(next(values)))


def test_inner_solve_scoring_raises_when_norm_never_falls(monkeypatch):
    family = get_family("bernoulli")
    design = random_design(40, m=6, d=3, T=9, tau=2, family="bernoulli")
    working = make_working("ar1", 0.5, 1.0, design.n)
    _rising_norm(monkeypatch)
    calls = []
    real = fista._gradient_from_eta
    monkeypatch.setattr(fista, "_gradient_from_eta", lambda *args: calls.append(1) or real(*args))
    # a tolerance no halved step reaches, so only the halving cap ends the search
    config = InnerConfig(lam1=0.1, lam2=0.1, tolerance=1e-30)
    with pytest.raises(NumericalError, match="no valid step"):
        inner_solve(design, family, working, config)
    # the start, the model's step, then one per halving
    assert len(calls) == 2 + fista.MAX_BACKTRACKS


def test_inner_solve_scoring_stops_unconverged_when_halving_reaches_tolerance(monkeypatch):
    family = get_family("poisson")
    design = random_design(44, m=6, d=3, T=9, tau=2, family="poisson")
    working = make_working("exchangeable", 0.3, 1.0, design.n)
    rng = np.random.default_rng(45)
    start = (rng.normal(0, 0.2, design.coef_shape), rng.normal(0, 0.2, design.coef_shape))
    _rising_norm(monkeypatch)
    result = inner_solve(design, family, working, InnerConfig(lam1=0.1, lam2=0.1), start=start)
    assert not result.converged
    assert np.array_equal(result.U, start[0]) and np.array_equal(result.V, start[1])
    assert result.objective_trace.size == result.step_trace.size == result.iterations > 0


def test_inner_solve_gaussian_makes_no_design_matvec(monkeypatch):
    design = random_design(34)
    working = make_working("ar1", 0.3, 1.0, design.n)

    def forbidden(*args):
        raise AssertionError("Gaussian solves run on the Gram form")

    monkeypatch.setattr(fista, "linear_predictor", forbidden)
    result = inner_solve(design, GAUSS, working, InnerConfig(lam1=0.1, lam2=0.1))
    assert result.converged


def test_inner_solve_gram_large_outcome_offset_matches_plain_proximal():
    # Outcomes near 1e4 make c ~ 1.6e9 against a loss of ~1e3 at the
    # optimum: a backtracking test on loss differences then sees only
    # rounding noise and runs out of backtracks ("no valid step").
    rng = np.random.default_rng(21)
    subjects = []
    for i in range(5):
        X = np.vstack([np.ones(6), rng.normal(0, 1, (2, 6))])
        y = 1e4 + X[1] - 0.5 * X[2] + rng.normal(0, 0.5, 6)
        subjects.append(SubjectSeries(id=f"s{i}", features=X, outcomes=y))
    design = build_lagged(LongitudinalDataset(tuple(subjects), ("one", "a", "b")), 0)
    working = make_working("ar1", 0.4, 1.0, design.n)
    lam = 0.1
    assert build_gram(design, working).c > 1e6 * 1e3
    result = inner_solve(
        design, GAUSS, working, InnerConfig(lam1=lam, lam2=lam, max_iterations=5000, tolerance=1e-12)
    )
    assert result.converged
    L = lipschitz_upper(design, GAUSS, working)
    U = np.zeros(design.coef_shape)
    V = np.zeros(design.coef_shape)
    for _ in range(5000):
        g = fista.gradient_matrix(design, GAUSS, working, U + V)
        U = prox_row_groups(U - g / L, lam / L)
        V = prox_col_groups(V - g / L, lam / L)

    def f(U, V):
        return smooth_loss(design, GAUSS, working, U + V) + lam * norm_12_rows(U) + lam * norm_12_cols(V)

    assert abs(f(result.U, result.V) - f(U, V)) <= 1e-6


def test_inner_solve_scoring_rebuilds_stale_model_before_halving(monkeypatch):
    family = get_family("bernoulli")
    design = random_design(48, m=6, d=3, T=9, tau=2, family="bernoulli")
    working = make_working("ar1", 0.5, 1.0, design.n)
    # norms at the start, after a step on the first model (more than
    # halved, so the model is kept), after a failed step on that now stale
    # model, and after a step on the model rebuilt at the same point
    norms = [10e6, 4e6, 7e6, 3e6]
    monkeypatch.setattr(fista, "_mapping_norm", lambda *args: norms.pop(0))
    builds = []
    real = fista.build_gram
    monkeypatch.setattr(fista, "build_gram", lambda *args: builds.append(1) or real(*args))
    config = InnerConfig(lam1=0.1, lam2=0.1, max_iterations=3, tolerance=1e-30)
    result = inner_solve(design, family, working, config)
    assert norms == []
    assert len(builds) == 2
    assert result.iterations == 3 and not result.converged


@pytest.mark.parametrize(
    "family_name,structure,alpha,seed",
    [("poisson", "tridiagonal", 0.4, 24), ("bernoulli", "exchangeable", 0.6, 21)],
)
def test_inner_solve_scoring_certificate(family_name, structure, alpha, seed):
    family = get_family(family_name)
    design = random_design(seed, family=family_name)
    working = make_working(structure, alpha, 1.3, design.n)
    lam = 0.05
    config = InnerConfig(lam1=lam, lam2=lam, max_iterations=5000, tolerance=1e-12)
    result = inner_solve(design, family, working, config)
    assert result.converged
    # gradient-mapping norm at L = 1, zero exactly at a KKT point
    g = fista.gradient_matrix(design, family, working, result.U + result.V)
    dU = result.U - prox_row_groups(result.U - g, lam)
    dV = result.V - prox_col_groups(result.V - g, lam)
    assert math.sqrt(np.sum(dU * dU) + np.sum(dV * dV)) <= 1e-8


@pytest.mark.parametrize("family_name", ["gaussian", "bernoulli", "poisson"])
@pytest.mark.parametrize("structure,alpha", [("independent", 0.0), ("ar1", 0.5)])
@pytest.mark.parametrize("warm", [False, True])
def test_inner_solve_traces_have_one_entry_per_iteration(family_name, structure, alpha, warm):
    family = get_family(family_name)
    design = random_design(46, m=6, d=3, T=9, tau=2, family=family_name)
    working = make_working(structure, alpha, 1.1, design.n)
    start = None
    if warm:
        rng = np.random.default_rng(47)
        start = (rng.normal(0, 0.2, design.coef_shape), rng.normal(0, 0.2, design.coef_shape))
    for cap in (3, 2000):
        config = InnerConfig(lam1=0.1, lam2=0.1, max_iterations=cap)
        result = inner_solve(design, family, working, config, start=start)
        assert result.objective_trace.size == result.step_trace.size == result.iterations
        assert 0 < result.iterations <= cap
        assert np.all(np.isfinite(result.objective_trace))
