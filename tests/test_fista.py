import math

import numpy as np
import pytest

from longlasso import fista
from longlasso.correlation import make_working
from longlasso.dataset import LaggedDesign, LongitudinalDataset, SubjectSeries, build_lagged
from longlasso.errors import NumericalError
from longlasso.families import get_family
from longlasso.fista import (
    DesignSmooth,
    InnerConfig,
    build_gram,
    fista_step,
    gradient,
    initial_state,
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


def random_design(seed, m=4, d=3, T=8, tau=1, family="gaussian", include_lagged_outcome=False):
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(m):
        X = rng.normal(0, 1, (d, T))
        if family == "bernoulli":
            y = (rng.uniform(size=T) < 0.5).astype(float)
        elif family == "poisson":
            y = rng.poisson(1.5, T).astype(float)
        else:
            y = rng.normal(0, 1, T)
        subjects.append(SubjectSeries(id=f"s{i}", features=X, outcomes=y))
    ds = LongitudinalDataset(tuple(subjects), tuple(f"f{j}" for j in range(d)))
    return build_lagged(ds, tau, include_lagged_outcome)


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
    smooth = DesignSmooth(design, GAUSS, working)
    state = initial_state(smooth, L)
    g, _ = gradient(design, GAUSS, working, state.U_tilde, state.V_tilde)
    state = fista_step(state, g, config, smooth)
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
    smooth = DesignSmooth(design, GAUSS, working)
    state = initial_state(smooth, L, start=(U0, V0))
    assert np.array_equal(state.U_tilde, U0)
    assert np.array_equal(state.V_tilde, V0)
    g, _ = gradient(design, GAUSS, working, state.U_tilde, state.V_tilde)
    stepped = fista_step(state, g, config, smooth)
    assert np.allclose(stepped.U, prox_row_groups(U0 - g / L, config.lam1 / L))
    assert np.allclose(stepped.V, prox_col_groups(V0 - g / L, config.lam2 / L))
    assert np.allclose(stepped.eta, fista.linear_predictor(design, stepped.U + stepped.V))
    assert stepped.t == pytest.approx(momentum_update(1.0))
    assert stepped.k == 1


def test_fista_step_extrapolated_predictor_matches_matvec():
    design = random_design(20)
    working = make_working("ar1", 0.3, 1.0, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="fixed")
    smooth = DesignSmooth(design, GAUSS, working)
    state = initial_state(smooth, lipschitz_upper(design, GAUSS, working))
    for _ in range(5):
        g, _ = gradient(design, GAUSS, working, state.U_tilde, state.V_tilde)
        state = fista_step(state, g, config, smooth)
        direct = fista.linear_predictor(design, state.U_tilde + state.V_tilde)
        assert np.allclose(state.eta_tilde, direct, rtol=1e-12, atol=1e-12)


def test_fista_step_backtracking_grows_L():
    design = random_design(8)
    working = make_working("independent", 0.0, 1.0, design.n)
    L = lipschitz_upper(design, GAUSS, working)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="backtracking")
    smooth = DesignSmooth(design, GAUSS, working)
    state = initial_state(smooth, L / 64.0)
    g, _ = gradient(design, GAUSS, working, state.U_tilde, state.V_tilde)
    stepped = fista_step(state, g, config, smooth, backtrack=True)
    assert stepped.L > L / 64.0


def test_fista_step_no_valid_step_error():
    design = random_design(9)
    working = make_working("independent", 0.0, 1.0, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="backtracking")

    class Unbounded(DesignSmooth):
        # zero loss at the all-zero extrapolated point, infinite at every candidate
        def loss(self, eta, W=None):
            return np.inf if np.any(eta) else 0.0

    smooth = Unbounded(design, GAUSS, working)
    state = initial_state(smooth, 1.0)
    g, _ = gradient(design, GAUSS, working, state.U_tilde, state.V_tilde)
    with pytest.raises(NumericalError, match="no valid step"):
        fista_step(state, g, config, smooth, backtrack=True)


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
    working = make_working("ar1", 0.4, 1.0, design.n)
    result = inner_solve(design, get_family("bernoulli"), working, InnerConfig(lam1=0.2, lam2=0.2))
    assert np.all(np.isfinite(result.U))
    assert np.all(np.isfinite(result.objective_trace))
    # fixed bound in use: no scalar loss exists for this combination
    assert np.allclose(result.step_trace, result.lipschitz_bound)


def test_inner_solve_poisson_identity_backtracks():
    design = random_design(19, family="poisson")
    working = make_working("independent", 0.0, 1.0, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1, step_mode="fixed")  # poisson forces backtracking
    result = inner_solve(design, get_family("poisson"), working, config)
    assert result.converged
    assert np.all(np.isfinite(result.U))


def test_inner_config_validation():
    with pytest.raises(ValueError):
        InnerConfig(lam1=-1.0, lam2=0.0)
    with pytest.raises(ValueError):
        InnerConfig(lam1=0.0, lam2=0.0, tolerance=0.0)
    with pytest.raises(ValueError):
        InnerConfig(lam1=0.0, lam2=0.0, step_mode="adaptive")


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


STRUCTURES = [("independent", 0.0), ("exchangeable", 0.3), ("tridiagonal", 0.25), ("ar1", 0.5)]


@pytest.mark.parametrize("structure,alpha", STRUCTURES)
@pytest.mark.parametrize("lagged", [False, True])
@pytest.mark.parametrize("m,chunk", [(7, 3), (1, 2), (5, None)])
def test_build_gram_matches_per_subject_sums(structure, alpha, lagged, m, chunk, monkeypatch):
    design = random_design(30, m=m, d=3, T=8, tau=2, include_lagged_outcome=lagged)
    if chunk is not None:
        # a buffer of ``chunk`` subjects, so the last chunk is a partial one
        monkeypatch.setattr(fista, "GRAM_CHUNK_BYTES", chunk * 8 * design.n * design.n_params)
    working = make_working(structure, alpha, 1.3, design.n)
    system = build_gram(design, working)
    G, b, c = _per_subject_gram(design, working)
    assert np.array_equal(system.G, system.G.T)
    assert np.allclose(system.G, G, rtol=1e-12, atol=1e-12 * np.abs(G).max())
    assert np.allclose(system.b, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())
    assert system.c == pytest.approx(c, rel=1e-12)
    assert system.phi == 1.3


@pytest.mark.parametrize("per_example", [False, True])
def test_build_gram_variance_weighting_matches_per_subject_sums(per_example, monkeypatch):
    design = random_design(41, m=7, d=3, T=8, tau=2, include_lagged_outcome=True)
    monkeypatch.setattr(fista, "GRAM_CHUNK_BYTES", 3 * 8 * design.n * design.n_params)
    working = make_working("ar1", 0.5, 1.3, design.n)
    rng = np.random.default_rng(42)
    root_var = rng.uniform(0.2, 2.0, (design.m, design.n)) if per_example else 0.5
    system = build_gram(design, working, root_var)
    G, _, _ = _per_subject_gram(_weighted(design, np.broadcast_to(root_var, design.y.shape)), working)
    assert np.array_equal(system.G, system.G.T)
    assert np.allclose(system.G, G, rtol=1e-12, atol=1e-12 * np.abs(G).max())


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
        W = np.random.default_rng(37).normal(0, 0.3, design.coef_shape)
        L = lipschitz_upper(design, family, working, at=W)
    else:
        W = np.zeros(design.coef_shape)
        L = lipschitz_upper(design, family, working)
    assert L == pytest.approx(_dense_lipschitz(design, family, working, W), rel=1e-10)


@pytest.mark.parametrize(
    "family_name,structure,alpha", [("bernoulli", "ar1", 0.5), ("poisson", "exchangeable", 0.3)]
)
def test_inner_solve_fixed_step_covers_warm_start(family_name, structure, alpha):
    family = get_family(family_name)
    design = random_design(38, m=6, d=3, T=9, tau=2, family=family_name)
    working = make_working(structure, alpha, 1.0, design.n)
    rng = np.random.default_rng(39)
    start = (rng.normal(0, 0.2, design.coef_shape), rng.normal(0, 0.2, design.coef_shape))
    result = inner_solve(design, family, working, InnerConfig(lam1=0.2, lam2=0.2), start=start)
    cold = lipschitz_upper(design, family, working)
    warm = lipschitz_upper(design, family, working, at=start[0] + start[1])
    assert result.lipschitz_bound == max(cold, warm)
    assert np.allclose(result.step_trace, result.lipschitz_bound)


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
    warm = lipschitz_upper(design, family, working, at=U0)
    assert warm > 10.0 * cold
    assert warm == pytest.approx(_dense_lipschitz(design, family, working, U0), rel=1e-10)
    result = inner_solve(design, family, working, InnerConfig(lam1=0.2, lam2=0.2), start=start)
    assert result.lipschitz_bound == warm
    assert np.allclose(result.step_trace, warm)
    assert np.all(np.isfinite(result.U)) and np.all(np.isfinite(result.V))


def test_inner_solve_fixed_step_guard_grows_too_small_bound(monkeypatch):
    family = get_family("bernoulli")
    design = random_design(40, m=6, d=3, T=9, tau=2, family="bernoulli")
    working = make_working("ar1", 0.5, 1.0, design.n)
    config = InnerConfig(lam1=0.1, lam2=0.1)
    small = lipschitz_upper(design, family, working) / 2**10
    monkeypatch.setattr(fista, "lipschitz_upper", lambda *args, **kwargs: small)
    result = inner_solve(design, family, working, config)
    assert result.converged
    assert np.all(np.isfinite(result.U)) and np.all(np.isfinite(result.V))
    assert np.all(np.isfinite(result.objective_trace))
    # each guard trip restarts from the start with the step constant grown
    trips = np.round(np.log(result.step_trace / small) / math.log(fista.GROWTH))
    assert np.array_equal(result.step_trace, small * fista.GROWTH**trips)
    assert trips[0] >= 1
    assert np.all(np.diff(result.step_trace) >= 0.0)

    # GROWTH**MAX_BACKTRACKS is not enough to reach a usable step from here
    hopeless = small / fista.GROWTH**70
    monkeypatch.setattr(fista, "lipschitz_upper", lambda *args, **kwargs: hopeless)
    with pytest.raises(NumericalError, match="no valid step"):
        inner_solve(design, family, working, config)


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


def test_inner_solve_evaluates_each_candidate_loss_once(monkeypatch):
    design = random_design(35, family="bernoulli")
    working = make_working("independent", 0.0, 1.0, design.n)
    calls = []
    real = fista._smooth_from_eta

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fista, "_smooth_from_eta", counted)
    result = inner_solve(design, get_family("bernoulli"), working, InnerConfig(lam1=0.05, lam2=0.05))
    backtracks = np.log2(result.step_trace[-1] / (result.lipschitz_bound / fista.INIT_L_SHRINK))
    assert backtracks == int(backtracks)
    # one loss at the start, then per iteration one at the extrapolated
    # point and one per trial candidate; the trace reuses the accepted one
    assert len(calls) == 1 + 2 * result.iterations + int(backtracks)
