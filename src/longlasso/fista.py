"""Accelerated proximal-gradient inner solver with fixed working correlation.

The smooth part of the objective is the working-correlation-weighted
deviance; its descent gradient is the negated estimating function

    grad = -sum_i D_i^T Sigma_i^{-1} (y_i - mu_i),

applied to both the U and V slots (the linear predictor depends on U + V
only, so the two partials coincide).  Sigma_i^{-1} is evaluated in the
factored form phi * A^{-1/2} R^{-1} A^{-1/2} with A the variance-function
diagonal at the current iterate.

Iterates carry their linear predictor eta = X.W, and momentum acts on it
by linearity, so an iteration costs one design matvec (at the candidate)
plus one transposed matvec (the gradient at the extrapolated point).

A scalar monitored loss exists for the Gaussian family with any R and for
Bernoulli/Poisson under working independence; those cases support
majorization backtracking.  For Bernoulli/Poisson with a non-identity R
the estimating function is not the gradient of any scalar loss, so the
solver runs at the fixed upper bound and the generalized Pearson statistic
is reported in the trace; convergence is always declared on iterate
change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .correlation import WorkingCorrelation
from .dataset import LaggedDesign
from .errors import NumericalError
from .families import Family
from .penalty import norm_12_cols, norm_12_rows, prox_col_groups, prox_row_groups

L_FLOOR = 1e-8
POWER_ITER_STEPS = 200
POWER_ITER_TOL = 1e-6
# Step policy: backtracking starts from the upper bound over INIT_L_SHRINK;
# each failed majorization test, and each guard trip of the fixed step,
# multiplies the step constant by GROWTH, at most MAX_BACKTRACKS times.
INIT_L_SHRINK = 8.0
GROWTH = 2.0
MAX_BACKTRACKS = 60


@dataclass(frozen=True)
class InnerConfig:
    """Solver settings for one inner run.

    ``step_mode`` is "backtracking" or "fixed".  Backtracking starts from
    the upper bound divided by ``INIT_L_SHRINK`` and multiplies the step
    constant by ``GROWTH`` until the majorization inequality holds; it
    needs a scalar loss and silently behaves like "fixed" where none
    exists.  The Poisson family always backtracks (its gradient is only
    locally Lipschitz).
    """

    lam1: float
    lam2: float
    max_iterations: int = 2000
    tolerance: float = 1e-6
    step_mode: str = "backtracking"

    def __post_init__(self):
        if self.lam1 < 0.0 or self.lam2 < 0.0:
            raise ValueError("penalty weights must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.step_mode not in ("backtracking", "fixed"):
            raise ValueError("step_mode must be 'backtracking' or 'fixed'")


@dataclass(frozen=True)
class InnerState:
    """Iterate, extrapolation point, momentum scalar and step constant.

    Both points carry their linear predictor, so the extrapolated
    predictor follows from the iterates' by linearity.
    """

    U: np.ndarray
    V: np.ndarray
    eta: np.ndarray
    U_tilde: np.ndarray
    V_tilde: np.ndarray
    eta_tilde: np.ndarray
    t: float
    L: float
    k: int


def initial_state(design, L: float, start=None) -> InnerState:
    """Fresh state with t_1 = 1 and the first extrapolation at the start.

    The default start is the all-zero pair; a warm start supplies
    (U0, V0) without changing the first-iteration rule (U~1, V~1) =
    (U0, V0).
    """
    if start is None:
        U0 = np.zeros(design.coef_shape)
        V0 = np.zeros(design.coef_shape)
    else:
        U0 = np.array(start[0], dtype=float)
        V0 = np.array(start[1], dtype=float)
        if U0.shape != design.coef_shape or V0.shape != design.coef_shape:
            raise ValueError("warm start shape does not match the design")
    eta0 = linear_predictor(design, U0 + V0)
    return InnerState(
        U=U0, V=V0, eta=eta0, U_tilde=U0, V_tilde=V0, eta_tilde=eta0, t=1.0, L=float(L), k=0
    )


def momentum_update(t: float) -> float:
    """t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2; guarantees t_k >= (k+1)/2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def linear_predictor(design: LaggedDesign, W: np.ndarray) -> np.ndarray:
    """(m, n) matrix of trace inner products <X_(i;t), W>."""
    flat = design.flat_design().reshape(design.n_examples, design.n_params)
    return (flat @ np.ravel(W)).reshape(design.m, design.n)


def _gradient_from_eta(design, family: Family, working: WorkingCorrelation, eta):
    """Descent gradient -X^T (A Sigma^{-1} s) at the linear predictor eta."""
    mu = family.mean(eta)
    if not np.all(np.isfinite(mu)):
        raise NumericalError("non-finite mean in gradient evaluation")
    s = design.y - mu
    if family.kind == "gaussian":
        c = working.phi * (s @ working.R_inv)
    else:
        root = np.sqrt(family.variance(mu))
        c = working.phi * root * ((s / root) @ working.R_inv)
    flat = design.flat_design().reshape(design.n_examples, design.n_params)
    return -(flat.T @ c.ravel()).reshape(design.coef_shape)


def gradient_matrix(design, family: Family, working: WorkingCorrelation, W) -> np.ndarray:
    """Descent gradient of the weighted deviance with respect to W."""
    g = _gradient_from_eta(design, family, working, linear_predictor(design, W))
    g.setflags(write=False)
    return g


def gradient(design, family: Family, working: WorkingCorrelation, U_tilde, V_tilde):
    """Partial gradients for the U and V slots (identical matrices)."""
    g = gradient_matrix(design, family, working, np.asarray(U_tilde) + np.asarray(V_tilde))
    return g, g


def has_exact_loss(family: Family, working: WorkingCorrelation) -> bool:
    """Whether the monitored objective is an exact scalar loss."""
    return family.kind == "gaussian" or working.is_identity


def smooth_loss(design, family: Family, working: WorkingCorrelation, W) -> float:
    """Monitored smooth part at W.

    Gaussian: 0.5 * phi * sum_i s^T R^{-1} s (exact for every structure).
    Bernoulli/Poisson with identity R: the deviance-based loss
    phi * sum(sat(y) - y*eta + b(eta)), whose gradient matches the
    estimating function exactly.  Otherwise the generalized Pearson
    statistic 0.5 * phi * sum_i g^T R^{-1} g with g the variance-scaled
    residuals (reported, not minimized).
    """
    eta = linear_predictor(design, np.asarray(W, dtype=float))
    return _smooth_from_eta(design, family, working, eta)


def _smooth_from_eta(design, family, working, eta) -> float:
    y = design.y
    if family.kind == "gaussian":
        s = y - eta
        return float(0.5 * working.phi * np.sum((s @ working.R_inv) * s))
    if working.is_identity:
        unit = family.saturated_term(y) - y * eta + family.cumulant(eta)
        return float(working.phi * np.sum(unit))
    mu = family.mean(eta)
    root = np.sqrt(family.variance(mu))
    g = (y - mu) / root
    return float(0.5 * working.phi * np.sum((g @ working.R_inv) * g))


def penalized_objective(design, family, working, U, V, lam1: float, lam2: float) -> float:
    """Monitored smooth part plus both block penalties."""
    smooth = smooth_loss(design, family, working, np.asarray(U) + np.asarray(V))
    return smooth + lam1 * norm_12_rows(U) + lam2 * norm_12_cols(V)


def lipschitz_upper(design, family: Family, working: WorkingCorrelation, at=None) -> float:
    """Upper bound on the joint (U, V) Lipschitz constant of the gradient.

    Power iteration on the W-space Gauss-Newton curvature
    phi * X^T A^{1/2} R^{-1} A^{1/2} X, doubled because the U/V
    parameterization has joint Hessian [[H, H], [H, H]] with top
    eigenvalue 2*lambda_max(H).  ``at`` picks the evaluation point for
    the variance diagonal A; the default is the reference W = 0.
    """
    flat = design.flat_design().reshape(design.n_examples, design.n_params)
    if not np.any(flat):
        raise NumericalError("degenerate design")
    m, n = design.m, design.n
    if at is None:
        a0 = float(family.variance(family.mean(np.zeros(1)))[0])
        root = np.full((m, n), np.sqrt(a0))
    else:
        root = np.sqrt(family.variance(family.mean(linear_predictor(design, at))))
    phi = working.phi
    R_inv = working.R_inv

    def matvec(v):
        z = root * (flat @ v).reshape(m, n)
        return phi * (flat.T @ (root * (z @ R_inv)).ravel())

    rng = np.random.default_rng(0)
    v = rng.standard_normal(design.n_params)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_ITER_STEPS):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            lam = 0.0
            break
        lam_new = float(v @ w)
        v = w / norm
        if abs(lam_new - lam) <= POWER_ITER_TOL * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        lam = lam_new
    return max(2.0 * lam, L_FLOOR)


def fista_step(state: InnerState, grad, config: InnerConfig, design, loss=None) -> InnerState:
    """One accelerated step from the extrapolated point.

    Both prox slots step along the same W-gradient ``grad``, taken at the
    extrapolated point.  Each trial costs one design matvec, at the
    candidate.  Given ``loss`` (linear predictor -> smooth loss), the
    step constant grows until the majorization inequality holds;
    otherwise the step is taken at ``state.L``.  The next extrapolated
    predictor follows by linearity, without a matvec.
    """
    L = state.L
    loss_at_tilde = None if loss is None else loss(state.eta_tilde)
    for _ in range(MAX_BACKTRACKS + 1):
        U = prox_row_groups(state.U_tilde - grad / L, config.lam1 / L)
        V = prox_col_groups(state.V_tilde - grad / L, config.lam2 / L)
        eta = linear_predictor(design, U + V)
        if loss is None:
            break
        dU = U - state.U_tilde
        dV = V - state.V_tilde
        bound = (
            loss_at_tilde
            + float(np.sum(grad * dU) + np.sum(grad * dV))
            + 0.5 * L * float(np.sum(dU * dU) + np.sum(dV * dV))
        )
        if loss(eta) <= bound + 1e-10 * (1.0 + abs(loss_at_tilde)):
            break
        L *= GROWTH
    else:
        raise NumericalError("no valid step")
    t_next = momentum_update(state.t)
    shift = (state.t - 1.0) / t_next
    return InnerState(
        U=U,
        V=V,
        eta=eta,
        U_tilde=U + shift * (U - state.U),
        V_tilde=V + shift * (V - state.V),
        eta_tilde=eta + shift * (eta - state.eta),
        t=t_next,
        L=L,
        k=state.k + 1,
    )


@dataclass(frozen=True)
class InnerSolveResult:
    U: np.ndarray
    V: np.ndarray
    objective_trace: np.ndarray
    step_trace: np.ndarray
    iterations: int
    converged: bool
    lipschitz_bound: float


def inner_solve(
    design,
    family: Family,
    working: WorkingCorrelation,
    config: InnerConfig,
    start=None,
) -> InnerSolveResult:
    """Run the accelerated solver, by default from the all-zero start.

    Stops once the relative iterate change
    max(||U_k - U_{k-1}||, ||V_k - V_{k-1}||) / (1 + ||U_k|| + ||V_k||)
    drops below the tolerance, or at the iteration cap.  The trace holds
    the monitored objective at every iterate.  ``start`` may supply a
    warm-start pair (U0, V0).
    """
    if working.n != design.n:
        raise ValueError("working correlation size does not match the design")
    L_bound = lipschitz_upper(design, family, working)
    exact = has_exact_loss(family, working)
    if not exact and start is not None:
        # no scalar loss means no backtracking: the step bound must cover
        # the curvature where the solve actually runs, not just at W = 0
        warm = np.asarray(start[0]) + np.asarray(start[1])
        L_bound = max(L_bound, lipschitz_upper(design, family, working, at=warm))
    backtracking = exact and (config.step_mode == "backtracking" or family.kind == "poisson")
    origin = initial_state(design, L_bound / INIT_L_SHRINK if backtracking else L_bound, start)

    def smooth(eta):
        return _smooth_from_eta(design, family, working, eta)

    def objective(state):
        penalty = config.lam1 * norm_12_rows(state.U) + config.lam2 * norm_12_cols(state.V)
        return smooth(state.eta) + penalty

    guard_cap = 100.0 * (1.0 + abs(objective(origin)))
    guard_trips = 0
    state = origin
    objective_trace = []
    step_trace = []
    converged = False
    for _ in range(config.max_iterations):
        grad = _gradient_from_eta(design, family, working, state.eta_tilde)
        previous = state
        state = fista_step(state, grad, config, design, loss=smooth if backtracking else None)
        value = objective(state)
        if not backtracking and (not np.isfinite(value) or value > guard_cap):
            # the fixed step constant is too optimistic; grow it and
            # restart the pass from the original start point
            guard_trips += 1
            if guard_trips > MAX_BACKTRACKS:
                raise NumericalError("no valid step")
            state = replace(origin, L=state.L * GROWTH)
            continue
        if not np.isfinite(value):
            raise NumericalError("objective diverged")
        objective_trace.append(value)
        step_trace.append(state.L)
        delta = max(
            float(np.linalg.norm(state.U - previous.U)),
            float(np.linalg.norm(state.V - previous.V)),
        )
        denom = 1.0 + float(np.linalg.norm(state.U)) + float(np.linalg.norm(state.V))
        if delta / denom < config.tolerance:
            converged = True
            break
    return InnerSolveResult(
        U=state.U,
        V=state.V,
        objective_trace=np.asarray(objective_trace),
        step_trace=np.asarray(step_trace),
        iterations=state.k,
        converged=converged,
        lipschitz_bound=L_bound,
    )
