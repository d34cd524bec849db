"""Accelerated proximal-gradient inner solver with fixed working correlation.

The smooth part of the objective is the working-correlation-weighted
deviance; its descent gradient is the negated estimating function

    grad = -sum_i D_i^T Sigma_i^{-1} (y_i - mu_i),

applied to both the U and V slots (the linear predictor depends on U + V
only, so the two partials coincide).  Sigma_i^{-1} is evaluated in the
factored form phi * A^{-1/2} R^{-1} A^{-1/2} with A the variance-function
diagonal at the current iterate.

The family picks one of two backends for the smooth part; both carry a
predictor with every iterate, and momentum acts on it by linearity.

- Gaussian (``GramSmooth``): the smooth part is the quadratic
  0.5 * phi * (w^T G w - 2 b^T w + c) with the Gram
  G = X^T (I_m kron R^{-1}) X (p x p, p = d_eff * (tau+1)),
  b = X^T (I_m kron R^{-1}) y and c = y^T (I_m kron R^{-1}) y.
  ``build_gram`` forms them once per inner solve, whitening a few
  subjects at a time into one reusable buffer and accumulating G with a
  rank-k update, so it holds one p x p float64 array plus that buffer
  and never a whitened copy of the design.  Iterates carry G w, so an
  iteration costs one p x p matvec.  Backtracking uses the exact
  curvature form of the majorization test; comparing loss values would
  subtract numbers of the size of c, which can exceed the loss at the
  optimum by seven orders of magnitude.
- Bernoulli/Poisson (``DesignSmooth``): matrix-free.  Iterates carry
  eta = X.W, so an iteration costs one design matvec (at the candidate)
  plus one transposed matvec (the gradient at the extrapolated point).
  A scalar loss exists under working independence, where backtracking
  compares loss values.  With a non-identity R the estimating function
  is not the gradient of any scalar loss, so the solver runs at the
  fixed step 1/L and the generalized Pearson statistic is reported in
  the trace.

Every step bound L = 2 * phi * lambda_max(H) is exact: H is the p x p
curvature Gram, which ``build_gram`` forms (for Gaussian solves it is G
itself; otherwise the same pass weights each example by the square root
of its variance), and its top eigenvalue comes from one LAPACK call.

Convergence is always declared on iterate change.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import blas, eigh

from .correlation import WorkingCorrelation, spd_cholesky
from .dataset import LaggedDesign
from .errors import NumericalError
from .families import Family
from .penalty import norm_12_cols, norm_12_rows, prox_col_groups, prox_row_groups

L_FLOOR = 1e-8
# Step policy: backtracking starts from the Lipschitz bound over INIT_L_SHRINK;
# each failed majorization test, and each guard trip of the fixed step,
# multiplies the step constant by GROWTH, at most MAX_BACKTRACKS times.
INIT_L_SHRINK = 8.0
GROWTH = 2.0
MAX_BACKTRACKS = 60
# size of the whitening buffer build_gram fills a few subjects at a time
GRAM_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class InnerConfig:
    """Solver settings for one inner run.

    ``step_mode`` is "backtracking" or "fixed".  Backtracking starts from
    the Lipschitz bound divided by ``INIT_L_SHRINK`` and multiplies the step
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

    Both points carry their predictor (eta = X.W matrix-free, G w in Gram
    form), so the extrapolated predictor follows from the iterates' by
    linearity.  ``loss`` is the monitored smooth loss at the iterate.
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
    loss: float


@dataclass(frozen=True)
class DesignSmooth:
    """Smooth part evaluated through the N x p design; the predictor is eta = X.W."""

    design: LaggedDesign
    family: Family
    working: WorkingCorrelation

    @property
    def coef_shape(self) -> tuple[int, int]:
        return self.design.coef_shape

    def predictor(self, W) -> np.ndarray:
        return linear_predictor(self.design, W)

    def gradient(self, eta) -> np.ndarray:
        return _gradient_from_eta(self.design, self.family, self.working, eta)

    def loss(self, eta, W=None) -> float:
        return _smooth_from_eta(self.design, self.family, self.working, eta)

    def step_test(self, state: InnerState, grad):
        """Majorization test from ``state``'s extrapolated point, by loss values.

        The returned test maps (dU, dV, eta, L) of a candidate to (holds,
        loss at the candidate).
        """
        at_tilde = self.loss(state.eta_tilde)
        slack = 1e-10 * (1.0 + abs(at_tilde))

        def test(dU, dV, eta, L):
            value = self.loss(eta)
            bound = (
                at_tilde
                + float(np.sum(grad * dU) + np.sum(grad * dV))
                + 0.5 * L * float(np.sum(dU * dU) + np.sum(dV * dV))
            )
            return value <= bound + slack, value

        return test


@dataclass(frozen=True)
class GramSmooth:
    """Gaussian smooth part 0.5 * phi * (w^T G w - 2 b^T w + c); the predictor is G w.

    ``b`` has the coefficient shape; ``G`` is p x p over the row-major
    flattened coefficients.
    """

    G: np.ndarray
    b: np.ndarray
    c: float
    phi: float

    @property
    def coef_shape(self) -> tuple[int, int]:
        return self.b.shape

    def predictor(self, W) -> np.ndarray:
        return (self.G @ np.ravel(W)).reshape(self.b.shape)

    def gradient(self, Gw) -> np.ndarray:
        return self.phi * (Gw - self.b)

    def loss(self, Gw, W) -> float:
        return float(0.5 * self.phi * (self.c - 2.0 * np.sum(self.b * W) + np.sum(W * Gw)))

    def step_test(self, state: InnerState, grad):
        """Exact curvature form of the majorization test.

        For a quadratic, f(x) - f(y) - <grad, x - y> = 0.5 * phi * <G d, d>
        with d = x - y = dU + dV, and G d is the difference of the held
        predictors, so the test costs no product and no loss value.
        """

        def test(dU, dV, Gw, L):
            curvature = self.phi * float(np.sum((Gw - state.eta_tilde) * (dU + dV)))
            return curvature <= L * float(np.sum(dU * dU) + np.sum(dV * dV)), None

        return test


def build_gram(design: LaggedDesign, working: WorkingCorrelation, root_var=None) -> GramSmooth:
    """Gram form of the Gaussian smooth part at this working correlation.

    G = sum_i X_i^T R^{-1} X_i, b = sum_i X_i^T R^{-1} y_i and
    c = sum_i y_i^T R^{-1} y_i, with X_i subject i's n x p example matrix.
    A chunk of subjects at a time is whitened by C^T, where R^{-1} = C C^T
    is the Cholesky factorization, into one reusable buffer of about
    ``GRAM_CHUNK_BYTES``, and G is accumulated from it with a rank-k
    update.  ``root_var``, the square root of a variance diagonal (a
    scalar, or one entry per example in an (m, n) array), weights each
    subject's examples as X_i -> A_i^{1/2} X_i; G is then the curvature
    Gram H of ``lipschitz_upper``, and only G is meaningful.
    """
    m, n, p = design.m, design.n, design.n_params
    chunk = min(max(1, GRAM_CHUNK_BYTES // (8 * n * p)), m)
    flat = design.flat_design()
    root = spd_cholesky(working.R_inv, "inverse working correlation")
    scale = None if root_var is None else np.broadcast_to(root_var, (m, n))
    G = np.zeros((p, p), order="F")
    b = np.zeros(p)
    c = 0.0
    buffer = np.empty((chunk, n, p))
    for first in range(0, m, chunk):
        k = min(chunk, m - first)
        block = slice(first, first + k)
        y = design.y[block]
        whiten = root.T
        if scale is not None:
            # C^T A_i^{1/2}, one n x n factor per subject
            whiten = root.T * scale[block, None, :]
        rows = np.matmul(whiten, flat[block], out=buffer[:k]).reshape(k * n, p)
        white_y = (y @ root).ravel()
        # rows.T is a Fortran-ordered view, so dsyrk reads the buffer in place
        G = blas.dsyrk(1.0, rows.T, beta=1.0, c=G, overwrite_c=1)
        b += rows.T @ white_y
        c += float(white_y @ white_y)
    del buffer, rows
    _mirror_upper(G)
    return GramSmooth(G=G, b=b.reshape(design.coef_shape), c=c, phi=working.phi)


def _mirror_upper(G: np.ndarray, block: int = 128) -> None:
    """Copy the upper triangle into the lower one, a block of rows at a time."""
    p = G.shape[0]
    for j in range(0, p, block):
        end = min(j + block, p)
        G[j:end, :j] = G[:j, j:end].T
        diag = G[j:end, j:end]
        diag[...] = np.triu(diag) + np.triu(diag, 1).T


def initial_state(smooth, L: float, start=None) -> InnerState:
    """Fresh state with t_1 = 1 and the first extrapolation at the start.

    ``smooth`` is a DesignSmooth or GramSmooth.  The default start is the
    all-zero pair; a warm start supplies (U0, V0) without changing the
    first-iteration rule (U~1, V~1) = (U0, V0).
    """
    shape = smooth.coef_shape
    if start is None:
        U0 = np.zeros(shape)
        V0 = np.zeros(shape)
    else:
        U0 = np.array(start[0], dtype=float)
        V0 = np.array(start[1], dtype=float)
        if U0.shape != shape or V0.shape != shape:
            raise ValueError("warm start shape does not match the design")
    W0 = U0 + V0
    eta0 = smooth.predictor(W0)
    return InnerState(
        U=U0,
        V=V0,
        eta=eta0,
        U_tilde=U0,
        V_tilde=V0,
        eta_tilde=eta0,
        t=1.0,
        L=float(L),
        k=0,
        loss=smooth.loss(eta0, W0),
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


def lipschitz_upper(
    design, family: Family, working: WorkingCorrelation, at=None, gram=None
) -> float:
    """Joint (U, V) Lipschitz constant of the gradient, 2 * phi * lambda_max(H).

    H = sum_i X_i^T A_i^{1/2} R^{-1} A_i^{1/2} X_i is the W-space
    Gauss-Newton curvature, with A_i the variance-function diagonal at
    ``at`` (default the reference W = 0, where A = a0 * I).  The U/V
    parameterization has joint Hessian phi * [[H, H], [H, H]], whose top
    eigenvalue is 2 * phi * lambda_max(H).  ``build_gram`` forms H with
    the variance weighting; given ``gram``, the Gaussian Gram G of this
    design and working correlation (A = I), G serves as H.  The top
    eigenvalue comes from one LAPACK call on H.
    """
    own = gram is None
    if own:
        if at is None:
            root_var = math.sqrt(float(family.variance(family.mean(np.zeros(1)))[0]))
        else:
            root_var = np.sqrt(family.variance(family.mean(linear_predictor(design, at))))
        gram = build_gram(design, working, root_var).G
    if not np.any(gram):
        raise NumericalError("degenerate design")
    p = gram.shape[0]
    # LAPACK may work in place on a Gram built here, not on the caller's
    top = eigh(gram, eigvals_only=True, subset_by_index=[p - 1, p - 1], overwrite_a=own)[0]
    return max(2.0 * working.phi * float(top), L_FLOOR)


def fista_step(
    state: InnerState, grad, config: InnerConfig, smooth, backtrack: bool = False
) -> InnerState:
    """One accelerated step from the extrapolated point.

    Both prox slots step along the same W-gradient ``grad``, taken at the
    extrapolated point.  Each trial costs one ``smooth.predictor``
    product, at the candidate.  With ``backtrack`` the step constant
    grows until ``smooth``'s majorization test holds; otherwise the step
    is taken at ``state.L``.  The next extrapolated predictor follows by
    linearity, without a product, and the new state carries the smooth
    loss at its iterate (the value the test computed, when it did).
    """
    L = state.L
    test = smooth.step_test(state, grad) if backtrack else None
    loss = None
    for _ in range(MAX_BACKTRACKS + 1):
        U = prox_row_groups(state.U_tilde - grad / L, config.lam1 / L)
        V = prox_col_groups(state.V_tilde - grad / L, config.lam2 / L)
        W = U + V
        eta = smooth.predictor(W)
        if test is None:
            break
        holds, loss = test(U - state.U_tilde, V - state.V_tilde, eta, L)
        if holds:
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
        loss=smooth.loss(eta, W) if loss is None else loss,
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

    Gaussian solves run on the Gram form, built once here; the other
    families run matrix-free on the design.  Stops once the relative
    iterate change
    max(||U_k - U_{k-1}||, ||V_k - V_{k-1}||) / (1 + ||U_k|| + ||V_k||)
    drops below the tolerance, or at the iteration cap.  The trace holds
    the monitored objective at every iterate.  ``start`` may supply a
    warm-start pair (U0, V0).
    """
    if working.n != design.n:
        raise ValueError("working correlation size does not match the design")
    exact = has_exact_loss(family, working)
    if family.kind == "gaussian":
        smooth = build_gram(design, working)
        L_bound = lipschitz_upper(design, family, working, gram=smooth.G)
    else:
        smooth = DesignSmooth(design, family, working)
        L_bound = lipschitz_upper(design, family, working)
        if not exact and start is not None:
            # no scalar loss means no backtracking: the step bound must
            # cover the curvature where the solve actually runs, not just
            # at W = 0
            warm = np.asarray(start[0]) + np.asarray(start[1])
            L_bound = max(L_bound, lipschitz_upper(design, family, working, at=warm))
    backtracking = exact and (config.step_mode == "backtracking" or family.kind == "poisson")
    origin = initial_state(smooth, L_bound / INIT_L_SHRINK if backtracking else L_bound, start)

    def objective(state):
        penalty = config.lam1 * norm_12_rows(state.U) + config.lam2 * norm_12_cols(state.V)
        return state.loss + penalty

    guard_cap = 100.0 * (1.0 + abs(objective(origin)))
    guard_trips = 0
    state = origin
    objective_trace = []
    step_trace = []
    converged = False
    for _ in range(config.max_iterations):
        grad = smooth.gradient(state.eta_tilde)
        previous = state
        state = fista_step(state, grad, config, smooth, backtracking)
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
