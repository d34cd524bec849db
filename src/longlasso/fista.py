"""Accelerated proximal-gradient inner solver with fixed working correlation.

The smooth part of the objective is the working-correlation-weighted
deviance; its descent gradient is the negated estimating function

    grad = -sum_i D_i^T Sigma_i^{-1} (y_i - mu_i),

applied to both the U and V slots (the linear predictor depends on U + V
only, so the two partials coincide).  Sigma_i^{-1} is evaluated in the
factored form phi * A^{-1/2} R^{-1} A^{-1/2} with A the variance-function
diagonal at the current iterate.

Every family runs one accelerated loop on one backend, ``GramSmooth``:
the quadratic 0.5 * phi * (w^T G w - 2 b^T w + c) over a p x p Gram G
(p = d_eff * (tau+1)).  ``build_gram`` forms G a few whitened subjects at
a time with a rank-k update, so it holds one p x p array plus a small
buffer.  Iterates carry G w, so an iteration costs one p x p matvec, and
backtracking uses the exact curvature form of the majorization test
(comparing loss values would subtract numbers of the size of c).

- Gaussian: the quadratic is the smooth part itself, with
  G = X^T (I_m kron R^{-1}) X, b = X^T (I_m kron R^{-1}) y and
  c = y^T (I_m kron R^{-1}) y: one solve on one Gram.
- Bernoulli/Poisson: penalized Fisher scoring, since under a non-identity
  R the estimating function is the gradient of no scalar loss.  Each
  outer step solves the model at the current point w with G = H, the
  curvature Gram sum_i X_i^T A_i^{1/2} R^{-1} A_i^{1/2} X_i (GEE's Fisher
  information over phi), b = H w - grad / phi and c = 0, stopping early
  once the model's own gradient mapping is below ``EARLY_STOP`` times the
  outer one.  The step is accepted when the gradient-mapping norm
  ||L0 (x - prox(x - grad / L0))||, L0 fixed per solve, does not rise.
  Otherwise H is rebuilt at the current point, and a step that fails on
  a fresh H is halved toward it.  H is also rebuilt after an accepted
  step that left the norm above ``STALL`` times its value.

Every step bound L = 2 * phi * lambda_max(H) is exact, from one LAPACK
call on the curvature Gram (G itself for Gaussian solves).  Convergence
is declared on iterate change between consecutive iterates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, eigh

from .correlation import WorkingCorrelation, spd_cholesky
from .dataset import LaggedDesign
from .errors import NumericalError
from .families import Family
from .penalty import norm_12_cols, norm_12_rows, prox_col_groups, prox_row_groups

L_FLOOR = 1e-8
# Step policy: backtracking starts from the Lipschitz bound over INIT_L_SHRINK;
# each failed majorization test multiplies the step constant by GROWTH, at
# most MAX_BACKTRACKS times.  A scoring step that fails on a fresh model is
# halved toward the current point at most MAX_BACKTRACKS times.
INIT_L_SHRINK = 8.0
GROWTH = 2.0
MAX_BACKTRACKS = 60
# a scoring step that leaves the gradient-mapping norm above STALL times its
# value rebuilds the model; a model solve stops once its own mapping is below
# EARLY_STOP times the outer one
STALL = 0.5
EARLY_STOP = 0.1
# size of the whitening buffer build_gram fills a few subjects at a time
GRAM_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class InnerConfig:
    """Solver settings for one inner run.

    ``step_mode`` is "backtracking" or "fixed", for every family.
    Backtracking starts each quadratic solve from its Lipschitz bound
    divided by ``INIT_L_SHRINK`` and multiplies the step constant by
    ``GROWTH`` until the majorization inequality holds; "fixed" steps at
    the bound.  ``max_iterations`` caps the accelerated iterations of one
    inner solve, summed over all of its quadratic models.
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

    Both points carry their predictor G w, so the extrapolated predictor
    follows from the iterates' by linearity.  ``loss`` is the quadratic's
    value at the iterate.
    """

    U: np.ndarray
    V: np.ndarray
    eta: np.ndarray
    U_tilde: np.ndarray
    V_tilde: np.ndarray
    eta_tilde: np.ndarray
    t: float
    L: float
    loss: float


@dataclass(frozen=True)
class GramSmooth:
    """Quadratic smooth part 0.5 * phi * (w^T G w - 2 b^T w + c); the predictor is G w.

    ``b`` has the coefficient shape; ``G`` is p x p over the row-major
    flattened coefficients.
    """

    G: np.ndarray
    b: np.ndarray
    c: float
    phi: float

    def predictor(self, W) -> np.ndarray:
        return (self.G @ np.ravel(W)).reshape(self.b.shape)

    def gradient(self, Gw) -> np.ndarray:
        return self.phi * (Gw - self.b)

    def loss(self, Gw, W) -> float:
        return float(0.5 * self.phi * (self.c - 2.0 * np.sum(self.b * W) + np.sum(W * Gw)))


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
    Gram H of ``lipschitz_upper`` and of the scoring model, and only G is
    meaningful.
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


def _start_pair(shape, start) -> tuple[np.ndarray, np.ndarray]:
    """The all-zero pair, or a checked copy of the warm start (U0, V0)."""
    if start is None:
        return np.zeros(shape), np.zeros(shape)
    U0, V0 = (np.array(half, dtype=float) for half in start)
    if U0.shape != shape or V0.shape != shape:
        raise ValueError("warm start shape does not match the design")
    return U0, V0


def initial_state(smooth: GramSmooth, L: float, start=None) -> InnerState:
    """Fresh state with t_1 = 1 and the first extrapolation at the start.

    The default start is the all-zero pair; a warm start supplies
    (U0, V0) without changing the first-iteration rule
    (U~1, V~1) = (U0, V0).
    """
    U0, V0 = _start_pair(smooth.b.shape, start)
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


def smooth_loss(design, family: Family, working: WorkingCorrelation, W) -> float:
    """Smooth part at W, where a scalar loss exists.

    Gaussian: 0.5 * phi * sum_i s^T R^{-1} s (exact for every structure).
    Bernoulli/Poisson with identity R: the deviance-based loss
    phi * sum(sat(y) - y*eta + b(eta)), whose gradient matches the
    estimating function exactly.  Bernoulli/Poisson under any other R
    have no scalar loss whose gradient is the estimating function, and
    raise ``ValueError``.
    """
    if family.kind != "gaussian" and not working.is_identity:
        raise ValueError(f"no scalar loss for {family.kind} outcomes under a non-identity R")
    y = design.y
    eta = linear_predictor(design, np.asarray(W, dtype=float))
    if family.kind == "gaussian":
        s = y - eta
        return float(0.5 * working.phi * np.sum((s @ working.R_inv) * s))
    unit = family.saturated_term(y) - y * eta + family.cumulant(eta)
    return float(working.phi * np.sum(unit))


def penalized_objective(design, family, working, U, V, lam1: float, lam2: float) -> float:
    """Smooth part plus both block penalties."""
    smooth = smooth_loss(design, family, working, np.asarray(U) + np.asarray(V))
    return smooth + lam1 * norm_12_rows(U) + lam2 * norm_12_cols(V)


def lipschitz_upper(design, family: Family, working: WorkingCorrelation, gram=None) -> float:
    """Joint (U, V) Lipschitz constant of the gradient, 2 * phi * lambda_max(H).

    H = sum_i X_i^T A_i^{1/2} R^{-1} A_i^{1/2} X_i is the W-space
    Gauss-Newton curvature, built by ``build_gram`` with A_i the
    variance-function diagonal at W = 0 (A = a0 * I) unless ``gram``
    supplies it: the Gaussian Gram G, or a scoring model's H at its own
    point.  The U/V parameterization has joint Hessian
    phi * [[H, H], [H, H]], whose top eigenvalue is 2 * phi * lambda_max(H).
    """
    own = gram is None
    if own:
        root_var = math.sqrt(float(family.variance(family.mean(np.zeros(1)))[0]))
        gram = build_gram(design, working, root_var).G
    if not np.any(gram):
        raise NumericalError("degenerate design")
    p = gram.shape[0]
    # LAPACK may work in place on a Gram built here, not on the caller's
    top = eigh(gram, eigvals_only=True, subset_by_index=[p - 1, p - 1], overwrite_a=own)[0]
    return max(2.0 * working.phi * float(top), L_FLOOR)


def fista_step(
    state: InnerState, grad, config: InnerConfig, smooth: GramSmooth, backtrack: bool = False
) -> InnerState:
    """One accelerated step from the extrapolated point.

    Both prox slots step along the same W-gradient ``grad``, taken at the
    extrapolated point.  Each trial costs one ``smooth.predictor``
    product, at the candidate.  With ``backtrack`` the step constant
    grows until the majorization test holds; otherwise the step is taken
    at ``state.L``.  The test is exact in curvature form: for a quadratic,
    f(x) - f(y) - <grad, x - y> = 0.5 * phi * <G d, d> with
    d = x - y = dU + dV, and G d is the difference of the held
    predictors, so it costs no product and no loss value.  The next
    extrapolated predictor follows by linearity, and the new state
    carries the smooth loss at its iterate.
    """
    L = state.L
    for _ in range(MAX_BACKTRACKS + 1):
        U = prox_row_groups(state.U_tilde - grad / L, config.lam1 / L)
        V = prox_col_groups(state.V_tilde - grad / L, config.lam2 / L)
        W = U + V
        eta = smooth.predictor(W)
        if not backtrack:
            break
        dU = U - state.U_tilde
        dV = V - state.V_tilde
        curvature = smooth.phi * float(np.sum((eta - state.eta_tilde) * (dU + dV)))
        if curvature <= L * float(np.sum(dU * dU) + np.sum(dV * dV)):
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
        loss=smooth.loss(eta, W),
    )


@dataclass(frozen=True)
class InnerSolveResult:
    """One inner solve.  Both traces hold one entry per counted iteration.

    ``objective_trace`` holds the penalized value after each iteration:
    the objective itself for Gaussian solves, and for Bernoulli/Poisson
    the penalized value of the quadratic model the iteration ran on, so
    entries of different models do not compare.  ``converged`` means the
    iterate-change rule held before ``max_iterations`` ran out;
    ``lipschitz_bound`` is the step bound at the start.
    """

    U: np.ndarray
    V: np.ndarray
    objective_trace: np.ndarray
    step_trace: np.ndarray
    iterations: int
    converged: bool
    lipschitz_bound: float


def _relative_change(U, V, U_prev, V_prev) -> float:
    """max(||U - U_prev||, ||V - V_prev||) / (1 + ||U|| + ||V||)."""
    delta = max(float(np.linalg.norm(U - U_prev)), float(np.linalg.norm(V - V_prev)))
    return delta / (1.0 + float(np.linalg.norm(U)) + float(np.linalg.norm(V)))


def _model_solve(smooth: GramSmooth, L: float, start, config: InnerConfig, trace, floor=0.0):
    """Accelerated iterations on one quadratic from ``start``; returns (U, V, converged).

    The step starts at the bound ``L`` (over ``INIT_L_SHRINK`` when
    backtracking).  Each iteration appends its penalized value and step
    constant to ``trace``, a pair of lists, until the lists hold
    ``max_iterations`` entries, the iterate-change rule holds, or, given a
    positive ``floor``, the gradient mapping at the extrapolated point,
    L * ||(U, V) - (U~, V~)||, drops below it.
    """
    backtracking = config.step_mode == "backtracking"
    state = initial_state(smooth, L / INIT_L_SHRINK if backtracking else L, start)
    objective_trace, step_trace = trace
    while len(objective_trace) < config.max_iterations:
        grad = smooth.gradient(state.eta_tilde)
        previous = state
        state = fista_step(state, grad, config, smooth, backtracking)
        penalty = config.lam1 * norm_12_rows(state.U) + config.lam2 * norm_12_cols(state.V)
        value = state.loss + penalty
        if not np.isfinite(value):
            raise NumericalError("objective diverged")
        objective_trace.append(value)
        step_trace.append(state.L)
        if _relative_change(state.U, state.V, previous.U, previous.V) < config.tolerance:
            return state.U, state.V, True
        if floor > 0.0:
            dU = state.U - previous.U_tilde
            dV = state.V - previous.V_tilde
            if state.L * math.sqrt(float(np.sum(dU * dU) + np.sum(dV * dV))) < floor:
                break
    return state.U, state.V, False


def _mapping_norm(U, V, grad, config: InnerConfig, L: float) -> float:
    """||L ((U, V) - prox((U, V) - grad / L))||, zero exactly at a KKT point."""
    dU = U - prox_row_groups(U - grad / L, config.lam1 / L)
    dV = V - prox_col_groups(V - grad / L, config.lam2 / L)
    return L * math.sqrt(float(np.sum(dU * dU) + np.sum(dV * dV)))


def _scoring_solve(design, family: Family, working: WorkingCorrelation, config, start, trace):
    """Penalized Fisher scoring for Bernoulli/Poisson; returns (U, V, converged, L0)."""

    def curvature(eta):
        # the model's Gram and step bound at the point with predictor eta
        H = build_gram(design, working, np.sqrt(family.variance(family.mean(eta)))).G
        return H, lipschitz_upper(design, family, working, gram=H)

    def at(U, V):
        # predictor, gradient and gradient-mapping norm of a point
        eta = linear_predictor(design, U + V)
        grad = _gradient_from_eta(design, family, working, eta)
        return eta, grad, _mapping_norm(U, V, grad, config, L0)

    U, V = _start_pair(design.coef_shape, start)
    eta = linear_predictor(design, U + V)
    H, L = curvature(eta)
    L0 = L
    grad = _gradient_from_eta(design, family, working, eta)
    norm = _mapping_norm(U, V, grad, config, L0)
    fresh = True
    while len(trace[0]) < config.max_iterations:
        if H is None:
            H, L = curvature(eta)
            fresh = True
        # the model matches the gradient at (U, V); passed unnamed, it is
        # gone before H is rebuilt, so two H never coexist
        b = (H @ np.ravel(U + V)).reshape(U.shape) - grad / working.phi
        U_new, V_new, settled = _model_solve(
            GramSmooth(G=H, b=b, c=0.0, phi=working.phi), L, (U, V), config, trace, EARLY_STOP * norm
        )
        eta_new, grad_new, norm_new = at(U_new, V_new)
        if norm_new > norm:
            if not fresh:
                H = None
                continue
            if settled:
                # the fresh model's steps fell below the tolerance: keep the better point
                return U, V, True, L0
            for _ in range(MAX_BACKTRACKS):
                U_new = U + 0.5 * (U_new - U)
                V_new = V + 0.5 * (V_new - V)
                if _relative_change(U_new, V_new, U, V) < config.tolerance:
                    # halved below the tolerance and the norm never fell
                    return U, V, False, L0
                eta_new, grad_new, norm_new = at(U_new, V_new)
                if norm_new <= norm:
                    break
            else:
                raise NumericalError("no valid step")
        if norm_new > STALL * norm:
            H = None
        fresh = False
        U, V, eta, grad, norm = U_new, V_new, eta_new, grad_new, norm_new
        if settled:
            return U, V, True, L0
    return U, V, False, L0


def inner_solve(
    design,
    family: Family,
    working: WorkingCorrelation,
    config: InnerConfig,
    start=None,
) -> InnerSolveResult:
    """Run the accelerated solver, by default from the all-zero start.

    Gaussian solves run on the Gram form, built once here; the other
    families run penalized Fisher scoring on the curvature Gram.  A solve
    stops once the relative iterate change
    max(||U_k - U_{k-1}||, ||V_k - V_{k-1}||) / (1 + ||U_k|| + ||V_k||)
    of an iteration drops below the tolerance, or at the iteration cap.
    ``start`` may supply a warm-start pair (U0, V0).
    """
    if working.n != design.n:
        raise ValueError("working correlation size does not match the design")
    trace = ([], [])
    if family.kind == "gaussian":
        smooth = build_gram(design, working)
        L_bound = lipschitz_upper(design, family, working, gram=smooth.G)
        U, V, converged = _model_solve(smooth, L_bound, start, config, trace)
    else:
        U, V, converged, L_bound = _scoring_solve(design, family, working, config, start, trace)
    return InnerSolveResult(
        U=U,
        V=V,
        objective_trace=np.asarray(trace[0]),
        step_trace=np.asarray(trace[1]),
        iterations=len(trace[0]),
        converged=converged,
        lipschitz_bound=L_bound,
    )
