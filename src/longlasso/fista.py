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
(p = d_eff * (tau+1)).  Iterates carry G w, so an iteration costs one
p x p matvec, and backtracking uses the exact curvature form of the
majorization test (comparing loss values would subtract numbers of the
size of c).

The design holds each subject's features once, in its (m, T, d_eff)
window ``LaggedDesign.X``: its dataset's feature panel, or with the lagged
outcome one array of the design's own.  Every design read here works from
it: X_i, subject i's n x p example matrix, is never held whole.

Every Gram has the form sum_i X_i^T A_i^{1/2} C C^T A_i^{1/2} X_i for an
n x r factor C and a variance diagonal A; ``build_gram`` makes them all,
reading the design in one accumulator, ``_accumulate``: a chunk of subjects
at a time is whitened into one 1 MB buffer and added with one ``dsyrk``.
By the identity the chunk's example rows are copied out of the window
straight into the buffer; by a factor each subject's rows are copied into
one n x p array and whitened from there with one ``dgemm``.

- Gaussian: the quadratic is the smooth part itself, with
  G = X^T (I_m kron R^{-1}) X, b = X^T (I_m kron R^{-1}) y and
  c = y^T (I_m kron R^{-1}) y: one solve on one Gram.  For the
  independent, exchangeable and AR(1) structures R^{-1}(alpha) is a fixed
  combination sum_k w_k C_k C_k^T of alpha-free factors
  (``correlation.inverse_terms``: the identity, the ones column or the
  adjacent-sum factor, and AR(1)'s edge factor), so the Gram is the
  weighted sum sum_k w_k G_k of a frozen ``GramBasis`` built, one
  accumulator pass per factor, on the first Gaussian solve on a design
  and kept by the solver for as long as the design lives
  (``_gram_bases``): up to three p x p arrays.  Every later outer round,
  and every CV cell on the same fold design, then costs one p x p scale
  and an axpy per further term, and reads no design row.  Tridiagonal
  R^{-1} is dense and not affine in alpha, and has no such terms, so each
  tridiagonal solve makes one accumulator pass, whitening by the Cholesky
  factor of R^{-1}.
- Bernoulli/Poisson: penalized Fisher scoring, since under a non-identity
  R the estimating function is the gradient of no scalar loss.  Each
  outer step solves the model at the current point w with G = H, the
  curvature Gram sum_i X_i^T A_i^{1/2} R^{-1} A_i^{1/2} X_i (GEE's Fisher
  information over phi) from ``build_gram`` given A^{1/2}, with its step
  bound, b = H w - grad / phi and c = 0, stopping early once the model's
  own gradient mapping is below ``EARLY_STOP`` times the outer one.  The
  step is accepted when the gradient-mapping norm
  ||L0 (x - prox(x - grad / L0))||, L0 the first model's bound, fixed per
  solve, does not rise.  Otherwise H is rebuilt at the current point, and
  a step that fails on a fresh H is halved toward it.  H is also rebuilt
  after an accepted step that left the norm above ``STALL`` times its
  value.

Every quadratic carries its own step bound L = 2 * phi * lambda_max(G),
set by ``build_gram`` where the Gram is made and read from there by every
solve: one Lanczos iteration on G (``_top_eigenvalue``) whose one product
is the Gram's own ``dsymv``, O(p^2) work per step against the O(p^3)
tridiagonal reduction of a dense eigensolve, exact to rounding.  A Gram is
its diagonal and upper triangle, the part every product reads; its lower
triangle holds no state and nothing reads or writes it.  At R = I a
Gaussian quadratic is the basis's own G0, b0 and c0, whose lambda_max the
basis finds once, when it is built, so the CV cells of one fold share one
eigensolve and one Gram for their alpha = 0 rounds.  Convergence is
declared on iterate change between consecutive iterates.

Every quadratic solve has one step rule: its step constant never exceeds
the bound.  Backtracking starts at the bound over ``INIT_L_SHRINK`` and
doubles, capped at the bound, until the majorization test holds; at the
bound the step is accepted without the test, since the bound majorizes
the quadratic exactly, and FISTA with backtracking keeps its O(1/k^2)
rate for any constants at or below it (Beck & Teboulle 2009).  "fixed"
starts, and stays, at the bound.  So a model step takes at most
log2(``INIT_L_SHRINK``) + 1 trials and cannot fail, and a test that
rounds against the step at an exact tie cannot push the constant past
the bound.

Each model solve is one ``InnerState``, made once with its buffers: U, V
and G (U + V) in one (3, d_eff, tau+1) array per point (iterate, previous
iterate, extrapolation point), the solve's one gradient buffer and a few
scratch arrays of the same size, O(p) in all.  The state also fixes the
quadratic, the penalty weights and the step policy, so ``fista_step``
reads the state alone: it forms the gradient at the extrapolated
predictor and writes every result into the buffers, so an iteration
costs the p x p matvec plus about thirty NumPy calls on p-element arrays
and allocates no array.

Which BLAS runs what: every product large enough for OpenBLAS to thread
runs on ``scipy.linalg.blas``, the library that already runs ``dsyrk``
and ``daxpy`` here, and never on NumPy's ``matmul``.  The NumPy and SciPy
wheels each bundle their own OpenBLAS, and each keeps a thread pool that
busy-waits for a while after a call, so a fit that alternates between the
two libraries has one pool spinning on the CPUs the other one needs: in a
paper-scale fit on 2 CPUs a dense eigensolve took 0.09-0.19 s, against
0.05 s on an idle pool.

- Gram products run ``dsymv``, which reads the diagonal and the upper
  triangle of G alone: the iteration's G w (``fista_step``, in place into
  the point's predictor), each Lanczos step of a step bound
  (``_top_eigenvalue``) and every other one (``GramSmooth.predictor``, a
  scoring model's H w among them).  The paper's p = 1000 Gram is 8 MB,
  its upper triangle 4 MB, which fits the L2 caches of two cores: on a
  2-CPU Xeon a product took 85 us against 170 us for ``dgemv`` over the
  whole G.  The results equal NumPy's ``G @ w`` to rounding, not bit for
  bit.
- Rectangular products run ``dgemv`` or ``dgemm``.  The design products
  read the window in place: X w (``linear_predictor``) is one ``dgemm``
  of the window by W and tau shifted adds, and X^T c
  (``estimating_function``) one ``dgemm`` of the window's transpose by the
  residuals placed at each lag's shift.  They sum each example's lags in
  another order than NumPy's ``matmul`` over the example rows, so they
  equal it to rounding, not bit for bit.  The accumulator whitens each
  subject by a factor with one ``dgemm`` (by the identity it only scales
  the rows), and its sums equal the per-subject sums to rounding, not
  NumPy's ``matmul`` bit for bit.

OpenBLAS's threaded ``dsymv`` gives each thread a block of G and adds
their partial products, so the bits of a fit depend on the BLAS thread
count; at a fixed thread count every output is the same from run to run.
The products left to NumPy are n x n correlation products and O(p) dot
products; at the paper's sizes they stay below OpenBLAS's threading
thresholds.

SciPy is imported on the first of these calls, not with this module
(``_lazy.LazyModule``; ``families`` and ``correlation`` load
``scipy.special`` and ``scipy.linalg`` the same way), so ``import
longlasso`` loads no SciPy module and a CLI command pays for it only when
it calls it: ``simulate``, ``fit``, ``cv`` and ``predict`` do, and
``evaluate`` never does.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from ._lazy import LazyModule
from .correlation import WorkingCorrelation, inverse_terms, spd_cholesky
from .dataset import LaggedDesign
from .errors import NumericalError, check_finite
from .families import Family
from .penalty import group_scales, norm_12_cols, norm_12_rows, prox_col_groups, prox_row_groups

blas = LazyModule("scipy.linalg.blas")
lapack = LazyModule("scipy.linalg.lapack")

# Step rule: backtracking starts from the Lipschitz bound over INIT_L_SHRINK;
# each failed majorization test multiplies the step constant by GROWTH,
# capped at the bound, where the step is accepted untested.  A scoring step
# that fails on a fresh model is halved toward the current point at most
# MAX_BACKTRACKS times.
INIT_L_SHRINK = 8.0
GROWTH = 2.0
MAX_BACKTRACKS = 60
# a scoring step that leaves the gradient-mapping norm above STALL times its
# value rebuilds the model; a model solve stops once its own mapping is below
# EARLY_STOP times the outer one
STALL = 0.5
EARLY_STOP = 0.1
# size of the whitened rows the Gram accumulator fills a chunk of subjects
# at a time
GRAM_CHUNK_BYTES = 1 << 20
# the top-eigenvalue Lanczos iteration stops once its top Ritz pair's
# residual is at most RITZ_TOL times the Ritz value
RITZ_TOL = 1e-10
# each design's (structure, GramBasis), one structure at a time, freed with
# the design.  A basis follows from the design's X and y alone, and each
# solve keeps the basis it read, so threads that share a design get the
# same results as one thread; fits of different structures at once only
# rebuild it.
_gram_bases = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class InnerConfig:
    """Solver settings for one inner run.

    ``step_mode`` is "backtracking" or "fixed", for every family, and
    sets only where a quadratic solve's step constant starts: at the
    solve's Lipschitz bound divided by ``INIT_L_SHRINK``, or at the bound.
    From there the constant is multiplied by ``GROWTH``, capped at the
    bound, until the majorization inequality holds; a step at the bound
    is taken untested, so "fixed" steps at the bound throughout.
    ``max_iterations`` caps the accelerated iterations of one inner solve,
    summed over all of its quadratic models.
    """

    lam1: float
    lam2: float
    max_iterations: int = 2000
    tolerance: float = 1e-6
    step_mode: str = "backtracking"

    def __post_init__(self):
        check_finite("lam1", self.lam1)
        check_finite("lam2", self.lam2)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        check_finite("tolerance", self.tolerance, positive=True)
        if self.step_mode not in ("backtracking", "fixed"):
            raise ValueError("step_mode must be 'backtracking' or 'fixed'")


class InnerState:
    """One model solve: its quadratic, points, momentum scalar, step constant and buffers.

    Each point is one (3, d_eff, tau+1) array stacking U, V and the
    predictor G (U + V): ``Z`` the iterate, ``Z_prev`` the one before it and
    ``Z_tilde`` the extrapolation point.  A new state has t_1 = 1 and all
    three points at the start: the all-zero pair, or a checked copy of the
    warm start ``start`` = (U0, V0).  It fixes once what every step of the
    solve reads: the quadratic ``smooth``, whose ``L`` is the step bound,
    and the per-group penalty weights of ``config``.  Its step constant
    starts at the bound over ``INIT_L_SHRINK`` under backtracking and at
    the bound itself under "fixed", and never exceeds it.  The state owns
    the solve's one gradient buffer beside scratch arrays of a point's
    size, O(p) in all, and ``fista_step`` advances it in place, writing
    each candidate into the point it no longer needs, so a solve allocates
    no array per iteration.  After a step, ``loss`` and ``penalty`` are the
    quadratic and the block penalty at the iterate, ``change`` is the
    relative iterate change max(||dU||, ||dV||) / (1 + ||U|| + ||V||) and
    ``mapping`` the gradient mapping L * ||(U, V) - (U~, V~)|| at the
    extrapolation point the step left.
    """

    __slots__ = (
        "Z", "Z_prev", "Z_tilde", "t", "L", "loss", "penalty", "change", "mapping",
        "_smooth", "_grad", "_diff", "_work", "_W", "_norms", "_scales", "_weights",
        "_thetas", "_floors",
    )

    def __init__(self, smooth: "GramSmooth", config: InnerConfig, start=None):
        U0, V0 = _start_pair(smooth.b.shape, start)
        d, k = U0.shape
        Z = np.empty((3, d, k))
        Z[0] = U0
        Z[1] = V0
        W = np.ravel(U0 + V0)
        Z[2] = smooth.predictor(W)
        self.Z, self.Z_prev, self.Z_tilde = Z, Z.copy(), Z.copy()
        self.t = 1.0
        self.loss = self.penalty = self.change = self.mapping = math.nan
        self._smooth = smooth
        self._grad = np.empty((d, k))
        self._diff = np.empty_like(Z)
        self._work = np.empty((2, d, k))
        self._W = W
        # one entry per group: the d rows of U, then the tau+1 columns of V
        self._norms, self._scales, self._weights, self._thetas, self._floors = np.empty((5, d + k))
        self._weights[:d] = config.lam1
        self._weights[d:] = config.lam2
        self._set_step(smooth.L / INIT_L_SHRINK if config.step_mode == "backtracking" else smooth.L)

    U = property(lambda self: self.Z[0])
    V = property(lambda self: self.Z[1])

    def _set_step(self, L: float) -> None:
        """Step constant L, with the thresholds lam / L and their floors."""
        self.L = L
        np.divide(self._weights, L, out=self._thetas)
        np.copyto(self._floors, self._thetas)
        self._floors[self._thetas == 0.0] = 1.0


@dataclass(frozen=True)
class GramSmooth:
    """Quadratic smooth part 0.5 * phi * (w^T G w - 2 b^T w + c); the predictor is G w.

    ``b`` has the coefficient shape; ``G`` is p x p over the row-major
    flattened coefficients and holds the Gram in its diagonal and upper
    triangle, the part every product with it, ``dsymv``, reads, the
    Lanczos steps of its step bound among them; its lower triangle holds
    no state and is never read or written.  G is held Fortran-ordered, as
    every Gram here is built, so each product reads it in place: any other
    G is copied into Fortran order once, when the quadratic is made.

    ``L`` is the step bound of every solve on the quadratic,
    2 * phi * lambda_max(G) as ``build_gram`` sets it; it must be finite
    and positive (``ValueError`` otherwise).
    """

    G: np.ndarray
    b: np.ndarray
    c: float
    phi: float
    L: float

    def __post_init__(self):
        # positive after the shrink too, so that doubling reaches the bound
        if not (math.isfinite(self.L) and self.L / INIT_L_SHRINK > 0.0):
            raise ValueError(f"step bound L must be finite and positive, got {self.L!r}")
        object.__setattr__(self, "G", np.asfortranarray(self.G, dtype=float))

    def predictor(self, W) -> np.ndarray:
        return blas.dsymv(1.0, self.G, np.ravel(W), lower=0).reshape(self.b.shape)

    def gradient(self, Gw, out=None) -> np.ndarray:
        out = np.subtract(Gw, self.b, out=out)
        return np.multiply(self.phi, out, out=out)

    def loss(self, Gw, W) -> float:
        return float(0.5 * self.phi * (self.c - 2.0 * np.vdot(self.b, W) + np.vdot(W, Gw)))


def _accumulate(design: LaggedDesign, factor=None, root_var=None):
    """A fresh (G, b, c) of sum_i (C^T A_i^{1/2} X_i)^T (C^T A_i^{1/2} X_i) and its y terms.

    That is G = sum_i X_i^T A_i^{1/2} C C^T A_i^{1/2} X_i in the upper
    triangle of a new zero Fortran-ordered p x p array, b = sum_i
    (C^T A_i^{1/2} X_i)^T C^T A_i^{1/2} y_i and c = sum_i ||C^T A_i^{1/2}
    y_i||^2, where X_i is subject i's n x p example matrix, ``factor`` the
    n x r C (None for the identity) and ``root_var`` the square root of a
    variance diagonal A, a scalar or one entry per example in an (m, n)
    array (None for A = I).

    A chunk of subjects at a time, as many as fit ``GRAM_CHUNK_BYTES`` of
    whitened rows (r per subject), is whitened into one reusable buffer and
    added with one rank-k update, so a call holds one p x p array, that
    buffer and, for a factor, one subject's example rows.  Where C is the
    identity (``factor`` None) the example rows X_i are copied out of the
    design's window (``LaggedDesign.lagged_rows``) straight into the
    chunk's buffer, and scaled there in place by A_i^{1/2}, row by row, as
    are the outcomes.  Otherwise each subject's rows are copied, one
    subject at a time, into an n x p array, and C^T A_i^{1/2} X_i is one
    ``dgemm`` from there into the chunk's buffer, computed transposed,
    X_i^T (C^T A_i^{1/2})^T into the Fortran-ordered view of the
    subject's r x p block, with the weight transposed by the BLAS.
    """
    m, n, p = design.m, design.n, design.n_params
    r = n if factor is None else factor.shape[1]
    chunk = min(max(1, GRAM_CHUNK_BYTES // (8 * r * p)), m)
    scale = None if root_var is None else np.broadcast_to(root_var, (m, n))
    G = np.zeros((p, p), order="F")
    b = np.zeros(p)
    c = 0.0
    buffer = np.empty((chunk, r, p))
    lagged = None if factor is None else np.empty((1, n, p))
    for first in range(0, m, chunk):
        k = min(chunk, m - first)
        block = slice(first, first + k)
        y = design.y[block]
        if scale is not None:
            y = y * scale[block]
        if factor is None:
            design.lagged_rows(first, buffer[:k])
            if scale is not None:
                buffer[:k] *= scale[block, :, None]
        else:
            for i in range(k):
                X = design.lagged_rows(first + i, lagged)[0]
                # the r x n weight C^T A_i^{1/2}
                whiten = factor.T if scale is None else factor.T * scale[first + i]
                blas.dgemm(1.0, X.T, whiten, trans_b=1, c=buffer[i].T, overwrite_c=1)
            y = y @ factor
        rows = buffer[:k].reshape(k * r, p)
        white_y = y.ravel()
        # added afterwards: beta = 1 would sum the product into b in another order
        b += blas.dgemv(1.0, rows.T, white_y)
        c += float(white_y @ white_y)
        # rows.T is a Fortran-ordered view, so dsyrk reads the rows in place
        G = blas.dsyrk(1.0, rows.T, beta=1.0, c=G, overwrite_c=1)
    return G, b, c


@dataclass(frozen=True, eq=False)
class GramBasis:
    """The alpha-free terms of one structure's Gaussian Gram on one design.

    Entry k of ``G``, ``b`` and ``c`` is the ``_accumulate`` sum of factor
    C_k of ``correlation.inverse_terms``: G_k = sum_i X_i^T C_k C_k^T X_i
    and the matching X^T y and y^T y terms.  ``G[0]`` is
    G0 = sum_i X_i^T X_i; the others are the Grams of the per-subject
    column sums (exchangeable), or of the adjacent-row sums and of each
    subject's first and last rows (AR(1)).  Each holds its Gram in the
    diagonal and upper triangle, like every Gram here.  ``top0`` is
    lambda_max(G0), the step bound's eigenvalue at R = I, from one
    ``_top_eigenvalue`` Lanczos run on G0.  The basis and its arrays are read-only, so the fits that
    share a design share it, and the R = I quadratic is G0 itself.
    """

    G: tuple
    b: np.ndarray
    c: np.ndarray
    top0: float


def _build_basis(design: LaggedDesign, factors) -> GramBasis:
    """The ``GramBasis`` of ``factors``: one ``_accumulate`` pass each, and lambda_max(G0)."""
    G, b, c = zip(*(_accumulate(design, factor) for factor in factors))
    top0 = _top_eigenvalue(G[0])
    b, c = np.array(b), np.array(c)
    for array in (*G, b, c):
        array.setflags(write=False)
    return GramBasis(G=G, b=b, c=c, top0=top0)


def build_gram(design: LaggedDesign, working: WorkingCorrelation, root_var=None) -> GramSmooth:
    """The quadratic over G = sum_i X_i^T A_i^{1/2} R^{-1} A_i^{1/2} X_i, with b, c and its step bound.

    X_i is subject i's n x p example matrix and ``root_var`` A^{1/2}: a
    scalar, one entry per example in an (m, n) array, or None for A = I,
    the Gaussian smooth part.  With A = I and a structure whose R^{-1}
    ``correlation.inverse_terms`` decomposes, G, b and c are sum_k w_k G_k
    over the design's ``GramBasis`` (built on the first call and kept in
    ``_gram_bases``, one structure at a time) with the weights of those
    terms: one p x p scale and an axpy per further term into a new G, and
    no design row read.  At R = I (round 0 of every fit, and every
    independent round) the weights are 1 for G0 and 0 for every other
    term, so the quadratic is the basis's own read-only G0, b0 and c0 with
    the bound 2 * phi * ``top0``: no p x p array is made, and the CV cells
    of one fold share one eigensolve for their alpha = 0 rounds.  Otherwise
    (every tridiagonal solve, the curvature Gram H of ``lipschitz_upper``,
    which reads L alone, and that of each scoring model, whose b and c the
    caller replaces) it is one ``_accumulate`` pass with C the Cholesky
    factor of R^{-1} = C C^T.  Every G holds its Gram in the diagonal and
    upper triangle, and off R = I on the basis its step bound
    L = 2 * phi * lambda_max(G) takes one ``_top_eigenvalue`` of G: a
    Lanczos iteration on ``dsymv`` products, which reads G and writes
    nothing.
    """
    terms = inverse_terms(working.structure, working.R_inv) if root_var is None else None
    if terms is not None:
        structure, basis = _gram_bases.get(design, (None, None))
        if structure != working.structure:
            basis = _build_basis(design, [factor for factor, _ in terms])
            _gram_bases[design] = (working.structure, basis)
        if working.is_identity:
            return GramSmooth(G=basis.G[0], b=basis.b[0].reshape(design.coef_shape), c=float(basis.c[0]),
                              phi=working.phi, L=2.0 * working.phi * basis.top0)
        weights = np.array([weight for _, weight in terms])
        G = basis.G[0] * weights[0]
        for term, weight in zip(basis.G[1:], weights[1:]):
            if weight != 0.0:
                # in place on G's memory: no p x p temporary
                blas.daxpy(term.reshape(-1, order="F"), G.reshape(-1, order="F"), a=weight)
        b = weights @ basis.b
        c = float(weights @ basis.c)
    else:
        factor = None if working.is_identity else spd_cholesky(working.R_inv, "inverse working correlation")
        G, b, c = _accumulate(design, factor, root_var)
    L = 2.0 * working.phi * _top_eigenvalue(G)
    return GramSmooth(G=G, b=b.reshape(design.coef_shape), c=c, phi=working.phi, L=L)


def _start_pair(shape, start) -> tuple[np.ndarray, np.ndarray]:
    """The all-zero pair, or a checked copy of the warm start (U0, V0)."""
    if start is None:
        return np.zeros(shape), np.zeros(shape)
    U0, V0 = (np.array(half, dtype=float) for half in start)
    if U0.shape != shape or V0.shape != shape:
        raise ValueError("warm start shape does not match the design")
    return U0, V0


def momentum_update(t: float) -> float:
    """t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2; guarantees t_k >= (k+1)/2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def linear_predictor(design: LaggedDesign, W: np.ndarray) -> np.ndarray:
    """(m, n) matrix of trace inner products <X_(i;t), W>.

    One ``dgemm`` multiplies the design's window by W, giving every window
    row's product with each lag column of W, and example (i, j) adds lag
    k's product at row tau + j - k: tau shifted adds.  The lagged-outcome
    row's lag-0 entry of W is read as zero, so it moves no prediction.
    """
    m, n, tau = design.m, design.n, design.tau
    W = np.array(W, dtype=float).reshape(design.coef_shape)
    if design.include_lagged_outcome:
        W[-1, 0] = 0.0
    window = design.X.reshape(-1, design.d_eff)
    # a Fortran-ordered (m T, tau+1) product, so per_lag[k] is the window times W[:, k]
    per_lag = blas.dgemm(1.0, window.T, W.T, trans_a=1, trans_b=1).T.reshape(tau + 1, m, -1)
    eta = per_lag[0, :, tau:].copy()
    for k in range(1, tau + 1):
        eta += per_lag[k, :, tau - k : tau - k + n]
    return eta


def estimating_function(design, working: WorkingCorrelation, s, root):
    """X^T (phi A^{1/2} R^{-1} A^{-1/2} s) for residuals s, shaped like W.

    ``root`` holds the per-example standard deviations A^{1/2}, all ones
    for Gaussian outcomes.  The weighted residuals c are placed at each
    lag's shift, c[i, j] at window row tau + j - k of lag column k, and
    one ``dgemm`` multiplies them by the design's window.  The
    lagged-outcome row's lag-0 entry is exactly 0.
    """
    c = working.phi * root * ((s / root) @ working.R_inv)
    m, n, tau = design.m, design.n, design.tau
    shifted = np.zeros((tau + 1, m, design.X.shape[1]))
    for k in range(tau + 1):
        shifted[k, :, tau - k : tau - k + n] = c
    window = design.X.reshape(-1, design.d_eff)
    # a Fortran-ordered (tau+1, d_eff) product, transposed to a C-ordered W
    g = blas.dgemm(1.0, shifted.reshape(tau + 1, -1).T, window.T, trans_a=1, trans_b=1).T
    if design.include_lagged_outcome:
        g[-1, 0] = 0.0
    return g


def _gradient_from_eta(design, family: Family, working: WorkingCorrelation, eta):
    """Descent gradient -X^T (A Sigma^{-1} s) at the linear predictor eta."""
    mu = family.mean(eta)
    if not np.all(np.isfinite(mu)):
        raise NumericalError("non-finite mean in gradient evaluation")
    return -estimating_function(design, working, design.y - mu, np.sqrt(family.variance(mu)))


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


def lipschitz_upper(design, family: Family, working: WorkingCorrelation) -> float:
    """Joint (U, V) Lipschitz constant of the gradient at W = 0, 2 * phi * lambda_max(H).

    H = sum_i X_i^T A_i^{1/2} R^{-1} A_i^{1/2} X_i is the W-space
    Gauss-Newton curvature with A_i the variance-function diagonal at
    W = 0 (A = a0 * I), and the bound is the ``L`` of its ``build_gram``
    quadratic.  The U/V parameterization has joint Hessian
    phi * [[H, H], [H, H]], whose top eigenvalue is 2 * phi * lambda_max(H):
    features rescaled by s scale it by s^2, and outcomes rescaled by s
    scale it, through phi, by 1/s^2.
    """
    root_var = math.sqrt(float(family.variance(family.mean(np.zeros(1)))[0]))
    return build_gram(design, working, root_var).L


def _top_eigenvalue(G: np.ndarray) -> float:
    """lambda_max of the Gram held in G's diagonal and upper triangle, by Lanczos on ``dsymv``.

    A plain three-term Lanczos iteration whose one product is ``dsymv`` on
    G's diagonal and upper triangle, like every Gram product here: G is
    only read, and its lower triangle never.  It starts from a fixed dense
    vector, a Gaussian draw of seed 0, since the ones vector or a unit
    vector can be orthogonal to a Gram's top eigenvector.  After step k the
    top eigenpair (theta, s) of the k x k Lanczos tridiagonal (LAPACK's
    ``dstemr``) is the top Ritz pair, whose residual is beta_k |s_k|, and
    the iteration stops once that is at most ``RITZ_TOL`` times theta.  From
    a random start the top Ritz value reaches lambda_max with high
    probability (Kuczynski & Wozniakowski 1992) at O(p^2) work per step,
    against the O(p^3) tridiagonal reduction of a dense eigensolve; the
    Grams of the quickstart CV (p = 250) and the paper fit (p = 1000)
    took 39-102 steps and agreed with ``dsyevr`` to rounding.
    No state carries from one call to the next, so a bound does not depend
    on call history and two calls on one G give the same bits.

    G must be a Gram (positive semidefinite), as every curvature Gram here
    is; an all-zero one (a degenerate design) or a non-finite diagonal
    raises ``NumericalError``, and so does a non-finite product or a rule
    that has not held by step 2p, twice the steps that end the iteration
    in exact arithmetic.
    """
    diag = np.diagonal(G)
    # a Gram's off-diagonal entries are bounded by its diagonal ones, so
    # the diagonal alone shows a non-finite or an all-zero Gram
    if not np.all(np.isfinite(diag)):
        raise NumericalError("non-finite curvature Gram")
    if not np.any(diag):
        raise NumericalError("degenerate design")
    p = G.shape[0]
    q = np.random.default_rng(0).standard_normal(p)
    q /= math.sqrt(q @ q)
    q_prev = np.zeros(p)
    alphas, betas = np.zeros((2, 2 * p))
    beta = 0.0
    for k in range(1, 2 * p + 1):
        w = blas.dsymv(1.0, G, q, lower=0)
        alphas[k - 1] = alpha = q @ w
        # any non-finite entry of the product makes alpha non-finite
        if not math.isfinite(alpha):
            break
        w -= alpha * q
        w -= beta * q_prev
        betas[k - 1] = beta = math.sqrt(w @ w)
        # dstemr overwrites its off-diagonal argument
        _, theta, s, info = lapack.dstemr(alphas[:k], betas[:k].copy(), 2, 0.0, 0.0, k, k)
        if info != 0 or not math.isfinite(theta[0]):
            break
        if beta * abs(s[k - 1, 0]) <= RITZ_TOL * theta[0]:
            return float(theta[0])
        q_prev, q = q, w / beta
    raise NumericalError("no top eigenvalue of the curvature Gram")


def fista_step(state: InnerState) -> InnerState:
    """One accelerated step from the extrapolated point, in place; returns ``state``.

    The step forms the quadratic's gradient at the extrapolated predictor
    into the state's buffer, and both prox slots step along it: one op
    forms Z~ - grad / L for U and V together, and the row norms of U's and
    the column norms of V's step come from one array of squares.  Each
    trial costs one predictor product, at the candidate, written into the
    point before last.  Below the quadratic's bound the step constant, and
    the thresholds lam / L with it, doubles until the majorization test holds,
    capped at the bound; a step at the bound is accepted untested, so a
    step takes at most log2(``INIT_L_SHRINK``) + 1 trials and never fails.
    The test is exact in curvature form: for a quadratic,
    f(x) - f(y) - <grad, x - y> = 0.5 * phi * <G d, d>
    with d = x - y = dU + dV, and G d is the difference of the held
    predictors, so it costs no product and no loss value.  The next
    extrapolated point, predictor included, follows by linearity from one
    stacked difference.
    """
    smooth = state._smooth
    Zt, Zn, D, work = state.Z_tilde, state.Z_prev, state._diff, state._work
    norms, scales, W = state._norms, state._scales, state._W
    d = Zn.shape[1]
    grad = smooth.gradient(Zt[2], out=state._grad)
    while True:
        L = state.L
        # work holds the step grad / L, then the candidate's squares, then dU + dV
        np.divide(grad, L, out=work[0])
        np.subtract(Zt[:2], work[0], out=Zn[:2])
        np.multiply(Zn[:2], Zn[:2], out=work)
        np.add.reduce(work[0], axis=1, out=norms[:d])
        np.add.reduce(work[1], axis=0, out=norms[d:])
        np.sqrt(norms, out=norms)
        group_scales(norms, state._thetas, state._floors, out=scales)
        np.multiply(Zn[0], scales[:d, None], out=Zn[0])
        np.multiply(Zn[1], scales[d:], out=Zn[1])
        np.add(Zn[0], Zn[1], out=W.reshape(d, -1))
        blas.dsymv(1.0, smooth.G, W, y=Zn[2].reshape(-1), overwrite_y=1, lower=0)
        np.subtract(Zn, Zt, out=D)
        step_squared = np.vdot(D[:2], D[:2])
        if L >= smooth.L:
            break
        dW = np.add(D[0], D[1], out=work[0])
        if smooth.phi * np.vdot(D[2], dW) <= L * step_squared:
            break
        state._set_step(min(L * GROWTH, smooth.L))
    t_next = momentum_update(state.t)
    shift = (state.t - 1.0) / t_next
    state.Z_prev, state.Z = state.Z, Zn
    state.t = t_next
    state.loss = smooth.loss(Zn[2], W)
    state.penalty = float(np.vdot(state._weights, np.multiply(norms, scales, out=norms)))
    state.mapping = L * math.sqrt(step_squared)
    np.subtract(Zn, state.Z_prev, out=D)
    state.change = relative_change(D[0], D[1], Zn[0], Zn[1])
    np.multiply(D, shift, out=D)
    np.add(Zn, D, out=Zt)
    return state


@dataclass(frozen=True)
class InnerSolveResult:
    """One inner solve, and so the record of one outer round of a fit.

    Both traces hold one entry per counted iteration.  ``objective_trace``
    holds the penalized value after each iteration: the objective itself
    for Gaussian solves, and for Bernoulli/Poisson the penalized value of
    the quadratic model the iteration ran on, so entries of different
    models do not compare, and ``iterations`` is their length.
    ``converged`` means the iterate-change rule held before
    ``max_iterations`` ran out; ``lipschitz_bound`` is the ``L`` of the
    solve's first quadratic; ``working`` is the correlation, with its
    alpha and phi, that the solve's quadratics were built under.
    """

    U: np.ndarray
    V: np.ndarray
    objective_trace: np.ndarray
    step_trace: np.ndarray
    converged: bool
    lipschitz_bound: float
    working: WorkingCorrelation

    iterations = property(lambda self: len(self.objective_trace))


def relative_change(dU, dV, U, V) -> float:
    """max(||dU||, ||dV||) / (1 + ||U|| + ||V||) for the step (dU, dV) that reached (U, V)."""
    delta = max(math.sqrt(np.vdot(dU, dU)), math.sqrt(np.vdot(dV, dV)))
    return delta / (1.0 + math.sqrt(np.vdot(U, U)) + math.sqrt(np.vdot(V, V)))


def _model_solve(smooth: GramSmooth, start, config: InnerConfig, trace, floor=0.0):
    """Accelerated iterations on one quadratic from ``start``; returns (U, V, converged).

    The step constant starts at the bound ``smooth.L`` (over
    ``INIT_L_SHRINK`` when backtracking) and never exceeds it.  Each
    iteration appends its penalized value and step constant to ``trace``,
    a pair of lists, until the lists hold ``max_iterations`` entries, the
    iterate-change rule holds, or, given a positive ``floor``, the
    gradient mapping at the extrapolated point, L * ||(U, V) - (U~, V~)||,
    drops below it.  The state, with every
    buffer, is allocated once per call.
    """
    state = InnerState(smooth, config, start)
    objective_trace, step_trace = trace
    while len(objective_trace) < config.max_iterations:
        fista_step(state)
        value = state.loss + state.penalty
        if not math.isfinite(value):
            raise NumericalError("objective diverged")
        objective_trace.append(value)
        step_trace.append(state.L)
        if state.change < config.tolerance:
            return state.U, state.V, True
        if state.mapping < floor:
            break
    return state.U, state.V, False


def _mapping_norm(U, V, grad, config: InnerConfig, L: float) -> float:
    """||L ((U, V) - prox((U, V) - grad / L))||, zero exactly at a KKT point."""
    step = grad / L
    dU = U - prox_row_groups(U - step, config.lam1 / L)
    dV = V - prox_col_groups(V - step, config.lam2 / L)
    return L * math.sqrt(float(np.sum(dU * dU) + np.sum(dV * dV)))


def _scoring_solve(design, family: Family, working: WorkingCorrelation, config, start, trace):
    """Penalized Fisher scoring for Bernoulli/Poisson; returns (U, V, converged, L0)."""

    def curvature(eta):
        # the curvature quadratic, with its step bound, at the point with predictor eta
        return build_gram(design, working, np.sqrt(family.variance(family.mean(eta))))

    def at(U, V):
        # predictor, gradient and gradient-mapping norm of a point
        eta = linear_predictor(design, U + V)
        grad = _gradient_from_eta(design, family, working, eta)
        return eta, grad, _mapping_norm(U, V, grad, config, L0)

    U, V = _start_pair(design.coef_shape, start)
    eta = linear_predictor(design, U + V)
    model = curvature(eta)
    L0 = model.L
    grad = _gradient_from_eta(design, family, working, eta)
    norm = _mapping_norm(U, V, grad, config, L0)
    fresh = True
    while len(trace[0]) < config.max_iterations:
        if model is None:
            model = curvature(eta)
            fresh = True
        # the model, on the curvature's G, matches the gradient at (U, V);
        # passed unnamed, it is gone before the curvature is rebuilt, so two
        # Grams never coexist
        U_new, V_new, settled = _model_solve(
            replace(model, b=model.predictor(U + V) - grad / working.phi, c=0.0),
            (U, V), config, trace, EARLY_STOP * norm,
        )
        eta_new, grad_new, norm_new = at(U_new, V_new)
        if norm_new > norm:
            if not fresh:
                model = None
                continue
            if settled:
                # the fresh model's steps fell below the tolerance: keep the better point
                return U, V, True, L0
            for _ in range(MAX_BACKTRACKS):
                U_new = U + 0.5 * (U_new - U)
                V_new = V + 0.5 * (V_new - V)
                if relative_change(U_new - U, V_new - V, U_new, V_new) < config.tolerance:
                    # halved below the tolerance and the norm never fell
                    return U, V, False, L0
                eta_new, grad_new, norm_new = at(U_new, V_new)
                if norm_new <= norm:
                    break
            else:
                raise NumericalError("no valid step")
        if norm_new > STALL * norm:
            model = None
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

    Gaussian solves run on the Gram form from ``build_gram``, one
    Gram per solve; the other families run penalized Fisher scoring on
    the curvature Gram.  A solve stops once the relative iterate change
    max(||U_k - U_{k-1}||, ||V_k - V_{k-1}||) / (1 + ||U_k|| + ||V_k||)
    of an iteration drops below the tolerance, or at the iteration cap.
    ``start`` may supply a warm-start pair (U0, V0).
    """
    if working.n != design.n:
        raise ValueError("working correlation size does not match the design")
    trace = ([], [])
    if family.kind == "gaussian":
        smooth = build_gram(design, working)
        L_bound = smooth.L
        U, V, converged = _model_solve(smooth, start, config, trace)
    else:
        U, V, converged, L_bound = _scoring_solve(design, family, working, config, start, trace)
    return InnerSolveResult(
        U=U,
        V=V,
        objective_trace=np.asarray(trace[0]),
        step_trace=np.asarray(trace[1]),
        converged=converged,
        lipschitz_bound=L_bound,
        working=working,
    )
