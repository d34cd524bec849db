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

Every Gram has the form sum_i X_i^T A_i^{1/2} C C^T A_i^{1/2} X_i for an
n x r factor C and a variance diagonal A; ``build_gram`` makes them all,
reading the design in one accumulator, ``_accumulate``: a chunk of subjects
at a time is whitened into one 1 MB buffer and added with one ``dsyrk``.

- Gaussian: the quadratic is the smooth part itself, with
  G = X^T (I_m kron R^{-1}) X, b = X^T (I_m kron R^{-1}) y and
  c = y^T (I_m kron R^{-1}) y: one solve on one Gram.  For the
  independent, exchangeable and AR(1) structures R^{-1}(alpha) is a fixed
  combination sum_k w_k C_k C_k^T of alpha-free factors (``_basis_terms``:
  the identity, the ones column or the adjacent-sum factor, and AR(1)'s
  edge factor), so the Gram is the weighted sum sum_k w_k G_k of a frozen
  ``GramBasis`` built, one accumulator pass per factor, on the first
  Gaussian solve on a design and kept on it (``_gram_cache``): up to three
  p x p arrays that live as long as the design.  Every later outer round,
  and every CV cell on the same fold design, then costs one p x p scale
  and an axpy per further term, and reads no design row.  Tridiagonal
  R^{-1} is dense and not affine in alpha, so each tridiagonal solve makes
  one accumulator pass, whitening by the Cholesky factor of R^{-1}.
- Bernoulli/Poisson: penalized Fisher scoring, since under a non-identity
  R the estimating function is the gradient of no scalar loss.  Each
  outer step solves the model at the current point w with G = H, the
  curvature Gram sum_i X_i^T A_i^{1/2} R^{-1} A_i^{1/2} X_i (GEE's Fisher
  information over phi) from ``build_gram`` given A^{1/2}, b = H w - grad / phi and
  c = 0, stopping early once the model's own gradient mapping is below
  ``EARLY_STOP`` times the outer one.  The step is accepted when the
  gradient-mapping norm ||L0 (x - prox(x - grad / L0))||, L0 fixed per
  solve, does not rise.  Otherwise H is rebuilt at the current point, and
  a step that fails on a fresh H is halved toward it.  H is also rebuilt
  after an accepted step that left the norm above ``STALL`` times its
  value.

Every step bound L = 2 * phi * lambda_max(H) is exact, from one
``scipy.linalg.eigh`` (LAPACK's ``dsyevr``) on the curvature Gram (G
itself for Gaussian solves), run in place on the Gram with no p x p
copy.  At R = I a Gaussian G is the basis's G0, whose lambda_max the
basis finds once, when it is built, so the CV cells of one fold share one
eigensolve for their alpha = 0 rounds.  Convergence is declared on
iterate change between consecutive iterates.

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
runs on ``scipy.linalg.blas``, the library that already runs ``dsyrk``,
``daxpy`` and ``dsyevr`` here, and never on NumPy's ``matmul``.  The NumPy
and SciPy wheels each bundle their own OpenBLAS, and each keeps a thread
pool that busy-waits for a while after a call, so a fit that alternates
between the two libraries has one pool spinning on the CPUs the other one
needs: in a paper-scale fit on 2 CPUs each eigensolve took 0.09-0.19 s,
against 0.05 s on an idle pool.

- Gram products run ``dsymv``, which reads the diagonal and the upper
  triangle of G alone: the iteration's G w (``fista_step``, in place into
  the point's predictor, and ``GramSmooth.predictor``) and a scoring
  model's H w.  The paper's p = 1000 Gram is 8 MB, its upper triangle
  4 MB, which fits the L2 caches of two cores: on a 2-CPU Xeon a product
  took 85 us against 170 us for ``dgemv`` over the whole G.  The results
  equal NumPy's ``G @ w`` to rounding, not bit for bit.
- Rectangular products run ``dgemv`` or ``dgemm``.  The design products
  X w (``linear_predictor``) and X^T c (``estimating_function``) read the
  Fortran-ordered view of the same memory with the same transposition
  that NumPy's ``matmul`` hands its BLAS, so for designs of at least two
  parameters they are NumPy's bit for bit.  The accumulator whitens each
  subject with one ``dgemm``, and its sums equal the per-subject sums to
  rounding, not NumPy's ``matmul`` bit for bit.

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
from dataclasses import dataclass

import numpy as np

from ._lazy import LazyModule
from .correlation import WorkingCorrelation, spd_cholesky
from .dataset import LaggedDesign
from .errors import NumericalError, check_finite
from .families import Family
from .penalty import group_scales, norm_12_cols, norm_12_rows, prox_col_groups, prox_row_groups

blas = LazyModule("scipy.linalg.blas")
linalg = LazyModule("scipy.linalg")

L_FLOOR = 1e-8
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
# the strict lower triangle of one diagonal block of _mirror_upper
_BLOCK_LOWER = np.tri(64, k=-1, dtype=bool)
# structures whose R^{-1}(alpha) is a fixed combination of alpha-free
# matrices: their Gaussian Grams are combined from a per-design basis
BASIS_STRUCTURES = ("independent", "exchangeable", "ar1")


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
    solve reads: the quadratic ``smooth``, the per-group penalty weights of
    ``config`` and the step bound ``L``, which must be finite and positive
    (``ValueError`` otherwise).  Its step constant starts at ``L`` over
    ``INIT_L_SHRINK`` under backtracking and at ``L`` itself under "fixed",
    and never exceeds ``L``.  The state owns the solve's one gradient
    buffer beside scratch arrays of a point's size, O(p) in all, and
    ``fista_step`` advances it in place, writing each
    candidate into the point it no longer needs, so a solve allocates no
    array per iteration.  After a step, ``loss`` and ``penalty`` are the
    quadratic and the block penalty at the iterate, ``change`` is the
    relative iterate change max(||dU||, ||dV||) / (1 + ||U|| + ||V||) and
    ``mapping`` the gradient mapping L * ||(U, V) - (U~, V~)|| at the
    extrapolation point the step left.
    """

    __slots__ = (
        "Z", "Z_prev", "Z_tilde", "t", "L", "loss", "penalty", "change", "mapping",
        "_smooth", "_bound", "_grad", "_diff", "_work", "_W", "_norms", "_scales", "_weights",
        "_thetas", "_floors",
    )

    def __init__(self, smooth: "GramSmooth", config: InnerConfig, L: float, start=None):
        # positive after the shrink too, so that doubling reaches the bound
        if not (math.isfinite(L) and L / INIT_L_SHRINK > 0.0):
            raise ValueError(f"step bound L must be finite and positive, got {L!r}")
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
        self._bound = float(L)
        self._grad = np.empty((d, k))
        self._diff = np.empty_like(Z)
        self._work = np.empty((2, d, k))
        self._W = W
        # one entry per group: the d rows of U, then the tau+1 columns of V
        self._norms, self._scales, self._weights, self._thetas, self._floors = np.empty((5, d + k))
        self._weights[:d] = config.lam1
        self._weights[d:] = config.lam2
        self._set_step(self._bound / INIT_L_SHRINK if config.step_mode == "backtracking" else self._bound)

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
    flattened coefficients, full and symmetric.  Every product with G is
    ``dsymv`` and reads only its diagonal and upper triangle.  G is held
    Fortran-ordered, as every Gram here is built, so each product reads it
    in place: any other G is copied into Fortran order once, when the
    quadratic is made.
    """

    G: np.ndarray
    b: np.ndarray
    c: float
    phi: float

    def __post_init__(self):
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
    added with one rank-k update, so a call holds one p x p array plus the
    buffer.  Where C is the identity (``factor`` None) and A = I the rows
    are the whitened rows themselves and are read in place.  Each
    subject's C^T A_i^{1/2} X_i is one ``dgemm`` into the buffer
    (``_whiten``).
    """
    m, n, p = design.m, design.n, design.n_params
    C = np.eye(n) if factor is None else factor
    r = C.shape[1]
    plain = root_var is None and factor is None
    chunk = min(max(1, GRAM_CHUNK_BYTES // (8 * r * p)), m)
    scale = None if root_var is None else np.broadcast_to(root_var, (m, n))
    flat = design.flat_design()
    G = np.zeros((p, p), order="F")
    b = np.zeros(p)
    c = 0.0
    buffer = np.empty((chunk, r, p))
    for first in range(0, m, chunk):
        k = min(chunk, m - first)
        block = slice(first, first + k)
        X, y = flat[block], design.y[block]
        if not plain:
            whiten = C.T
            if scale is not None:
                # C^T A_i^{1/2}, one r x n factor per subject
                whiten = C.T * scale[block, None, :]
                y = y * scale[block]
            X = _whiten(whiten, X, buffer[:k])
            y = y @ C
        rows = X.reshape(k * r, p)
        white_y = y.ravel()
        # added afterwards: beta = 1 would sum the product into b in another order
        b += blas.dgemv(1.0, rows.T, white_y)
        c += float(white_y @ white_y)
        # rows.T is a Fortran-ordered view, so dsyrk reads the rows in place
        G = blas.dsyrk(1.0, rows.T, beta=1.0, c=G, overwrite_c=1)
    return G, b, c


def _whiten(whiten: np.ndarray, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each subject's whiten_i X_i into ``out``, one ``dgemm`` each on SciPy's BLAS.

    ``whiten`` is one r x n matrix or one per subject, ``X`` the (k, n, p)
    example matrices and ``out`` a C-ordered (k, r, p) buffer.  Subject i's
    product is computed transposed, X_i^T whiten_i^T into the
    Fortran-ordered view of out[i], with whiten_i transposed by the BLAS.
    Every factor ``_accumulate`` passes is Fortran-ordered, so it is read
    in place; any other is copied.
    """
    for i in range(X.shape[0]):
        w = whiten if whiten.ndim == 2 else whiten[i]
        blas.dgemm(1.0, X[i].T, w, trans_b=1, c=out[i].T, overwrite_c=1)
    return out


def _basis_terms(structure: str, R_inv: np.ndarray) -> list:
    """Factors C_k and weights w_k with R^{-1} = sum_k w_k C_k C_k^T, as (C_k, w_k) pairs.

    The weights are read from R^{-1} itself, and X^T R^{-1} X, X^T R^{-1} y
    and y^T R^{-1} y are then the same combinations of alpha-free
    ``_accumulate`` sums, one per factor, which the ``GramBasis`` holds.
    In order:

    - the identity (None), for every structure;
    - where R^{-1} couples examples, the ones column (exchangeable:
      R^{-1} = (r00 - r01) I + r01 11^T) or the n x (n-1) adjacent-sum
      factor S, column t holding ones in rows t and t+1 (AR(1));
    - for AR(1) with n > 2, the n x 2 edge factor of columns e_0 and
      e_{n-1}.  AR(1)'s R^{-1} = r11 I - (r11 - r00) E + r01 Z, with
      E = e_0 e_0^T + e_{n-1} e_{n-1}^T and Z the sub- and superdiagonal,
      and S S^T = 2 I - E + Z, so its weights are (r11 - 2 r01, r01,
      r00 - r11 + r01).

    With n = 2 there is no interior diagonal and the one adjacent sum is
    the column sum, so AR(1) takes the exchangeable form.
    """
    n = R_inv.shape[0]
    if structure == "independent" or n == 1:
        return [(None, R_inv[0, 0])]
    r00, r01 = R_inv[0, 0], R_inv[0, 1]
    if structure == "exchangeable" or n == 2:
        return [(None, r00 - r01), (np.ones((n, 1)), r01)]
    r11 = R_inv[1, 1]
    adjacent = np.eye(n, n - 1) + np.eye(n, n - 1, k=-1)
    edges = np.zeros((n, 2))
    edges[0, 0] = edges[-1, 1] = 1.0
    return [(None, r11 - 2.0 * r01), (adjacent, r01), (edges, r00 - r11 + r01)]


@dataclass(frozen=True, eq=False)
class GramBasis:
    """The alpha-free terms of one structure's Gaussian Gram on one design.

    Entry k of ``G``, ``b`` and ``c`` is the ``_accumulate`` sum of factor
    C_k of ``_basis_terms``: G_k = sum_i X_i^T C_k C_k^T X_i and the
    matching X^T y and y^T y terms.  ``G[0]`` is G0 = sum_i X_i^T X_i, held
    whole; the others, the Grams of the per-subject column sums
    (exchangeable), or of the adjacent-row sums and of each subject's first
    and last rows (AR(1)), hold their upper triangle only.  ``top0`` is
    lambda_max(G0), the step bound's eigenvalue at R = I.  The basis and
    its arrays are read-only, so the fits that share a design share it.
    """

    G: tuple
    b: np.ndarray
    c: np.ndarray
    top0: float


def _build_basis(design: LaggedDesign, factors) -> GramBasis:
    """The ``GramBasis`` of ``factors``: one ``_accumulate`` pass each, lambda_max(G0) in place."""
    G, b, c = zip(*(_accumulate(design, factor) for factor in factors))
    _mirror_upper(G[0])
    top0 = _top_eigenvalue(G[0])
    b, c = np.array(b), np.array(c)
    for array in (*G, b, c):
        array.setflags(write=False)
    return GramBasis(G=G, b=b, c=c, top0=top0)


def build_gram(design: LaggedDesign, working: WorkingCorrelation, root_var=None) -> GramSmooth:
    """The quadratic over G = sum_i X_i^T A_i^{1/2} R^{-1} A_i^{1/2} X_i, with the matching b and c.

    X_i is subject i's n x p example matrix and ``root_var`` A^{1/2}: a
    scalar, one entry per example in an (m, n) array, or None for A = I,
    the Gaussian smooth part.  With A = I and a structure in
    ``BASIS_STRUCTURES``, G, b and c are sum_k w_k G_k over the design's
    ``GramBasis`` (built on the first call and kept, one at a time) with
    the weights of ``_basis_terms``: one p x p scale and an axpy per
    further term into a new G, and no design row read.  Otherwise (every
    tridiagonal solve, and the curvature Gram H of ``lipschitz_upper`` and
    of each scoring model, which read G alone) it is one ``_accumulate``
    pass with C the Cholesky factor of R^{-1} = C C^T.
    """
    if root_var is None and working.structure in BASIS_STRUCTURES:
        terms = _basis_terms(working.structure, working.R_inv)
        cache = design._gram_cache
        basis = cache.get(working.structure)
        if basis is None:
            basis = _build_basis(design, [factor for factor, _ in terms])
            cache.clear()
            cache[working.structure] = basis
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
    _mirror_upper(G)
    return GramSmooth(G=G, b=b.reshape(design.coef_shape), c=c, phi=working.phi)


def _mirror_upper(G: np.ndarray) -> None:
    """Copy the upper triangle into the lower one, a block of rows at a time.

    Within a diagonal block only the strict lower triangle is written, in
    one masked copy.
    """
    p, block = G.shape[0], _BLOCK_LOWER.shape[0]
    for j in range(0, p, block):
        end = min(j + block, p)
        G[j:end, :j] = G[:j, j:end].T
        diag = G[j:end, j:end]
        np.copyto(diag, diag.T, where=_BLOCK_LOWER[: end - j, : end - j])


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


def _design_columns(design: LaggedDesign) -> np.ndarray:
    """The p x N transposed design, a Fortran-ordered view of the example rows."""
    return design.flat_design().reshape(design.n_examples, design.n_params).T


def linear_predictor(design: LaggedDesign, W: np.ndarray) -> np.ndarray:
    """(m, n) matrix of trace inner products <X_(i;t), W>."""
    eta = blas.dgemv(1.0, _design_columns(design), np.ravel(W), trans=1)
    return eta.reshape(design.m, design.n)


def estimating_function(design, working: WorkingCorrelation, s, root=None):
    """X^T (phi A^{1/2} R^{-1} A^{-1/2} s) for residuals s, shaped like W.

    ``root`` holds the per-example standard deviations A^{1/2}; None
    stands for all ones (Gaussian outcomes).
    """
    if root is None:
        c = working.phi * (s @ working.R_inv)
    else:
        c = working.phi * root * ((s / root) @ working.R_inv)
    return blas.dgemv(1.0, _design_columns(design), c.ravel()).reshape(design.coef_shape)


def _gradient_from_eta(design, family: Family, working: WorkingCorrelation, eta):
    """Descent gradient -X^T (A Sigma^{-1} s) at the linear predictor eta."""
    mu = family.mean(eta)
    if not np.all(np.isfinite(mu)):
        raise NumericalError("non-finite mean in gradient evaluation")
    root = None if family.kind == "gaussian" else np.sqrt(family.variance(mu))
    return -estimating_function(design, working, design.y - mu, root)


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
    A writable Fortran-ordered ``gram`` is used in place and left as it
    was (see ``_top_eigenvalue``).
    """
    if gram is None:
        root_var = math.sqrt(float(family.variance(family.mean(np.zeros(1)))[0]))
        gram = build_gram(design, working, root_var).G
    return max(2.0 * working.phi * _top_eigenvalue(gram), L_FLOOR)


def _gaussian_bound(design, family: Family, working: WorkingCorrelation, G: np.ndarray) -> float:
    """``lipschitz_upper`` on the Gaussian Gram G, reusing lambda_max(G0) where R = I.

    At R = I (round 0 of every fit, and every independent round) the basis
    weights are 1 for G0 and 0 for every other term, so G is G0 bit for bit
    and so is its top eigenvalue, which the design's basis holds from its
    build: the CV cells of one fold run one eigensolve for their alpha = 0
    rounds instead of one each.
    """
    basis = design._gram_cache.get(working.structure)
    if basis is None or not working.is_identity:
        return lipschitz_upper(design, family, working, gram=G)
    return max(2.0 * working.phi * basis.top0, L_FLOOR)


def _top_eigenvalue(G: np.ndarray) -> float:
    """lambda_max of the symmetric G, from ``scipy.linalg.eigh`` on its lower triangle.

    A writable Fortran-ordered G is worked on in place, with no p x p
    copy: LAPACK's ``dsyevr`` overwrites the diagonal and the lower
    triangle, and both are restored afterwards from a saved diagonal and
    the strict upper triangle, which it leaves alone.  ``eigh`` copies any
    other G first.  G must be a Gram (positive semidefinite), as every
    curvature Gram here is; an all-zero one (a degenerate design) or a
    non-finite diagonal raises ``NumericalError``.
    """
    p = G.shape[0]
    diag = np.diagonal(G).copy()
    # a Gram's off-diagonal entries are bounded by its diagonal ones, so
    # the diagonal alone shows a non-finite or an all-zero Gram
    if not np.all(np.isfinite(diag)):
        raise NumericalError("non-finite curvature Gram")
    if not np.any(diag):
        raise NumericalError("degenerate design")
    in_place = G.flags.f_contiguous and G.flags.writeable
    try:
        top = linalg.eigh(G, lower=True, eigvals_only=True, overwrite_a=in_place, check_finite=False,
                          subset_by_index=[p - 1, p - 1], driver="evr")[0]
    except np.linalg.LinAlgError:
        top = math.nan
    finally:
        if in_place:
            np.fill_diagonal(G, diag)
            _mirror_upper(G)
    if not math.isfinite(top):
        raise NumericalError("no top eigenvalue of the curvature Gram")
    return float(top)


def fista_step(state: InnerState) -> InnerState:
    """One accelerated step from the extrapolated point, in place; returns ``state``.

    The step forms the quadratic's gradient at the extrapolated predictor
    into the state's buffer, and both prox slots step along it: one op
    forms Z~ - grad / L for U and V together, and the row norms of U's and
    the column norms of V's step come from one array of squares.  Each
    trial costs one predictor product, at the candidate, written into the
    point before last.  Below the state's bound the step constant, and the
    thresholds lam / L with it, doubles until the majorization test holds,
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
        if L >= state._bound:
            break
        dW = np.add(D[0], D[1], out=work[0])
        if smooth.phi * np.vdot(D[2], dW) <= L * step_squared:
            break
        state._set_step(min(L * GROWTH, state._bound))
    t_next = momentum_update(state.t)
    shift = (state.t - 1.0) / t_next
    state.Z_prev, state.Z = state.Z, Zn
    state.t = t_next
    state.loss = smooth.loss(Zn[2], W)
    state.penalty = float(np.vdot(state._weights, np.multiply(norms, scales, out=norms)))
    state.mapping = L * math.sqrt(step_squared)
    np.subtract(Zn, state.Z_prev, out=D)
    state.change = _relative_change(D[0], D[1], Zn[0], Zn[1])
    np.multiply(D, shift, out=D)
    np.add(Zn, D, out=Zt)
    return state


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


def _relative_change(dU, dV, U, V) -> float:
    """max(||dU||, ||dV||) / (1 + ||U|| + ||V||) for the step (dU, dV) that reached (U, V)."""
    delta = max(math.sqrt(np.vdot(dU, dU)), math.sqrt(np.vdot(dV, dV)))
    return delta / (1.0 + math.sqrt(np.vdot(U, U)) + math.sqrt(np.vdot(V, V)))


def _model_solve(smooth: GramSmooth, L: float, start, config: InnerConfig, trace, floor=0.0):
    """Accelerated iterations on one quadratic from ``start``; returns (U, V, converged).

    The step constant starts at the bound ``L`` (over ``INIT_L_SHRINK``
    when backtracking) and never exceeds it.  Each iteration appends its penalized value and step
    constant to ``trace``, a pair of lists, until the lists hold
    ``max_iterations`` entries, the iterate-change rule holds, or, given a
    positive ``floor``, the gradient mapping at the extrapolated point,
    L * ||(U, V) - (U~, V~)||, drops below it.  The state, with every
    buffer, is allocated once per call.
    """
    state = InnerState(smooth, config, L, start)
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
        b = blas.dsymv(1.0, H, np.ravel(U + V), lower=0).reshape(U.shape) - grad / working.phi
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
                if _relative_change(U_new - U, V_new - V, U_new, V_new) < config.tolerance:
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
        L_bound = _gaussian_bound(design, family, working, smooth.G)
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
