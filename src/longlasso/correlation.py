"""Working correlation structures and their moment estimators.

Covers the realized correlation matrix R(alpha) with its inverse, the
alpha-free terms that inverse decomposes into (``inverse_terms``),
Pearson residuals, and the moment estimators for the scale phi and the
correlation parameter alpha.  Every factorization here is one Cholesky
attempt: a matrix that is not positive definite raises ``NumericalError``
at once, with no diagonal jitter.

The scale convention follows var(y_t) = var(mu_t) / phi, so phi is the
inverse of the usual GLM dispersion.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lazy import LazyModule
from .errors import NumericalError, check_finite

spl = LazyModule("scipy.linalg")

STRUCTURES = ("independent", "exchangeable", "tridiagonal", "ar1")


def _check_structure(structure: str) -> None:
    if structure not in STRUCTURES:
        raise ValueError(
            f"unknown correlation structure {structure!r}; expected one of {STRUCTURES}"
        )


def alpha_bounds(structure: str, n: int) -> tuple[float, float]:
    """Valid (clipping) range for alpha under positive definiteness.

    Tridiagonal R is PD iff |alpha| < 1/(2 cos(pi/(n+1))); exchangeable
    needs alpha > -1/(n-1).
    """
    _check_structure(structure)
    if structure == "independent":
        return (0.0, 0.0)
    if structure == "exchangeable":
        lo = -1.0 / (n - 1) + 1e-6 if n > 1 else -0.99
        return (lo, 1.0 - 1e-6)
    if structure == "tridiagonal":
        bound = min(0.99, _tridiagonal_bound(n) - 1e-6)
        return (-bound, bound)
    return (-0.99, 0.99)


def _tridiagonal_bound(n: int) -> float:
    """Tridiagonal R(alpha) at size n is positive definite iff |alpha| is below this."""
    return 1.0 / (2.0 * np.cos(np.pi / (n + 1)))


def _check_parameters(structure: str, alpha: float, n: int) -> None:
    """The checks of ``build_R``: a known structure, n >= 1 and alpha in range.

    An n beyond the float range is refused too: the bounds on alpha are
    taken in floats.
    """
    _check_structure(structure)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > sys.float_info.max:
        raise ValueError(f"n must not exceed {sys.float_info.max:g}")
    if structure == "independent":
        return
    if abs(alpha) >= 1.0:
        raise ValueError("alpha must satisfy |alpha| < 1")
    if structure == "exchangeable" and n > 1 and alpha <= -1.0 / (n - 1):
        raise ValueError("exchangeable alpha must exceed -1/(n-1)")


def build_R(structure: str, alpha: float, n: int) -> np.ndarray:
    """Realize the n x n working correlation matrix for a structure.

    Requires |alpha| < 1 (exchangeable additionally alpha > -1/(n-1)).
    Positive definiteness is checked where a factorization is taken.
    """
    _check_parameters(structure, alpha, n)
    if structure == "independent":
        return np.eye(n)
    idx = np.arange(n)
    if structure == "exchangeable":
        R = np.full((n, n), alpha)
        np.fill_diagonal(R, 1.0)
        return R
    if structure == "tridiagonal":
        R = np.eye(n)
        off = np.full(n - 1, alpha)
        R[idx[:-1], idx[1:]] = off
        R[idx[1:], idx[:-1]] = off
        return R
    return alpha ** np.abs(idx[:, None] - idx[None, :])


def _factor_spd(M: np.ndarray, what: str):
    """Cholesky factor of M, from one attempt; ``what`` names M in the error."""
    try:
        return spl.cho_factor(M, lower=True)
    except np.linalg.LinAlgError:
        raise NumericalError(f"{what} is not positive definite") from None


def spd_inverse(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via Cholesky."""
    factor = _factor_spd(M, what)
    inv = spl.cho_solve(factor, np.eye(M.shape[0]))
    return 0.5 * (inv + inv.T)


def spd_cholesky(M: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    factor, _ = _factor_spd(M, what)
    return np.tril(factor)


@dataclass(frozen=True)
class WorkingCorrelation:
    """A working correlation: structure, alpha, phi and its size n.

    Construction checks the parameters as ``build_R`` does but builds no
    matrix: R and R^-1 are realized when first read, and kept.  A model
    loaded only to predict never reads them, whatever its n.
    """

    structure: str
    alpha: float
    phi: float
    n: int

    def __post_init__(self):
        check_finite("phi", self.phi, positive=True)
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        _check_parameters(self.structure, self.alpha, self.n)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "n", int(self.n))

    @property
    def is_identity(self) -> bool:
        return self.structure == "independent" or self.alpha == 0.0

    @property
    def positive_definite(self) -> bool:
        """Whether R is positive definite, from the closed-form bound on alpha at n.

        Construction already holds alpha to -1/(n-1) < alpha < 1
        (exchangeable) and |alpha| < 1 (AR(1)), which are those structures'
        bounds; tridiagonal R needs |alpha| < 1/(2 cos(pi/(n+1))).  No
        matrix is built.
        """
        return self.structure != "tridiagonal" or abs(self.alpha) < _tridiagonal_bound(self.n)

    @cached_property
    def R(self) -> np.ndarray:
        R = build_R(self.structure, self.alpha, self.n)
        R.setflags(write=False)
        return R

    @cached_property
    def R_inv(self) -> np.ndarray:
        """R^-1 from one Cholesky attempt; an R that is not positive definite raises."""
        if self.structure == "independent":
            R_inv = np.eye(self.n)
        else:
            R_inv = spd_inverse(self.R, "working correlation")
        R_inv.setflags(write=False)
        return R_inv


def inverse_terms(structure: str, R_inv: np.ndarray):
    """Factors C_k and weights w_k with R^{-1} = sum_k w_k C_k C_k^T, as (C_k, w_k) pairs.

    The factors are alpha-free and the weights are read from R^{-1}
    itself, so X^T R^{-1} X, X^T R^{-1} y and y^T R^{-1} y are the same
    combinations of alpha-free sums, one per factor.  In order:

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
    the column sum, so AR(1) takes the exchangeable form.  Tridiagonal
    R^{-1} is dense and not affine in alpha, so it has no such terms and
    the result is None.
    """
    _check_structure(structure)
    if structure == "tridiagonal":
        return None
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


def make_working(structure: str, alpha: float, phi: float, n: int) -> WorkingCorrelation:
    """A :class:`WorkingCorrelation` with R and R^-1 realized; an R that is not positive definite raises."""
    working = WorkingCorrelation(structure, alpha, phi, n)
    working.R_inv  # realized here, so a fit meets a bad R before it solves
    return working


def pearson_residuals(y, mu, sigma_diag) -> np.ndarray:
    """Standardized residuals (y - mu) / sqrt(sigma_diag).

    ``sigma_diag`` holds the per-time variances used for scaling (the
    diagonal of the subject covariance).  Arrays are (m, n): one row per
    subject.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma_diag = np.broadcast_to(np.asarray(sigma_diag, dtype=float), y.shape)
    if mu.shape != y.shape:
        raise ValueError("y and mu must have matching shapes")
    if not np.all(np.isfinite(mu)):
        raise NumericalError("fitted values are not finite")
    if np.any(sigma_diag <= 0.0):
        raise NumericalError("degenerate variance")
    return (y - mu) / np.sqrt(sigma_diag)


def estimate_phi(gamma, n_params: int) -> float:
    """Moment estimate of the scale: phi = (N - p) / sum(gamma^2).

    ``gamma`` are Pearson residuals scaled by the variance function
    (sigma_diag evaluated with phi = 1), N their total count and p the
    effective parameter count d*(tau+1).  It comes from the residuals
    alone, so outcomes rescaled by s give phi / s^2.
    """
    gamma = np.asarray(gamma, dtype=float)
    N = gamma.size
    if N <= n_params:
        raise ValueError("over-parameterized scale estimate")
    total = float(np.sum(gamma**2))
    if total <= 0.0:
        raise ValueError("cannot estimate phi from all-zero residuals")
    return (N - n_params) / total


def estimate_alpha(gamma, structure: str, n_params: int, phi: float) -> float:
    """Moment estimate of alpha from Pearson residuals.

    Builds the unstructured estimate r_{j,k} = n * sum_i gamma_j gamma_k
    / (N - p), scales it by phi, then reduces per structure: exchangeable
    averages all off-diagonal entries, tridiagonal and AR(1) average the
    first off-diagonal, independent returns 0.  The result is clipped to
    the structure's positive-definite range.

    The per-pair normalizer is (N - p)/n rather than the subject sum over
    N - p alone, which keeps the estimator consistent (each band entry
    pools one product per subject).
    """
    _check_structure(structure)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2:
        raise ValueError("gamma must be (subjects, times)")
    if structure == "independent":
        return 0.0
    m, n = gamma.shape
    if n < 2:
        raise ValueError("alpha estimation needs at least two time points")
    N = m * n
    if N <= n_params:
        raise ValueError("over-parameterized correlation estimate")
    r = gamma.T @ gamma * (n / (N - n_params))
    r_scaled = phi * r
    if structure == "exchangeable":
        mask = ~np.eye(n, dtype=bool)
        alpha = float(np.mean(r_scaled[mask]))
    else:
        alpha = float(np.mean(np.diag(r_scaled, k=1)))
    lo, hi = alpha_bounds(structure, n)
    return float(np.clip(alpha, lo, hi))

