"""Working correlation structures and their moment estimators.

Covers the realized correlation matrix R(alpha) with its inverse,
Pearson residuals, and the moment estimators for the scale phi and the
correlation parameter alpha.  Every factorization here is one Cholesky
attempt: a matrix that is not positive definite raises ``NumericalError``
at once, with no diagonal jitter.

The scale convention follows var(y_t) = var(mu_t) / phi, so phi is the
inverse of the usual GLM dispersion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lazy import LazyModule
from .errors import NumericalError, check_finite

spl = LazyModule("scipy.linalg")

STRUCTURES = ("independent", "exchangeable", "tridiagonal", "ar1")

PHI_FLOOR = 1e-8


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
        bound = 1.0 / (2.0 * np.cos(np.pi / (n + 1)))
        bound = min(0.99, bound - 1e-6)
        return (-bound, bound)
    return (-0.99, 0.99)


def build_R(structure: str, alpha: float, n: int) -> np.ndarray:
    """Realize the n x n working correlation matrix for a structure.

    Requires |alpha| < 1 (exchangeable additionally alpha > -1/(n-1)).
    Positive definiteness is checked where a factorization is taken.
    """
    _check_structure(structure)
    if n < 1:
        raise ValueError("n must be at least 1")
    if structure == "independent":
        return np.eye(n)
    if abs(alpha) >= 1.0:
        raise ValueError("alpha must satisfy |alpha| < 1")
    idx = np.arange(n)
    if structure == "exchangeable":
        if n > 1 and alpha <= -1.0 / (n - 1):
            raise ValueError("exchangeable alpha must exceed -1/(n-1)")
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
    """A realized working correlation: structure, alpha, phi, R and R^-1."""

    structure: str
    alpha: float
    phi: float
    R: np.ndarray
    R_inv: np.ndarray

    @property
    def n(self) -> int:
        return self.R.shape[0]

    @property
    def is_identity(self) -> bool:
        return self.structure == "independent" or self.alpha == 0.0


def make_working(structure: str, alpha: float, phi: float, n: int) -> WorkingCorrelation:
    """Build a :class:`WorkingCorrelation`; an R that is not positive definite raises."""
    check_finite("phi", phi, positive=True)
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    R = build_R(structure, alpha, n)
    R_inv = np.eye(n) if structure == "independent" else spd_inverse(R, "working correlation")
    R.setflags(write=False)
    R_inv.setflags(write=False)
    return WorkingCorrelation(structure=structure, alpha=float(alpha), phi=float(phi), R=R, R_inv=R_inv)


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
    effective parameter count d*(tau+1).  Floored at PHI_FLOOR.
    """
    gamma = np.asarray(gamma, dtype=float)
    N = gamma.size
    if N <= n_params:
        raise ValueError("over-parameterized scale estimate")
    total = float(np.sum(gamma**2))
    if total <= 0.0:
        raise ValueError("cannot estimate phi from all-zero residuals")
    return max((N - n_params) / total, PHI_FLOOR)


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

