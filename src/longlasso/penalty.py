"""Block-wise L1,2 norms and their proximal maps.

Row groups drive feature selection (the U component), column groups drive
lag selection (the V component).  The column variants are transpose wraps
of the row variants.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_finite


def row_norms(M) -> np.ndarray:
    """Euclidean norm of each row."""
    return np.sqrt(np.sum(np.asarray(M, dtype=float) ** 2, axis=1))


def norm_12_rows(M) -> float:
    """Sum of the l2 norms of the rows of ``M``."""
    return float(np.sum(row_norms(M)))


def norm_12_cols(M) -> float:
    """Sum of the l2 norms of the columns of ``M``."""
    return norm_12_rows(np.asarray(M).T)


def group_scales(norms, theta, floor, out) -> np.ndarray:
    """Scales ``max(0, 1 - theta/norm)`` of the groups with these norms, into ``out``.

    ``theta`` and ``floor`` are scalars or one entry per group, with
    ``floor`` equal to ``theta`` where it is positive and to 1 where it is
    0.  Each norm is raised to its floor before the division, so a group
    at or below a positive threshold gets exactly 0, a group above it
    ``1 - theta/norm`` itself, and at theta = 0 every group, an all-zero
    one too, gets 1: there is no 0/0 to guard.
    """
    np.maximum(norms, floor, out=out)
    np.divide(theta, out, out=out)
    return np.subtract(1.0, out, out=out)


def prox_row_groups(P, theta: float) -> np.ndarray:
    """Row-wise shrink-or-kill map.

    Exact minimizer of ``0.5*||M - P||_F^2 + theta*||M||_{1,2}``: each row
    is scaled by ``max(0, 1 - theta/||p_row||)`` (``group_scales``).  Rows
    at or below a positive threshold become exactly zero, so support
    extraction downstream needs no epsilon.
    """
    if theta < 0.0:
        raise ValueError("threshold must be nonnegative")
    P = np.asarray(P, dtype=float)
    norms = row_norms(P)
    scale = group_scales(norms, theta, theta if theta > 0.0 else 1.0, out=norms)
    return scale[:, None] * P


def prox_col_groups(P, theta: float) -> np.ndarray:
    """Column-wise variant of :func:`prox_row_groups`."""
    return prox_row_groups(np.asarray(P).T, theta).T


@dataclass(frozen=True)
class CoefficientPair:
    """The decomposed coefficient matrices U (rows) and V (columns)."""

    U: np.ndarray
    V: np.ndarray
    lam1: float = 0.0
    lam2: float = 0.0

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if U.shape != V.shape:
            raise ValueError("U and V must have the same shape")
        check_finite("lam1", self.lam1)
        check_finite("lam2", self.lam2)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)

    @property
    def W(self) -> np.ndarray:
        return self.U + self.V
