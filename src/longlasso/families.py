"""Exponential-family definitions with canonical links.

Each family fixes the canonical link, its inverse (the mean function), the
variance function, and the cumulant ``b`` with ``b'(eta) = mu``.  Linear
predictors are clamped to ``[-ETA_CLAMP, ETA_CLAMP]`` before exponentiation
so Bernoulli/Poisson means never overflow; outside the clamp the gradient
saturates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lazy import LazyModule
from .errors import DataError

special = LazyModule("scipy.special")

ETA_CLAMP = 30.0

FAMILIES = ("gaussian", "bernoulli", "poisson")


@dataclass(frozen=True)
class Family:
    """One member of the exponential family under its canonical link."""

    kind: str

    def mean(self, eta):
        """Inverse link applied to the linear predictor."""
        eta = np.asarray(eta, dtype=float)
        if self.kind == "gaussian":
            return eta.copy()
        clamped = np.clip(eta, -ETA_CLAMP, ETA_CLAMP)
        if self.kind == "bernoulli":
            return special.expit(clamped)
        return np.exp(clamped)

    def variance(self, mu):
        """Variance function evaluated at the mean."""
        mu = np.asarray(mu, dtype=float)
        if self.kind == "gaussian":
            return np.ones_like(mu)
        if self.kind == "bernoulli":
            if np.any(mu <= 0.0) or np.any(mu >= 1.0):
                raise ValueError("bernoulli variance requires 0 < mu < 1")
            return mu * (1.0 - mu)
        if np.any(mu <= 0.0):
            raise ValueError("poisson variance requires mu > 0")
        return mu.copy()

    def cumulant(self, eta):
        """Cumulant b(eta); convex, with b'(eta) = mean(eta)."""
        eta = np.asarray(eta, dtype=float)
        if self.kind == "gaussian":
            return 0.5 * eta**2
        clamped = np.clip(eta, -ETA_CLAMP, ETA_CLAMP)
        if self.kind == "bernoulli":
            return np.logaddexp(0.0, clamped)
        return np.exp(clamped)

    def saturated_term(self, y):
        """y*eta~ - b(eta~) at the saturated linear predictor eta~ = g(y).

        Bernoulli and Poisson use the 0*log(0) = 0 convention.
        """
        y = np.asarray(y, dtype=float)
        self.check_outcomes(y)
        if self.kind == "gaussian":
            return 0.5 * y**2
        if self.kind == "bernoulli":
            return special.xlogy(y, y) + special.xlogy(1.0 - y, 1.0 - y)
        return special.xlogy(y, y) - y

    def check_outcomes(self, y) -> None:
        """Raise ``DataError`` unless every outcome lies in the family's support.

        Bernoulli outcomes lie in [0, 1] and Poisson outcomes are
        nonnegative; Gaussian outcomes may be any real number.
        """
        y = np.asarray(y, dtype=float)
        if self.kind == "bernoulli" and (np.any(y < 0.0) or np.any(y > 1.0)):
            raise DataError(f"bernoulli outcomes must lie in [0, 1], got {y.min():g} to {y.max():g}")
        if self.kind == "poisson" and np.any(y < 0.0):
            raise DataError(f"poisson outcomes must be nonnegative, got {y.min():g}")


def get_family(name: str | Family) -> Family:
    """Look a family up by its config string; a ``Family`` is returned as it is."""
    if isinstance(name, Family):
        return name
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}")
    return Family(name)

