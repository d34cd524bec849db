"""Seeded synthetic benchmark generator for regression and classification.

Features are i.i.d. normal, true coefficients are drawn normal and then
masked (whole U rows and V columns forced to zero), and residual vectors
follow a chosen working correlation structure.  Outcomes at every kept
time point are model-consistent: the feature window is over-generated by
tau columns so even the earliest outcomes have a full lag context.

Randomness uses numpy's PCG64 through a documented splitting rule: the
root seed sequence spawns one child stream per subject plus one leading
stream for the coefficient matrices.  Each subject's stream is drawn in
one fixed order: its d x (T + tau) features, then T standard-normal
residual innovations, then (classification only) T label uniforms.  So
datasets are reproducible regardless of execution order, and a
classification panel shares its features with the regression panel of
the same config.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .correlation import build_R, spd_cholesky
from .dataset import LongitudinalDataset
from .errors import check_finite
from .families import get_family


@dataclass(frozen=True)
class SimConfig:
    """Synthetic protocol parameters.

    Defaults reproduce the d=200, T=30, m=400, tau=4 benchmark: features
    N(0, 16), coefficients N(0, 49), U rows 0..149 and V columns {1, 4}
    masked to zero, AR(1) residual correlation with alpha = 0.64
    (alpha is ignored under the independent structure).  All
    indices are 0-based; lag k lives in column k.  ``coef_seed`` pins the
    true coefficients independently of the data seed so consistency
    experiments can vary the data while holding the truth fixed.
    """

    d: int = 200
    T: int = 30
    m: int = 400
    tau: int = 4
    feature_sd: float = 4.0
    coef_sd: float = 7.0
    zero_feature_rows: tuple[int, ...] = tuple(range(150))
    zero_lag_columns: tuple[int, ...] = (1, 4)
    structure: str = "ar1"
    alpha: float = 0.64
    residual_sd: float = 1.0
    seed: int = 0
    coef_seed: int | None = None

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise ValueError("d and m must be positive")
        if self.T < 2:
            raise ValueError("T must be at least 2")
        if not 0 <= self.tau < self.T:
            raise ValueError("tau must satisfy 0 <= tau < T")
        for name in ("feature_sd", "coef_sd", "residual_sd"):
            check_finite(name, getattr(self, name), positive=True)
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        rows = tuple(int(r) for r in self.zero_feature_rows)
        cols = tuple(int(c) for c in self.zero_lag_columns)
        if any(not 0 <= r < self.d for r in rows):
            raise ValueError("zero_feature_rows must lie in [0, d)")
        if any(not 0 <= c <= self.tau for c in cols):
            raise ValueError("zero_lag_columns must lie in [0, tau]")
        object.__setattr__(self, "zero_feature_rows", rows)
        object.__setattr__(self, "zero_lag_columns", cols)

    def to_dict(self) -> dict:
        return asdict(self)


def _streams(cfg: SimConfig):
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.m + 1)
    if cfg.coef_seed is not None:
        coef_stream = np.random.default_rng(np.random.SeedSequence(cfg.coef_seed))
    else:
        coef_stream = np.random.default_rng(children[0])
    subject_streams = [np.random.default_rng(c) for c in children[1:]]
    return coef_stream, subject_streams


def _masked_coefficients(cfg: SimConfig, rng):
    """U and V drawn from the coefficient stream ``rng``, then masked."""
    U = rng.normal(0.0, cfg.coef_sd, size=(cfg.d, cfg.tau + 1))
    V = rng.normal(0.0, cfg.coef_sd, size=(cfg.d, cfg.tau + 1))
    if cfg.zero_feature_rows:
        U[list(cfg.zero_feature_rows), :] = 0.0
    if cfg.zero_lag_columns:
        V[:, list(cfg.zero_lag_columns)] = 0.0
    return U, V


def _generate(cfg: SimConfig, labels: bool):
    """The panel, U and V: one pass over the subject streams.

    Each subject's outcome is its linear predictor plus correlated noise;
    with ``labels`` it is replaced by Bernoulli draws at its logistic mean.
    """
    coef_stream, subject_streams = _streams(cfg)
    U, V = _masked_coefficients(cfg, coef_stream)
    W = U + V
    chol = spd_cholesky(build_R(cfg.structure, cfg.alpha, cfg.T), "residual correlation")
    logistic = get_family("bernoulli").mean
    features, outcomes = np.empty((cfg.m, cfg.T, cfg.d)), np.empty((cfg.m, cfg.T))
    for i, rng in enumerate(subject_streams):
        ext = rng.normal(0.0, cfg.feature_sd, size=(cfg.d, cfg.T + cfg.tau))
        eta = np.zeros(cfg.T)
        for k in range(cfg.tau + 1):
            eta += W[:, k] @ ext[:, cfg.tau - k : cfg.tau - k + cfg.T]
        y = eta + cfg.residual_sd * (chol @ rng.normal(0.0, 1.0, size=cfg.T))
        if labels:
            y = (rng.uniform(size=cfg.T) < logistic(y)).astype(float)
        features[i], outcomes[i] = ext[:, cfg.tau :].T, y
    width = len(str(cfg.m - 1))
    ids = [f"s{i:0{width}d}" for i in range(cfg.m)]
    names = tuple(f"x{j + 1}" for j in range(cfg.d))
    return LongitudinalDataset.from_panel(features, outcomes, ids, [1] * cfg.m, names), U, V


def generate_regression(cfg: SimConfig):
    """Gaussian-outcome dataset plus the true U and V."""
    return _generate(cfg, labels=False)


def generate_classification(cfg: SimConfig):
    """Bernoulli-outcome dataset: labels drawn from the logistic mean of
    the noisy regression outcome (noise included, so attainable accuracy
    depends on residual_sd)."""
    return _generate(cfg, labels=True)


def truth_metadata(cfg: SimConfig, U: np.ndarray, V: np.ndarray, family: str) -> dict:
    """Sidecar payload describing the ground truth of a simulated dataset."""
    return {
        "schema": "longlasso.simulation_truth.v1",
        "family": family,
        "config": cfg.to_dict(),
        "U": [[float(v) for v in row] for row in U],
        "V": [[float(v) for v in row] for row in V],
        "alpha": cfg.alpha,
        "structure": cfg.structure,
        "residual_sd": cfg.residual_sd,
        "seed": cfg.seed,
    }
