"""Outer alternating loop: inner solves interleaved with correlation updates.

Round zero fixes R = I and phi = 1.  After each inner solve the Pearson
residuals are recomputed, phi and alpha re-estimated, and the working
correlation rebuilt; the loop stops once both the alpha change and the
relative coefficient change fall below threshold.  The correlation is
never touched inside inner iterations, which keeps each inner problem a
fixed-alpha convex program.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import fista
from .correlation import (
    WorkingCorrelation,
    estimate_alpha,
    estimate_phi,
    make_working,
    pearson_residuals,
)
from .dataset import LAGGED_OUTCOME_NAME, LaggedDesign
from .errors import DataError, check_finite
from .families import FAMILIES, Family, get_family
from .penalty import CoefficientPair, row_norms

FIT_RESULT_SCHEMA = "longlasso.fit_result.v2"
# a fit settles once a round's alpha change and relative coefficient change are below both
ALPHA_TOLERANCE = 1e-4
COEF_TOLERANCE = 1e-4


@dataclass(frozen=True)
class FitConfig:
    """Settings for the alternating fit."""

    max_outer: int = 25
    inner_max_iterations: int = 2000
    inner_tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.inner_max_iterations < 1:
            raise ValueError("inner_max_iterations must be at least 1")
        check_finite("inner_tolerance", self.inner_tolerance, positive=True)

    def inner(self, lam1: float, lam2: float) -> fista.InnerConfig:
        return fista.InnerConfig(
            lam1=lam1,
            lam2=lam2,
            max_iterations=self.inner_max_iterations,
            tolerance=self.inner_tolerance,
        )


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients plus the correlation estimate and run metadata."""

    coefficients: CoefficientPair
    working: WorkingCorrelation
    family: str
    structure: str
    tau: int
    include_lagged_outcome: bool
    feature_names: tuple[str, ...]
    outer_iterations: int
    trace: tuple[float, ...]
    inner_traces: tuple[np.ndarray, ...]
    inner_step_traces: tuple[np.ndarray, ...]
    converged: bool
    max_outer_reached: bool
    config: dict
    seed: int | None = None

    @property
    def W(self) -> np.ndarray:
        return self.coefficients.W


def _moment_update(design, family, structure, W):
    """Pearson residuals -> phi -> alpha, using variance-function scaling.

    Residuals for the moment step are standardized by the variance
    function alone (phi = 1 in the covariance diagonal); this makes the
    phi estimator idempotent and alpha scale-free.
    """
    eta = fista.linear_predictor(design, W)
    mu = family.mean(eta)
    sigma_diag = family.variance(mu)
    gamma = pearson_residuals(design.y, mu, sigma_diag)
    phi = estimate_phi(gamma, design.n_params)
    alpha = estimate_alpha(gamma, structure, design.n_params, phi)
    return phi, alpha


def fit(
    design: LaggedDesign,
    family: str | Family = "gaussian",
    structure: str = "independent",
    lam1: float = 0.0,
    lam2: float = 0.0,
    config: FitConfig | None = None,
    seed: int | None = None,
) -> FitResult:
    """Alternating fit of the decomposed coefficients and the correlation.

    The independent structure runs exactly one correlation pass (phi
    only).  Hitting the outer-round cap is flagged on the result, not an
    error.  ``converged`` holds only when the alternation settled and the
    final round's inner solve converged too.
    """
    if isinstance(family, str):
        family = get_family(family)
    family.check_outcomes(design.y)
    config = config or FitConfig()
    if design.n_examples <= design.n_params:
        raise DataError("not enough examples to estimate the scale parameter")

    working = make_working(structure, 0.0, 1.0, design.n)
    trace: list[float] = []
    inner_traces: list[np.ndarray] = []
    inner_step_traces: list[np.ndarray] = []
    U = np.zeros(design.coef_shape)
    V = np.zeros(design.coef_shape)
    settled = False
    rounds = 0

    for outer in range(config.max_outer):
        # The loss carries the phi scaling through Sigma^{-1}, so the
        # penalties are scaled along with it: each round then solves the
        # same unit-dispersion problem and the fit cannot drift with the
        # phi estimate (a fixed penalty against a phi-scaled loss feeds
        # back on itself and can collapse the coefficients).
        inner_cfg = config.inner(lam1 * working.phi, lam2 * working.phi)
        # Warm-start later rounds at the previous iterate (round 0 at the
        # zero pair): the inner problem changes only through alpha, so
        # restarting from zero wastes iterations and an underconverged
        # refit would bias the next moment update.
        result = fista.inner_solve(design, family, working, inner_cfg, start=(U, V))
        rounds += 1
        coef_change = fista._relative_change(result.U - U, result.V - V, result.U, result.V)
        U, V = result.U, result.V
        # every inner solve records at least one iteration
        trace.append(float(result.objective_trace[-1]))
        inner_traces.append(result.objective_trace)
        inner_step_traces.append(result.step_trace)

        if structure == "independent" and outer > 0:
            settled = True
            break

        phi, alpha = _moment_update(design, family, structure, U + V)
        alpha_change = abs(alpha - working.alpha)
        working = make_working(structure, alpha, phi, design.n)
        if outer > 0 and alpha_change < ALPHA_TOLERANCE and coef_change < COEF_TOLERANCE:
            settled = True
            break

    return FitResult(
        coefficients=CoefficientPair(U=U, V=V, lam1=lam1, lam2=lam2),
        working=working,
        family=family.kind,
        structure=structure,
        tau=design.tau,
        include_lagged_outcome=design.include_lagged_outcome,
        feature_names=design.feature_names,
        outer_iterations=rounds,
        trace=tuple(trace),
        inner_traces=tuple(inner_traces),
        inner_step_traces=tuple(inner_step_traces),
        converged=settled and result.converged,
        max_outer_reached=not settled,
        config=asdict(config),
        seed=seed,
    )


def predict(result: FitResult, design: LaggedDesign) -> np.ndarray:
    """Mean-scale predictions, one (m, n) matrix aligned with the design.

    Bernoulli returns probabilities; class decisions are the caller's.
    """
    if design.coef_shape != result.coefficients.U.shape:
        raise ValueError(
            f"design shape {design.coef_shape} does not match coefficients "
            f"{result.coefficients.U.shape}"
        )
    family = get_family(result.family)
    eta = fista.linear_predictor(design, result.W)
    return family.mean(eta)


def selected_support(result: FitResult, rel_tol: float = 0.0):
    """Indices of selected feature rows of U and lag columns of V.

    A group is selected iff its l2 norm exceeds ``rel_tol`` times the
    largest group norm of its matrix; exact zeros are never selected.
    Lag k lives in column k (0-based).
    """
    if not 0.0 <= rel_tol < 1.0:
        raise ValueError("rel_tol must lie in [0, 1)")
    u_norms = row_norms(result.coefficients.U)
    v_norms = row_norms(result.coefficients.V.T)
    features = _select(u_norms, rel_tol)
    lags = _select(v_norms, rel_tol)
    return features, lags


def _select(norms: np.ndarray, rel_tol: float) -> tuple[int, ...]:
    peak = float(norms.max()) if norms.size else 0.0
    if peak == 0.0:
        return ()
    return tuple(int(i) for i in np.nonzero(norms > rel_tol * peak)[0])


def to_json_dict(result: FitResult) -> dict:
    """JSON-ready view: shapes, row-major arrays, correlation and trace."""
    U = result.coefficients.U
    return {
        "schema": FIT_RESULT_SCHEMA,
        "family": result.family,
        "structure": result.structure,
        "tau": result.tau,
        "include_lagged_outcome": result.include_lagged_outcome,
        "lambda1": result.coefficients.lam1,
        "lambda2": result.coefficients.lam2,
        "shape": list(U.shape),
        "n": result.working.n,
        "U": [[float(v) for v in row] for row in U],
        "V": [[float(v) for v in row] for row in result.coefficients.V],
        "alpha": result.working.alpha,
        "phi": result.working.phi,
        "feature_names": list(result.feature_names),
        "outer_iterations": result.outer_iterations,
        "converged": result.converged,
        "max_outer_reached": result.max_outer_reached,
        "trace": [float(v) for v in result.trace],
        "config": result.config,
        "seed": result.seed,
    }


# the JSON type of every key that from_json_dict reads
_MODEL_KEYS = {
    "U": list, "V": list, "shape": list, "n": int, "structure": str, "alpha": (int, float),
    "phi": (int, float), "lambda1": (int, float), "lambda2": (int, float), "family": str,
    "tau": int, "include_lagged_outcome": bool, "feature_names": list, "outer_iterations": int,
    "trace": list, "converged": bool, "max_outer_reached": bool, "config": dict,
}


def _holds_bool(value) -> bool:
    """Whether a JSON value is a boolean or an array holding one at any depth.

    A JSON boolean loads as a Python bool, which is an int, and NumPy reads
    one among numbers as 0 or 1, so a type check alone takes it for a number.
    """
    return isinstance(value, bool) or (isinstance(value, list) and any(map(_holds_bool, value)))


def from_json_dict(payload: dict) -> FitResult:
    """Rebuild a FitResult from its JSON form.

    A payload that is not an object, a missing or ill-typed key (a boolean,
    also inside an array, belongs only in the boolean keys), an unknown
    family, coefficients or ``trace`` entries other than finite JSON
    numbers, a ``seed`` other than null or an integer, a non-finite number
    in ``config``, or keys that disagree raise ``DataError`` naming them:
    ``feature_names`` must hold one name per row of ``shape``, ``shape`` one
    column per lag 0..``tau``, with ``include_lagged_outcome`` the last name
    must be ``dataset.LAGGED_OUTCOME_NAME``, ``trace`` must hold one entry
    per round, ``outer_iterations`` in all, ``converged`` and
    ``max_outer_reached`` may not both be true (``fit`` never writes both),
    and ``structure``, ``alpha`` and ``n`` must give a positive definite R,
    by the structure's closed-form bound (R itself is built only if read).
    ``WorkingCorrelation`` refuses a non-finite ``alpha`` or ``phi`` with
    ``ValueError``.  So a model that loads writes back as standard JSON.
    """
    if not isinstance(payload, dict):
        raise DataError(f"model JSON must hold an object, not {type(payload).__name__}")
    if payload.get("schema") != FIT_RESULT_SCHEMA:
        raise DataError(f"unexpected model schema {payload.get('schema')!r}")
    for key, kind in _MODEL_KEYS.items():
        if key not in payload:
            raise DataError(f"model JSON has no key {key!r}")
        if not isinstance(payload[key], kind) or (kind is not bool and _holds_bool(payload[key])):
            raise DataError(f"model JSON key {key!r} has an invalid value")
    if payload["family"] not in FAMILIES:
        raise DataError("model JSON key 'family' has an invalid value")
    U, V = np.asarray(payload["U"]), np.asarray(payload["V"])
    # JSON numbers only: a null, string, boolean or object entry is no coefficient
    if not all(A.dtype.kind in "iuf" and np.all(np.isfinite(A)) for A in (U, V)):
        raise DataError("model JSON coefficients must be finite numbers")
    U, V = U.astype(float), V.astype(float)
    trace = np.asarray(payload["trace"])
    if trace.ndim != 1 or trace.dtype.kind not in "iuf" or not np.all(np.isfinite(trace)):
        raise DataError("model JSON key 'trace' must hold finite numbers")
    seed = payload.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise DataError("model JSON key 'seed' has an invalid value")
    try:
        json.dumps(payload["config"], allow_nan=False)
    except ValueError:
        raise DataError("model JSON key 'config' holds a non-finite number") from None
    if list(U.shape) != list(payload["shape"]) or list(V.shape) != list(payload["shape"]):
        raise DataError("coefficient arrays disagree with the recorded shape")
    shape, names, tau = payload["shape"], payload["feature_names"], payload["tau"]
    if len(shape) != 2:
        raise DataError("model JSON key 'shape' must hold two dimensions")
    if len(names) != shape[0]:
        raise DataError(f"model JSON keys 'feature_names' and 'shape' disagree: "
                        f"{len(names)} names for {shape[0]} rows")
    if shape[1] != tau + 1:
        raise DataError(f"model JSON keys 'shape' and 'tau' disagree: {shape[1]} lag columns for tau {tau}")
    # one direction only: a dataset may have a feature of its own by that name
    if payload["include_lagged_outcome"] and names[-1:] != [LAGGED_OUTCOME_NAME]:
        raise DataError("model JSON keys 'include_lagged_outcome' and 'feature_names' disagree: "
                        f"the last name is not {LAGGED_OUTCOME_NAME!r}")
    if len(trace) != payload["outer_iterations"]:
        raise DataError("model JSON keys 'outer_iterations' and 'trace' disagree: "
                        f"{payload['outer_iterations']} rounds for {len(trace)} trace entries")
    if payload["converged"] and payload["max_outer_reached"]:
        raise DataError("model JSON keys 'converged' and 'max_outer_reached' disagree: both are true")
    # predict reads no R: its positive definiteness is checked by the
    # closed-form bound on alpha at n, so no n x n matrix is built
    working = WorkingCorrelation(payload["structure"], payload["alpha"], payload["phi"], payload["n"])
    if not working.positive_definite:
        raise DataError("model JSON keys 'structure', 'alpha' and 'n' disagree: "
                        "working correlation is not positive definite")
    return FitResult(
        coefficients=CoefficientPair(
            U=U, V=V, lam1=payload["lambda1"], lam2=payload["lambda2"]
        ),
        working=working,
        family=payload["family"],
        structure=payload["structure"],
        tau=int(payload["tau"]),
        include_lagged_outcome=bool(payload["include_lagged_outcome"]),
        feature_names=tuple(payload["feature_names"]),
        outer_iterations=int(payload["outer_iterations"]),
        trace=tuple(trace.tolist()),
        inner_traces=(),
        inner_step_traces=(),
        converged=bool(payload["converged"]),
        max_outer_reached=bool(payload["max_outer_reached"]),
        config=dict(payload["config"]),
        seed=seed,
    )
