"""Sparse longitudinal generalized linear models.

Fits GLMs on lagged longitudinal designs while jointly selecting the
predictive features and the influential time lags: the coefficient matrix
is decomposed as W = U + V with a row-wise L1,2 penalty on U (feature
selection) and a column-wise one on V (lag selection), solved by an
accelerated proximal-gradient method nested inside an alternating loop
that re-estimates the within-subject working correlation.
"""

__version__ = "0.1.0"

from .alternation import FitConfig, FitResult, fit, predict, selected_support
from .correlation import WorkingCorrelation, build_R
from .dataset import (
    LaggedDesign,
    LongitudinalDataset,
    SubjectSeries,
    build_lagged,
    load_csv,
    split_temporal,
    write_csv,
)
from .errors import DataError, NumericalError
from .evaluation import (
    CvSpec,
    auc,
    default_grids,
    grid_cv,
    lambda_max,
    nmse,
    support_lambdas,
)
from .families import Family
from .fista import InnerConfig
from .penalty import CoefficientPair
from .simulate import SimConfig, generate_classification, generate_regression

__all__ = [
    "CoefficientPair",
    "CvSpec",
    "DataError",
    "Family",
    "FitConfig",
    "FitResult",
    "InnerConfig",
    "LaggedDesign",
    "LongitudinalDataset",
    "NumericalError",
    "SimConfig",
    "SubjectSeries",
    "WorkingCorrelation",
    "auc",
    "build_R",
    "build_lagged",
    "default_grids",
    "fit",
    "generate_classification",
    "generate_regression",
    "grid_cv",
    "lambda_max",
    "load_csv",
    "nmse",
    "predict",
    "selected_support",
    "split_temporal",
    "support_lambdas",
    "write_csv",
]
