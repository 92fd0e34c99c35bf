"""Intrinsic random functions of arbitrary order on the unit circle.

Covariance structure, reproducing kernels, universal and ordinary kriging,
their smoothing-spline reading, and spectral simulation with statistical
verification.
"""

from .circle import (
    TWO_PI,
    CardinalBasis,
    DiscreteMeasure,
    NilSpaceBasis,
    angular_distance,
    wrap,
)
from .covariance import (
    IntrinsicCovariance,
    Semivariogram,
    SpectralModel,
    phi_from_variogram,
    spline_covariance,
    spline_kernel,
)
from .errors import (
    AliasingError,
    AllowabilityError,
    CircKrigError,
    ConditioningError,
    DuplicatePointsError,
    InsufficientDataError,
    SpectrumError,
    UnisolvencyError,
    VariogramShiftError,
)
from .kriging import (
    Dataset,
    OrdinaryKrigingModel,
    UniversalKrigingModel,
    fit_ordinary,
    fit_universal,
    trig_regression,
)
from .report import CheckResult, Report
from .rkhs import (
    RkhsKernel,
    TruncatedFunction,
    full_inner_product,
    semi_inner_product,
)
from .simulate import (
    CoefficientSample,
    CouplingMoments,
    check_coefficient_coupling,
    check_translation_stationarity,
    empirical_coefficients,
    simulate_brownian_bridge,
    simulate_irf,
)
from .verification import random_allowable_measure, run_verification

__version__ = "0.1.0"

__all__ = [
    "TWO_PI",
    "wrap",
    "angular_distance",
    "DiscreteMeasure",
    "NilSpaceBasis",
    "CardinalBasis",
    "SpectralModel",
    "IntrinsicCovariance",
    "Semivariogram",
    "spline_kernel",
    "spline_covariance",
    "phi_from_variogram",
    "TruncatedFunction",
    "RkhsKernel",
    "semi_inner_product",
    "full_inner_product",
    "Dataset",
    "UniversalKrigingModel",
    "OrdinaryKrigingModel",
    "fit_universal",
    "fit_ordinary",
    "trig_regression",
    "CoefficientSample",
    "CouplingMoments",
    "simulate_irf",
    "simulate_brownian_bridge",
    "empirical_coefficients",
    "check_translation_stationarity",
    "check_coefficient_coupling",
    "CheckResult",
    "Report",
    "random_allowable_measure",
    "run_verification",
    "CircKrigError",
    "UnisolvencyError",
    "DuplicatePointsError",
    "InsufficientDataError",
    "ConditioningError",
    "SpectrumError",
    "VariogramShiftError",
    "AliasingError",
    "AllowabilityError",
]
