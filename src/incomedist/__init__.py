"""Two-branch income distribution: evaluation, simulation, and fitting."""

from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    EmptyDatasetError,
    IncomeDistError,
    InsufficientDataError,
    InvalidParamsError,
    NonNormalizableError,
    NumericalBlowupError,
    QuadratureError,
    UnreliableErrorsError,
)
from .model import (
    FpCoefficients,
    NormalizedModel,
    Params,
    ccdf,
    fp_coefficients_for,
    from_fp_coefficients,
    logccdf,
    logpdf,
    model_diagnostics,
    normalize,
    params_from_dict,
    params_to_dict,
    pdf,
    quantile,
    sample,
    tail_slope,
)
from .quadrature import QuadResult, branch_mass, integrate_adaptive

__version__ = "0.1.0"
