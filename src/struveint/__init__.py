"""Modified Struve function of the first kind, its damped integrals, and
two-sided bounds with a grid-verification CLI."""

from .bounds import (
    BoundCoefficients,
    BoundReport,
    DConstant,
    bound_report,
    coefficients,
    corollary_bounds,
    corollary_middle,
    d_constant,
    lower_bi1,
    lower_bi2,
    lower_bi4,
    lower_bi5,
    ratio_fn,
    upper_bi3,
    upper_bi7,
    upper_bi8,
)
from .exceptions import (
    BoundNotApplicableError,
    ConvergenceError,
    DomainError,
    DSolverError,
    ToleranceNotMetError,
)
from .gridcheck import CheckResult, GridConfig, run_verification
from .integrals import (
    IntegralSpec,
    QuadratureResult,
    integral_closed_form,
    integral_power_series,
    integral_quadrature,
    integral_series_oracle,
)
from .specfun import (
    SeriesEval,
    gamma_fn,
    log_gamma,
    pfq,
    struve_l,
    struve_l_scaled,
)
from .tables import TableArtifact, make_table

__version__ = "0.1.0"

__all__ = [
    "BoundCoefficients",
    "BoundNotApplicableError",
    "BoundReport",
    "CheckResult",
    "ConvergenceError",
    "DConstant",
    "DomainError",
    "DSolverError",
    "GridConfig",
    "IntegralSpec",
    "QuadratureResult",
    "SeriesEval",
    "TableArtifact",
    "ToleranceNotMetError",
    "bound_report",
    "coefficients",
    "corollary_bounds",
    "corollary_middle",
    "d_constant",
    "gamma_fn",
    "integral_closed_form",
    "integral_power_series",
    "integral_quadrature",
    "integral_series_oracle",
    "log_gamma",
    "lower_bi1",
    "lower_bi2",
    "lower_bi4",
    "lower_bi5",
    "make_table",
    "pfq",
    "ratio_fn",
    "run_verification",
    "struve_l",
    "struve_l_scaled",
    "upper_bi3",
    "upper_bi7",
    "upper_bi8",
]
