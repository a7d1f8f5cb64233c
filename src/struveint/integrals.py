"""The damped Struve integrals and their independent evaluation routes.

The central object is

    I(gamma, nu, n, x) = integral over (0, x) of
                         exp(-gamma t) t^(-nu) L_{nu+n}(t) dt,

evaluated three ways: a generalized-hypergeometric closed form for the
undamped n = 0 case, adaptive quadrature for everything, and a termwise
series (plain powers for gamma = 0, lower incomplete gamma otherwise)
that serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfun
from .exceptions import DomainError
from .quadrature import adaptive_quadrature
from .specfun import (
    SQRT_PI,
    SQRT_TWO_PI,
    SeriesEval,
    gamma_fn,
    log_gamma,
    log_lower_incomplete_gamma,
    pfq,
    struve_l,
    struve_l_scaled,
    sum_series,
)

#: Default relative tolerance for the adaptive quadrature route.
QUAD_REL_TOL = 1e-12

#: Subdivision budget for one integral.
QUAD_MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class IntegralSpec:
    """One damped Struve integral: damping gamma, denominator exponent nu,
    order shift n, and upper limit x."""

    gamma: float
    nu: float
    n: float
    x: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError(f"damping must satisfy 0 <= gamma < 1, got {self.gamma}")
        if not self.n > -1.0:
            raise DomainError(f"order shift must satisfy n > -1, got {self.n}")
        if not -1.5 < self.nu + self.n < math.inf:
            raise DomainError(
                f"nu + n must exceed -3/2, got nu={self.nu}, n={self.n}"
            )
        if not 0.0 < self.x < math.inf:
            raise DomainError(f"upper limit must be finite and > 0, got x={self.x}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    subdivisions: int


def integrand(spec: IntegralSpec, t: float) -> float:
    """exp(-gamma t) t^(-nu) L_{nu+n}(t), with the t = 0 limit value 0."""
    if t < 0.0:
        raise DomainError(f"integrand requires t >= 0, got t={t}")
    if t == 0.0:
        return 0.0
    return math.exp(-spec.gamma * t) * t ** (-spec.nu) * struve_l(spec.nu + spec.n, t).value


def _scaled_integrand(spec: IntegralSpec, offset: float, t: float) -> float:
    # exp(-offset) * integrand(t), assembled from the scaled Struve value
    # so no intermediate overflows: the exponent (1-gamma)t - offset stays
    # <= 0 for t <= x when offset = (1-gamma)x.
    if t == 0.0:
        return 0.0
    return (
        math.exp((1.0 - spec.gamma) * t - offset)
        * t ** (-spec.nu)
        * struve_l_scaled(spec.nu + spec.n, t).value
    )


def _quadrature_scaled(
    spec: IntegralSpec, rel_tol: float, max_subdivisions: int
) -> tuple[float, float, int, float]:
    """Adaptive quadrature of the offset-scaled integrand.

    Returns (scaled value, scaled error, subdivisions, log offset) with
    true integral = exp(offset) * scaled value.
    """
    offset = (1.0 - spec.gamma) * spec.x
    value, err, n = adaptive_quadrature(
        lambda t: _scaled_integrand(spec, offset, t),
        0.0,
        spec.x,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
    )
    return value, err, n, offset


def integral_quadrature(
    spec: IntegralSpec,
    rel_tol: float = QUAD_REL_TOL,
    max_subdivisions: int = QUAD_MAX_SUBDIVISIONS,
) -> QuadratureResult:
    """Evaluate the damped integral by adaptive Gauss-Kronrod quadrature.

    The integrand is integrated in offset form
    exp((1-gamma)t - (1-gamma)x) t^(-nu) [e^-t L_{nu+n}(t)] and the
    offset is restored afterwards.
    """
    value, err, n, offset = _quadrature_scaled(spec, rel_tol, max_subdivisions)
    if offset > 709.0:
        raise OverflowError(
            f"integral overflows binary64 at x={spec.x}, gamma={spec.gamma}; "
            "use log_integral_quadrature"
        )
    scale = math.exp(offset)
    return QuadratureResult(scale * value, scale * err, n)


def log_integral_quadrature(
    spec: IntegralSpec,
    rel_tol: float = QUAD_REL_TOL,
    max_subdivisions: int = QUAD_MAX_SUBDIVISIONS,
) -> float:
    """Natural log of the damped integral (for large-x tightness work)."""
    value, _, _, offset = _quadrature_scaled(spec, rel_tol, max_subdivisions)
    return offset + math.log(value)


def integral_closed_form(nu: float, x: float) -> float:
    """Undamped n = 0 integral via its 2F3 representation:

        x^2 / (sqrt(pi) 2^(nu+1) Gamma(nu+3/2))
            * 2F3(1, 1; 3/2, 2, nu+3/2; x^2/4)
    """
    if nu <= -1.5:
        raise DomainError(f"closed form requires nu > -3/2, got nu={nu}")
    if x < 0.0:
        raise DomainError(f"closed form requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    front = x * x / (SQRT_PI * 2.0 ** (nu + 1.0) * gamma_fn(nu + 1.5))
    return front * pfq([1.0, 1.0], [1.5, 2.0, nu + 1.5], 0.25 * x * x).value


def integral_power_series(
    nu: float, n: float, x: float, max_terms: int | None = None
) -> SeriesEval:
    """Undamped integral for general order shift n, integrated term by
    term:  sum over k of
        (1/2)^(nu+n+2k+1) x^(n+2k+2) / ((n+2k+2) Gamma(k+3/2) Gamma(k+nu+n+3/2)).
    """
    return _power_series(nu, n, x, 0.0, max_terms)


def integral_power_series_scaled(
    nu: float, n: float, x: float, max_terms: int | None = None
) -> SeriesEval:
    """exp(-x) times the undamped integral; the exp(-x) is folded into the
    first term, so large upper limits stay finite."""
    return _power_series(nu, n, x, x, max_terms)


def _power_series(
    nu: float, n: float, x: float, offset: float, max_terms: int | None
) -> SeriesEval:
    # exp(-offset) times the undamped integral; offset is 0 or x.
    _check_undamped_args(nu, n, x)
    if x - offset > specfun.OVERFLOW_X:
        raise OverflowError(
            f"integral_power_series overflows for x > {specfun.OVERFLOW_X:g}; "
            "use integral_power_series_scaled"
        )
    if x == 0.0:
        return SeriesEval(0.0, 0.0, 0, True)
    log_first = (
        (nu + n + 1.0) * math.log(0.5)
        + (n + 2.0) * math.log(x)
        - math.log(n + 2.0)
        - log_gamma(1.5)
        - log_gamma(nu + n + 1.5)
    )
    q2 = 0.25 * x * x

    def ratio(k: int) -> float:
        return (
            q2
            * (n + 2.0 * k + 2.0)
            / ((n + 2.0 * k + 4.0) * (k + 1.5) * (k + nu + n + 1.5))
        )

    name = "integral_power_series_scaled" if offset else "integral_power_series"
    return sum_series(log_first, ratio, offset, name, x, max_terms)


def integral_series_oracle(spec: IntegralSpec, max_terms: int | None = None) -> SeriesEval:
    """Termwise incomplete-gamma evaluation of the damped integral:

        sum over k of (1/2)^(nu+n+2k+1) / (Gamma(k+3/2) Gamma(k+nu+n+3/2))
                      * gamma^-(n+2k+2) * gamma_low(n+2k+2, gamma x).

    Requires gamma > 0; the undamped case is integral_power_series.
    Each term is assembled in log space, which keeps the damping powers
    gamma^-(n+2k+2) from overflowing on their own.
    """
    if spec.gamma <= 0.0:
        raise DomainError(
            "integral_series_oracle requires gamma > 0; "
            "use integral_power_series for the undamped case"
        )
    gamma, nu, n, x = spec.gamma, spec.nu, spec.n, spec.x
    log_half = math.log(0.5)
    log_gam = math.log(gamma)
    gx = gamma * x

    def log_term(k: int) -> float:
        s = n + 2.0 * k + 2.0
        return (
            (nu + n + 2.0 * k + 1.0) * log_half
            - log_gamma(k + 1.5)
            - log_gamma(k + nu + n + 1.5)
            - s * log_gam
            + log_lower_incomplete_gamma(s, gx)
        )

    prev = log_term(0)

    def ratio(k: int) -> float:
        nonlocal prev
        cur = log_term(k + 1)
        q = math.exp(cur - prev)
        prev = cur
        return q

    return sum_series(prev, ratio, 0.0, "integral_series_oracle", x, max_terms)


def asymptotic_integral(spec: IntegralSpec) -> float:
    """Leading large-x asymptote of the damped integral,

        x^(-nu-1/2) exp((1-gamma)x) / (sqrt(2 pi) (1-gamma)),

    computed in log space.  Only used by the tightness checks."""
    return math.exp(log_asymptotic_integral(spec))


def log_asymptotic_integral(spec: IntegralSpec) -> float:
    return (
        (1.0 - spec.gamma) * spec.x
        - (spec.nu + 0.5) * math.log(spec.x)
        - math.log(SQRT_TWO_PI * (1.0 - spec.gamma))
    )


def _check_undamped_args(nu: float, n: float, x: float) -> None:
    if not n > -1.0:
        raise DomainError(f"order shift must satisfy n > -1, got {n}")
    if not -1.5 < nu + n < math.inf:
        raise DomainError(f"nu + n must exceed -3/2, got nu={nu}, n={n}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"upper limit must be finite and nonnegative, got x={x}")
