"""Lower and upper bounds for the damped Struve integrals.

Implements the coefficient triple (a, b, c), the eight bound expressions
bi1-bi8 on the integral of exp(-gamma t) t^(-nu) L_{nu+n}(t), the
supremum constant D that gates the damped upper bounds, and the derived
two-sided bounds on the 2F3 expression.

The bound values are assembled from series, never from quadrature, so
they are deterministic.  Each is formed as exp(k - (1-gamma)x) times its
value and leaves that offset form through _leave and specfun.unscale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .exceptions import BoundNotApplicableError, DomainError, DSolverError
from .integrals import (
    IntegralSpec,
    _damping_residual,
    _expansion_scaled,
    _power_den,
    _power_series,
    closed_form_times_power,
    integral_power_series,
    integral_quadrature,
)
from .specfun import (
    SQRT_PI,
    UNSCALE_MAX_OFFSET,
    _series,
    _series_cap,
    _struve_den,
    log_gamma,
    log_lower_incomplete_gamma,
    struve_l_scaled,
    struve_l_weighted,
    unscale,
)

#: Grid used by the supremum scan: log-spaced points on [1e-3, 500].
D_SCAN_POINTS = 200
D_SCAN_LO = 1e-3
D_SCAN_HI = 500.0

#: Absolute x tolerance for the golden-section refinement.
D_XTOL = 1e-6

_LN2 = math.log(2.0)
_DBL_MIN = math.ldexp(1.0, -1022)  # the smallest normal double
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0

@dataclass(frozen=True)
class BoundCoefficients:
    """The coefficient triple multiplying the polynomial correction terms."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class DConstant:
    """sup over x > 0 of  x^nu / L_{nu+n}(x) * integral(L_{nu+n}(t)/t^nu)."""

    nu: float
    n: float
    value: float
    argmax_x: float


@dataclass
class BoundReport:
    """Every applicable bound at one parameter point, next to the
    integral, and skip reasons for the inapplicable ones."""

    spec: IntegralSpec
    integral: float
    applicable_bounds: dict[str, float] = field(default_factory=dict)
    skipped: dict[str, str] = field(default_factory=dict)


def coefficients(nu: float, n: float) -> BoundCoefficients:
    """Coefficients a, b, c indexed by (nu, n).

    All three share the numerator factor 2 nu + n + 1, so they vanish
    together exactly on the equality boundary nu = -(n+1)/2.
    """
    if nu + n + 2.5 <= 0.0:
        raise DomainError(f"gamma argument nonpositive: nu+n+5/2 = {nu + n + 2.5}")
    for factor, label in (
        (n + 1.0, "n+1"),
        (n + 2.0, "n+2"),
        (n + 4.0, "n+4"),
        (nu + n + 1.0, "nu+n+1"),
        (nu + n + 3.0, "nu+n+3"),
    ):
        if factor == 0.0:
            raise DomainError(f"denominator factor {label} vanishes at nu={nu}, n={n}")
    top = 2.0 * nu + n + 1.0
    # top / (sqrt(pi) 2^(nu+n+1) Gamma(nu+n+5/2)); Gamma in log space, as
    # it passes DBL_MAX once nu + n > 169
    base = top * math.exp(-(nu + n + 1.0) * _LN2 - log_gamma(nu + n + 2.5)) / SQRT_PI
    a = base / (2.0 * (n + 2.0) * (nu + n + 1.0))
    b = base * (2.0 * nu + n + 3.0) / (
        8.0 * (n + 1.0) * (n + 4.0) * (nu + n + 3.0) * (nu + n + 2.5) * (nu + n + 3.5))
    c = base / ((n + 1.0) * (n + 2.0))
    return BoundCoefficients(a, b, c)


def lower_bi1(nu: float, x: float) -> float:
    """Lower bound L_nu(x)/x^nu - x / (sqrt(pi) 2^nu Gamma(nu+3/2)) for
    the undamped n = 0 integral; tight as x grows.  By DLMF 11.4(iii) it
    is the undamped integral at n = 1, summed as that positive series."""
    if nu <= -1.5:
        raise DomainError(f"bi1 requires nu > -3/2, got nu={nu}")
    if x <= 0.0:
        raise DomainError(f"bi1 requires x > 0, got x={x}")
    return integral_power_series(nu, 1.0, x).value


def _check_bi23_domain(nu: float, n: float, x: float, name: str) -> None:
    if not n > -1.0:
        raise DomainError(f"{name} requires n > -1, got n={n}")
    if nu < -0.5 * (n + 1.0):
        raise DomainError(f"{name} requires nu >= -(n+1)/2, got nu={nu}, n={n}")
    if x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got x={x}")


def _bi2_scaled(nu: float, n: float, x: float, offset: float) -> float:
    # exp(-offset) bi2
    return (struve_l_weighted(nu + n + 1.0, x, -nu, 0.0, offset).value
            - coefficients(nu, n).a * x ** (n + 2.0) * math.exp(-offset))


def _bi3_scaled(nu: float, n: float, x: float, offset: float) -> float:
    # exp(-offset) bi3
    coefs = coefficients(nu, n)
    lead = 2.0 * (nu + n + 1.0) / (n + 1.0)
    second = (2.0 * nu + n + 1.0) / (n + 1.0)
    return (lead * struve_l_weighted(nu + n + 1.0, x, -nu, 0.0, offset).value
            - second * struve_l_weighted(nu + n + 3.0, x, -nu, 0.0, offset).value
            + (coefs.b * x ** (n + 4.0) - coefs.c * x ** (n + 2.0)) * math.exp(-offset))


def _leave(scaled, gamma: float, nu: float, x: float, name: str,
           power: float = 0.0) -> float:
    # x^power exp((1-gamma)x - k) scaled(k), restoring fl((1-gamma)x)'s
    # rounding (x < 1e300).  The whole k in [0, (1-gamma)x] near log x^nu
    # keeps a bound's x^-nu from underflowing it.  The whole part j of
    # log x^power joins the offset (offset - k + j = offset where j = k),
    # its rest multiplies.  A body that underflows, as at corollary_bounds(300,
    # 700), takes up to 700 of j (exp(-offset) stays finite) where that makes
    # it a normal double.  Past unscale's clamp any nonzero value overflows.
    log_x = math.log(x)
    offset = (1.0 - gamma) * x
    k = float(math.floor(max(0.0, min(nu * log_x, offset))))
    j = math.floor(power * log_x)
    lift, shift = offset - k + j, min(j, 700)
    value = scaled(k) if lift <= UNSCALE_MAX_OFFSET else 0.0
    if abs(value) < _DBL_MIN and shift > 0 and lift - shift <= UNSCALE_MAX_OFFSET:
        lifted = scaled(k + shift)
        if abs(lifted) >= _DBL_MIN:
            value, lift = lifted, lift - shift
    if lift > UNSCALE_MAX_OFFSET:
        raise OverflowError(f"{name} overflows binary64")
    residual = _damping_residual(gamma, x, offset) if gamma and x < 1e300 else 0.0
    return unscale(value * math.exp(power * log_x - j + residual), lift, name)


def lower_bi2(nu: float, n: float, x: float) -> float:
    """Lower bound L_{nu+n+1}(x)/x^nu - a x^(n+2) for the undamped
    integral; exact equality on the boundary nu = -(n+1)/2."""
    _check_bi23_domain(nu, n, x, "bi2")
    return _leave(lambda k: _bi2_scaled(nu, n, x, x - k), 0.0, nu, x, "lower_bi2")


def upper_bi3(nu: float, n: float, x: float) -> float:
    """Upper bound for the undamped integral; tight both as x grows and
    as x drops to 0, exact on the boundary nu = -(n+1)/2."""
    _check_bi23_domain(nu, n, x, "bi3")
    return _leave(lambda k: _bi3_scaled(nu, n, x, x - k), 0.0, nu, x, "upper_bi3")


def _check_damped_domain(gamma: float, nu: float, x: float, name: str) -> None:
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"{name} requires 0 < gamma < 1, got gamma={gamma}")
    if nu <= -1.5:
        raise DomainError(f"{name} requires nu > -3/2, got nu={nu}")
    if x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got x={x}")


def _tail_scale(gamma: float, nu: float, offset: float) -> float:
    # exp(-offset) / (sqrt(pi) gamma 2^nu Gamma(nu+3/2)), the Gamma in log space
    return math.exp(-offset - nu * _LN2 - log_gamma(nu + 1.5)) / (SQRT_PI * gamma)


def lower_bi4(gamma: float, nu: float, x: float) -> float:
    """Lower bound for the damped n = 0 integral, built from the undamped
    integral."""
    _check_damped_domain(gamma, nu, x, "bi4")
    u, offset = gamma * x, (1.0 - gamma) * x
    # 1 - (1+u)e^-u is gamma_low(2, u), a positive series; 0 if u underflows
    poly = math.exp(log_lower_incomplete_gamma(2.0, u)) if u > 0.0 else 0.0
    return _leave(lambda k: (_power_series(nu, 0.0, x, x - k).value
                             - poly * _tail_scale(gamma, nu, offset - k)) / (1.0 - gamma),
                  gamma, nu, x, "lower_bi4")


def lower_bi5(gamma: float, nu: float, x: float) -> float:
    """Weaker, integral-free variant of bi4 using only L_nu(x)."""
    _check_damped_domain(gamma, nu, x, "bi5")
    u, offset = gamma * x, (1.0 - gamma) * x
    poly = (1.0 + u) * -math.expm1(-u)
    return _leave(lambda k: (struve_l_weighted(nu, x, -nu, 0.0, x - k).value
                             - poly * _tail_scale(gamma, nu, offset - k)) / (1.0 - gamma),
                  gamma, nu, x, "lower_bi5")


def _check_ratio_domain(nu: float, n: float, name: str) -> None:
    if not n > -1.0:
        raise DomainError(f"{name} requires n > -1, got n={n}")
    if not nu > -0.5 * (n + 1.0):
        raise DomainError(
            f"{name} requires nu > -(n+1)/2 strictly, got nu={nu}, n={n}"
        )


def ratio_fn(nu: float, n: float, x: float) -> float:
    """x^nu / L_{nu+n}(x) times the undamped integral.

    Tends to 0 as x drops to 0 and to 1 as x grows; its supremum is the
    constant D.  With T_k > 0 the terms of L_{nu+n}(x), T_0 = 1, the Gamma
    factors cancel: the ratio is x/(n+2) P/L, L = sum T_k and
    P = sum T_k (n+2)/(n+2k+2) <= L, two series sums with one first term
    and offset x, so it is at most x/(n+2).  At large x the integrated
    Hankel expansion gives x^nu exp(-x) times the integral in O(1).
    """
    _check_ratio_domain(nu, n, "ratio_fn")
    if x <= 0.0:
        raise DomainError(f"ratio_fn requires x > 0, got x={x}")
    large = _expansion_scaled(IntegralSpec(0.0, nu, n, x), x, nu)
    if large:
        return large[0] / struve_l_scaled(nu + n, x).value
    z, cap = 0.25 * x * x, _series_cap(x)
    p, lsum = (_series(den, [z], [0.0], [x], cap, "ratio_fn")[0]
               for den in (_power_den(nu + n, n), _struve_den(nu + n)))
    return x / (n + 2.0) * (p / lsum)


def _golden_max(f, a: float, b: float, xtol: float) -> float:
    """Golden-section search for the maximizer of f on [a, b]."""
    h = b - a
    steps = int(math.ceil(math.log(xtol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(steps - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI_SQ * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
    return 0.5 * (a + b)


@lru_cache(maxsize=None)
def _d_constant_cached(nu: float, n: float) -> DConstant:
    log_lo = math.log(D_SCAN_LO)
    step = (math.log(D_SCAN_HI) - log_lo) / (D_SCAN_POINTS - 1)
    xs = [math.exp(log_lo + i * step) for i in range(D_SCAN_POINTS)]
    # Downwards from the top: below x = (n+2) top no point can beat top,
    # as ratio_fn <= x/(n+2).  Ties keep the lowest index.
    best, top = D_SCAN_POINTS - 1, ratio_fn(nu, n, xs[-1])
    for i in range(D_SCAN_POINTS - 2, -1, -1):
        if xs[i] < (n + 2.0) * top:
            break
        val = ratio_fn(nu, n, xs[i])
        if val >= top:
            best, top = i, val
    if best == 0 or best == D_SCAN_POINTS - 1:
        edge = "left" if best == 0 else "right"
        raise DSolverError(
            f"ratio scan found no interior maximum for nu={nu}, n={n}: "
            f"boundary supremum {top:.6f} at the {edge} edge "
            f"x={xs[best]:g} of [{D_SCAN_LO:g}, {D_SCAN_HI:g}]"
        )
    argmax = _golden_max(
        lambda x: ratio_fn(nu, n, x), xs[best - 1], xs[best + 1], D_XTOL
    )
    return DConstant(nu, n, ratio_fn(nu, n, argmax), argmax)


def d_constant(nu: float, n: float) -> DConstant:
    """Supremum of ratio_fn over x > 0.

    A 200-point log grid, scanned from its top down to where the bound
    ratio_fn <= x/(n+2) rules out the rest, brackets the interior maximum,
    which a golden-section refinement then pins to D_XTOL in x.  Results
    are memoized per (nu, n); concurrent first calls may duplicate the
    scan but always produce identical values.
    """
    _check_ratio_domain(nu, n, "d_constant")
    return _d_constant_cached(float(nu), float(n))


def _bi78_d(gamma, nu, n, x, name: str) -> float:
    # D for (nu, n), once the bound's domain checks pass.
    _check_ratio_domain(nu, n, name)
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"{name} requires 0 < gamma < 1, got gamma={gamma}")
    if x <= 0.0:
        raise DomainError(f"{name} requires x > 0, got x={x}")
    d = d_constant(nu, n).value
    if gamma >= 1.0 / d:
        raise BoundNotApplicableError(
            f"{name} only holds for gamma < 1/D = {1.0 / d:.6f}, "
            f"got gamma={gamma}"
        )
    return d


def upper_bi7(gamma: float, nu: float, n: float, x: float) -> float:
    """Damped upper bound exp(-gamma x)/(1 - D gamma) times the undamped
    integral, with D = d_constant(nu, n); applicable only for gamma < 1/D."""
    d = _bi78_d(gamma, nu, n, x, "bi7")
    return _leave(lambda k: _power_series(nu, n, x, x - k).value / (1.0 - d * gamma),
                  gamma, nu, x, "upper_bi7")


def upper_bi8(gamma: float, nu: float, n: float, x: float) -> float:
    """Fully explicit variant of bi7 with the undamped integral replaced
    by its bi3 upper bound."""
    d = _bi78_d(gamma, nu, n, x, "bi8")
    return _leave(lambda k: _bi3_scaled(nu, n, x, x - k) / (1.0 - d * gamma),
                  gamma, nu, x, "upper_bi8")


def _check_corollary_domain(nu: float, x: float) -> None:
    if nu <= 0.5:
        raise DomainError(f"corollary requires nu > 1/2, got nu={nu}")
    if x <= 0.0:
        raise DomainError(f"corollary requires x > 0, got x={x}")


def corollary_middle(nu: float, x: float) -> float:
    """The 2F3 expression sandwiched by the corollary bounds:

        x^(nu+1) / (sqrt(pi) 2^nu Gamma(nu+1/2))
            * 2F3(1, 1; 3/2, 2, nu+1/2; x^2/4)

    which is x^(nu-1) times the undamped closed form at order nu-1.
    """
    _check_corollary_domain(nu, x)
    return closed_form_times_power(nu - 1.0, x, nu + 1.0)


def corollary_bounds(nu: float, x: float) -> tuple[float, float]:
    """Two-sided bounds on corollary_middle: x^(nu-1) times bi2 and bi3
    at order nu-1, n = 0, so built from L_nu and L_{nu+2}."""
    _check_corollary_domain(nu, x)
    return tuple(_leave(lambda k: body(nu - 1.0, 0.0, x, x - k), 0.0, nu - 1.0, x,
                        "corollary_bounds", nu - 1.0)
                 for body in (_bi2_scaled, _bi3_scaled))


def bound_report(spec: IntegralSpec) -> BoundReport:
    """Evaluate the integral and every bound applicable at spec.

    Inapplicable or domain-erroring bounds are recorded in .skipped with
    the reason rather than failing the whole report.
    """
    report = BoundReport(spec=spec, integral=integral_quadrature(spec).value)
    gamma, nu, n, x = spec.gamma, spec.nu, spec.n, spec.x

    def attempt(name, fn):
        try:
            report.applicable_bounds[name] = fn()
        except DomainError as exc:  # BoundNotApplicableError included
            report.skipped[name] = str(exc)

    if gamma == 0.0:
        if n == 0.0:
            attempt("bi1", lambda: lower_bi1(nu, x))
        else:
            report.skipped["bi1"] = "bi1 bounds the n = 0 integral only"
        attempt("bi2", lambda: lower_bi2(nu, n, x))
        attempt("bi3", lambda: upper_bi3(nu, n, x))
        for name in ("bi4", "bi5", "bi7", "bi8"):
            report.skipped[name] = "requires 0 < gamma < 1"
    else:
        for name in ("bi1", "bi2", "bi3"):
            report.skipped[name] = "bounds the undamped integral; gamma = 0 only"
        if n == 0.0:
            attempt("bi4", lambda: lower_bi4(gamma, nu, x))
            attempt("bi5", lambda: lower_bi5(gamma, nu, x))
        else:
            report.skipped["bi4"] = "bi4 bounds the n = 0 integral only"
            report.skipped["bi5"] = "bi5 bounds the n = 0 integral only"
        attempt("bi7", lambda: upper_bi7(gamma, nu, n, x))
        attempt("bi8", lambda: upper_bi8(gamma, nu, n, x))
    return report
