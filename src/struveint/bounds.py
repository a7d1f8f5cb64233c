"""Lower and upper bounds for the damped Struve integrals.

Implements the coefficient triple (a, b, c), the eight bound expressions
bi1-bi8 on the integral of exp(-gamma t) t^(-nu) L_{nu+n}(t), the
supremum constant D that gates the damped upper bounds, and the derived
two-sided bounds on the 2F3 expression.

The bound values are assembled from series, never from quadrature, so
they are deterministic.  Each is formed as exp(k - (1-gamma)x) times its
value and leaves that offset form through integrals._leave.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache

from .exceptions import BoundNotApplicableError, DomainError, DSolverError
from .integrals import (
    IntegralSpec,
    _expansion_scaled,
    _leave,
    _power_series,
    integral_quadrature,
)
from .specfun import (
    SQRT_PI,
    _LN2,
    _series,
    _series_cap,
    _struve_den,
    _sums,
    log_gamma,
    struve_l_scaled,
    struve_l_weighted,
)

#: Grid used by the supremum scan: log-spaced points on [1e-3, 500].
D_SCAN_POINTS = 200
D_SCAN_LO = 1e-3
D_SCAN_HI = 500.0

class BoundCoefficients(namedtuple("BoundCoefficients", "a b c")):
    """The coefficient triple multiplying the polynomial correction terms."""

    __slots__ = ()


class DConstant(namedtuple("DConstant", "nu n value argmax_x")):
    """sup over x > 0 of  x^nu / L_{nu+n}(x) * integral(L_{nu+n}(t)/t^nu)."""

    __slots__ = ()


class BoundReport(namedtuple("BoundReport", "spec integral applicable_bounds skipped")):
    """Every applicable bound at one parameter point, next to the
    integral, and skip reasons for the inapplicable ones."""

    __slots__ = ()


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
    scale = math.exp(-(nu + n + 1.0) * _LN2 - log_gamma(nu + n + 2.5))
    if not scale:  # every coefficient underflows, also where top overflows
        return BoundCoefficients(0.0, 0.0, 0.0)
    base = top * scale / SQRT_PI
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
    return _leave(lambda k: _power_series(nu, 1.0, x, x - k).value, 0.0, nu, x, "lower_bi1")


def _check_bi23_domain(nu: float, n: float, x: float, name: str) -> None:
    if not n > -1.0:
        raise DomainError(f"{name} requires n > -1, got n={n}")
    if nu < -0.5 * (n + 1.0):
        raise DomainError(f"{name} requires nu >= -(n+1)/2, got nu={nu}, n={n}")
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} requires finite x > 0, got x={x}")


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
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} requires finite x > 0, got x={x}")


def _tail_scale(gamma: float, nu: float, offset: float) -> float:
    # exp(-offset) / (sqrt(pi) gamma 2^nu Gamma(nu+3/2)), the Gamma in log space
    return math.exp(-offset - nu * _LN2 - log_gamma(nu + 1.5)) / (SQRT_PI * gamma)


def lower_bi4(gamma: float, nu: float, x: float) -> float:
    """Lower bound for the damped n = 0 integral, built from the undamped
    integral."""
    _check_damped_domain(gamma, nu, x, "bi4")
    u, offset = gamma * x, (1.0 - gamma) * x
    # 1 - (1+u)e^-u: below u = 1, where its two parts cancel, the positive
    # series u^2 e^-u sum_j u^j / (2 3 ... (j+2)); 0 if u underflows
    if u >= 1.0:
        poly = -math.expm1(-u) - u * math.exp(-u)
    else:
        poly = _series(lambda k: k + 3.0, [u], [2.0 * math.log(u) - _LN2], [u],
                       _series_cap(u), "lower_bi4")[0] if u > 0.0 else 0.0
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
    if not (math.isfinite(nu) and math.isfinite(n)):
        raise DomainError(f"{name} requires finite nu and n, got nu={nu}, n={n}")
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
    P = sum w_k T_k <= L, w_k = (n+2)/(n+2k+2), both summed in one kernel
    pass over L_{nu+n}'s terms; the first term and the offset cancel in
    P/L, and the ratio is at most x/(n+2).  At large x the integrated
    Hankel expansion gives x^nu exp(-x) times the integral in O(1).
    """
    _check_ratio_domain(nu, n, "ratio_fn")
    if not 0.0 < x < math.inf:
        raise DomainError(f"ratio_fn requires finite x > 0, got x={x}")
    return _ratio_grid(nu, n, [x])[0]


def _ratio_grid(nu: float, n: float, xs: list, tables: tuple | None = None) -> list:
    # ratio_fn at each x: the large-x expansion point by point, the rest in one pass
    larges = [_expansion_scaled(IntegralSpec(0.0, nu, n, x), x, nu) for x in xs]
    rest = [x for x, large in zip(xs, larges) if not large]
    series = iter([r for r, _, _ in _ratio_sums(nu, n, rest, tables)])
    return [large[0] / struve_l_scaled(nu + n, x).value if large else next(series)
            for x, large in zip(xs, larges)]


def _ratio_sums(nu: float, n: float, xs: list, tables: tuple | None = None) -> list:
    # (ratio_fn, L, P) at each x, L and P summed in one kernel pass; tables,
    # the kernel's (d_k, w_{k+1}) lists, carries them across calls
    parts = _sums(_struve_den(nu + n), [0.25 * x * x for x in xs],
                  _series_cap(max(xs, default=0.0)), "ratio_fn",
                  lambda k: (n + 2.0) / (n + 2.0 * k + 4.0), tables)
    return [(x / (n + 2.0) * (part[4] / part[0]), part[0], part[4])
            for x, part in zip(xs, parts)]


def _scan_grid(points: int) -> list:
    """points log-spaced x on [D_SCAN_LO, D_SCAN_HI], the grid of the D scan."""
    step = (math.log(D_SCAN_HI) - math.log(D_SCAN_LO)) / (points - 1)
    return [math.exp(math.log(D_SCAN_LO) + i * step) for i in range(points)]


def _log_slopes(nu: float, n: float, xs: list, tables: tuple, k_tables: tuple) -> list:
    # (ratio_fn, g = x r'/r) at each x on the series route.  As x dT_k/dx =
    # 2k T_k and k w_k = (n+2)(1 - w_k)/2, g = 1 + (n+2)(L/P - 1) - 2K/L with
    # K = sum k T_k: a pass of its own weights T_k by k, and T_0 by 1
    ks = _sums(_struve_den(nu + n), [0.25 * x * x for x in xs], _series_cap(max(xs)),
               "d_constant", lambda k: k + 1.0, k_tables)
    return [(r, 1.0 + (n + 2.0) * (l / p - 1.0) - 2.0 * (k_sum - 1.0) / l)
            for (r, l, p), (*_, k_sum) in zip(_ratio_sums(nu, n, xs, tables), ks)]


@lru_cache(maxsize=None)
def _d_constant_cached(nu: float, n: float) -> DConstant:
    xs = _scan_grid(D_SCAN_POINTS)
    tables, k_tables = ([], []), ([], [])

    # Downwards from the top: below x = (n+2) top no point can beat top,
    # as ratio_fn <= x/(n+2).  Ties keep the lowest index.  top only
    # grows, so the points from (n+2) ratio_fn(xs[-1]) up are all the scan
    # can reach; they are evaluated in one pass.
    best, (top,) = D_SCAN_POINTS - 1, _ratio_grid(nu, n, xs[-1:], tables)
    lo = bisect_left(xs, (n + 2.0) * top, 0, D_SCAN_POINTS - 1)
    vals = _ratio_grid(nu, n, xs[lo:-1], tables)
    for i in range(D_SCAN_POINTS - 2, lo - 1, -1):
        if xs[i] < (n + 2.0) * top:
            break
        val = vals[i - lo]
        if val >= top:
            best, top = i, val
    if best == 0 or best == D_SCAN_POINTS - 1:
        edge = "left" if best == 0 else "right"
        raise DSolverError(
            f"ratio scan found no interior maximum for nu={nu}, n={n}: "
            f"boundary supremum {top:.6f} at the {edge} edge "
            f"x={xs[best]:g} of [{D_SCAN_LO:g}, {D_SCAN_HI:g}]"
        )
    # g's zero by Illinois (Brent 1973, ch. 4): secant steps keep the sign change,
    # halving g at an end kept twice running, until |g| fails to shrink, as it
    # does once g is rounding, or a step leaves the open bracket; the step after
    # a g = 0 lands on that g's point.
    (a, x, b), kept, size = xs[best - 1:best + 2], None, math.inf
    (_, ga), (_, gb) = _log_slopes(nu, n, [a, b], tables, k_tables)
    for _ in range(100):
        step = b - gb * (b - a) / (gb - ga)
        if not a < step < b:
            return DConstant(nu, n, top, x)
        x = step
        (r, g), = _log_slopes(nu, n, [x], tables, k_tables)
        top = max(top, r)
        if not abs(g) < size:
            return DConstant(nu, n, top, x)
        size = abs(g)
        if (g > 0.0) == (ga > 0.0):
            a, ga, gb, kept = x, g, gb * 0.5 if kept == "b" else gb, "b"
        else:
            b, gb, ga, kept = x, g, ga * 0.5 if kept == "a" else ga, "a"
    raise DSolverError(f"the secant search for D did not settle in 100 steps at nu={nu}, n={n}")


def d_constant(nu: float, n: float) -> DConstant:
    """Supremum of ratio_fn over x > 0.

    A 200-point log grid, scanned from its top down to where the bound
    ratio_fn <= x/(n+2) rules out the rest, brackets the interior
    maximum; a bracketed secant (Illinois) takes the ratio's
    log-derivative there to its zero.  argmax_x is within 1e-6 of the
    maximizer, and value, the largest ratio that the scan and the search
    evaluated, within a few ulps of the supremum.  Results are memoized
    per (nu, n); concurrent first calls may duplicate the scan but always
    produce identical values.
    """
    _check_ratio_domain(nu, n, "d_constant")
    return _d_constant_cached(float(nu), float(n))


def _bi78_d(gamma, nu, n, x, name: str) -> float:
    # D for (nu, n), once the bound's domain checks pass.
    _check_ratio_domain(nu, n, name)
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"{name} requires 0 < gamma < 1, got gamma={gamma}")
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} requires finite x > 0, got x={x}")
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
    if not 0.5 < nu < math.inf:
        raise DomainError(f"corollary requires finite nu > 1/2, got nu={nu}")
    if not 0.0 < x < math.inf:
        raise DomainError(f"corollary requires finite x > 0, got x={x}")


def corollary_middle(nu: float, x: float) -> float:
    """The 2F3 expression sandwiched by the corollary bounds:

        x^(nu+1) / (sqrt(pi) 2^nu Gamma(nu+1/2))
            * 2F3(1, 1; 3/2, 2, nu+1/2; x^2/4)

    which is x^(nu-1) times the undamped n = 0 integral at order nu-1,
    leaving offset form through the same _leave as corollary_bounds.
    """
    _check_corollary_domain(nu, x)
    return _leave(lambda k: _power_series(nu - 1.0, 0.0, x, x - k).value, 0.0, nu - 1.0, x,
                  "corollary_middle", nu - 1.0)


def corollary_bounds(nu: float, x: float) -> tuple[float, float]:
    """Two-sided bounds on corollary_middle: x^(nu-1) times bi2 and bi3
    at order nu-1, n = 0, so built from L_nu and L_{nu+2}."""
    _check_corollary_domain(nu, x)
    return tuple(_leave(lambda k: body(nu - 1.0, 0.0, x, x - k), 0.0, nu - 1.0, x,
                        "corollary_bounds", nu - 1.0)
                 for body in (_bi2_scaled, _bi3_scaled))


def bound_report(spec: IntegralSpec) -> BoundReport:
    """Evaluate the integral and every bound applicable at spec.

    Inapplicable or domain-erroring bounds, and bi7 and bi8 where the
    scan for D finds no interior maximum (DSolverError), are recorded in
    .skipped with the reason rather than failing the whole report.
    """
    report = BoundReport(spec, integral_quadrature(spec).value, {}, {})
    gamma, nu, n, x = spec.gamma, spec.nu, spec.n, spec.x

    def attempt(name, fn):
        try:
            report.applicable_bounds[name] = fn()
        except (DomainError, DSolverError) as exc:  # BoundNotApplicableError included
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
