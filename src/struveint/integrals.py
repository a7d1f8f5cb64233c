"""The damped Struve integrals and their independent evaluation routes.

The central object is

    I(gamma, nu, n, x) = integral over (0, x) of
                         exp(-gamma t) t^(-nu) L_{nu+n}(t) dt,

evaluated three ways: a generalized-hypergeometric closed form for the
undamped n = 0 case, adaptive quadrature for everything (replaced by the
integrated Hankel expansion at large (1-gamma)x, where a proven bound
says it is accurate), and a termwise series (plain powers for gamma = 0,
lower incomplete gamma otherwise) that serves as an independent oracle.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial

from .exceptions import DomainError, ToleranceNotMetError
from .quadrature import _gk15, adaptive_quadrature
from .specfun import (
    SQRT_PI,
    SCALED_SWITCH_X,
    SQRT_TWO_PI,
    SeriesEval,
    _series,
    _series_cap,
    _struve_series,
    log_gamma,
    log_lower_incomplete_gamma,
    struve_l_weighted,
    unscale,
)

#: Relative tolerance of the adaptive quadrature route.
QUAD_REL_TOL = 1e-12

#: Subdivision budget for one integral.
QUAD_MAX_SUBDIVISIONS = 2000

# Term cap of the large-x expansion.
_EXPANSION_MAX_TERMS = 100

# Scaled quadratures by spec and GK15 panel tables by (gamma, nu, n) row
# of the current quadrature_memo() block, or None outside one.
_MEMO: ContextVar[tuple | None] = ContextVar("struveint_quadrature_memo", default=None)


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
    return _panel_values(spec, 0.0, [t])[0]


def _panel_values(spec: IntegralSpec, offset: float, ts: list[float]) -> list[float]:
    # exp(-offset) times the integrand at each node of ts: one power series
    # pass for those in (0, SCALED_SWITCH_X], struve_l_weighted for the rest.
    mu, c = spec.nu + spec.n, 1.0 - spec.gamma
    small = [t for t in ts if 0.0 < t <= SCALED_SWITCH_X]
    values = iter(_struve_series(mu, -spec.nu, small, [c * t - offset for t in small],
                                 small, "struve_l_weighted"))
    return [next(values) if 0.0 < t <= SCALED_SWITCH_X else 0.0 if t == 0.0
            else struve_l_weighted(mu, t, -spec.nu, c * t - offset, t).value for t in ts]


def _panel_scaled(spec: IntegralSpec, offset: float, row: dict | None,
                  lo: float, hi: float) -> tuple[float, float]:
    # One GK15 panel in its own offset form fl((1-gamma) hi), a function of
    # (gamma, nu, n, lo, hi) that the row's table shares between upper limits,
    # rescaled by the difference of the two offsets (exact for hi >= x/2).
    own = (1.0 - spec.gamma) * hi
    panel = None if row is None else row.get((lo, hi))
    if panel is None:
        panel = _gk15(partial(_panel_values, spec, own), lo, hi)
        if row is not None:
            row[(lo, hi)] = panel
    scale = math.exp(own - offset)
    return panel[0] * scale, panel[1] * scale


@contextmanager
def quadrature_memo():
    """Evaluate each distinct quadrature once inside the with-block.

    integral_quadrature and log_integral_quadrature share one entry per
    spec, from GK15 or from the large-x expansion, and the GK15 runs of a
    (gamma, nu, n) row share their panels; the entries are dropped when
    the block exits, so nothing outlives it.
    """
    token = _MEMO.set(({}, {}))
    try:
        yield
    finally:
        _MEMO.reset(token)


def _quadrature_scaled(spec: IntegralSpec) -> tuple[float, float, int, float]:
    """The offset-scaled integral, from the large-x expansion where it
    applies and by adaptive quadrature otherwise.

    Returns (scaled value, scaled error, subdivisions, log offset) with
    true integral = exp(offset) * scaled value.
    """
    specs, rows = _MEMO.get() or (None, None)
    if specs is not None and spec in specs:
        return specs[spec]
    offset = (1.0 - spec.gamma) * spec.x
    result = _expansion_scaled(spec, offset)
    if result is None:
        row = None if rows is None else rows.setdefault((spec.gamma, spec.nu, spec.n), {})
        value, err, n = adaptive_quadrature(
            partial(_panel_scaled, spec, offset, row),
            0.0,
            spec.x,
            rel_tol=QUAD_REL_TOL,
            max_subdivisions=QUAD_MAX_SUBDIVISIONS,
        )
        result = value, err, n, offset
    if result[0] == 0.0 and offset > 1.0:  # unknown, not 0
        raise ToleranceNotMetError(f"integral_quadrature: exp(-{offset:g}) times "
                                   "the integral underflows", 0.0, math.inf, result[2])
    if specs is not None:
        specs[spec] = result
    return result


def _expansion_scaled(
    spec: IntegralSpec, offset: float, power: float = 0.0
) -> tuple[float, float, int, float] | None:
    """x^power exp(-offset) times the integral from its large-x expansion,
    as (value, error, 0 subdivisions, offset); None where GK15 must be used.

    The Hankel expansion of I_mu, mu = nu + n (DLMF 10.40.1), integrated
    term by term (Olver 1974, ch. 3) gives lead * sum of u_m, with lead
    from log_asymptotic_integral, c = 1 - gamma, p = nu + 1/2 and
        u_0 = 1,  u_{m+1} = u_m (p+m)/(cx) + h_{m+1},
        h_k = (-1)^k a_k(mu) / x^k,  a_k = prod_{i<=k} (4mu^2-(2i-1)^2) / (k! 8^k).
    It leaves out the head (the integral over [0, x/2]), its own value at
    x/2 and the M_mu = L_mu - I_mu part, a power of t (DLMF 11.6.1).  For
    mu >= -1/2 the L_mu series has term ratios at most t^2/((2k+2)(2k+3)),
    so L_mu(t) <= T_0(t) e^t with T_0 its first term, and
        head <= lead x^(mu+3/2) 2^(-mu-n-1/2) exp(-cx/2) / Gamma(mu+3/2),
    which also bounds the value at x/2 once x >= 4mu + 6.  The route needs
    this below e^-41 of lead.  The sum ends where the majorant
    v_{m+1} = v_m |p+m|/(cx) + |h_{m+1}| of |u_{m+1}| drops below 1e-17 of
    it, or at the smallest v_m once they decay.  The estimate, that v_m
    plus twice the head bound plus rounding, must meet QUAD_REL_TOL.
    """
    gamma, nu, n, x = spec.gamma, spec.nu, spec.n, spec.x
    mu, p, cx = nu + n, nu + 0.5, (1.0 - gamma) * x
    if mu < -0.5 or x < 4.0 * mu + 6.0:
        return None
    log_x = math.log(x)
    gap = ((mu + 1.5) * log_x - (mu + n + 0.5) * math.log(2.0)
           - log_gamma(mu + 1.5) - 0.5 * cx)
    if gap > -41.0:
        return None
    total, u, v, h, armed = 0.0, 1.0, 1.0, 1.0, False
    for m in range(_EXPANSION_MAX_TERMS):
        h *= -(4.0 * mu * mu - (2 * m + 1) ** 2) / (8.0 * (m + 1) * x)
        u_next = u * (p + m) / cx + h
        v_next = v * abs(p + m) / cx + abs(h)
        if armed and v_next >= v:
            break
        armed = armed or v_next < v
        total += u
        u, v = u_next, v_next
        if v <= 1e-17 * abs(total):
            break
    else:
        return None
    log_lead = (log_asymptotic_integral(spec, offset, power)
                + _damping_residual(gamma, x, offset))
    lead = math.exp(log_lead)
    value = lead * total
    # two units of roundoff per unit of each log term and per summed term
    rounding = 4.5e-16 * (abs(p - power) * log_x + abs(log_lead) + m + 2.0)
    err = lead * (v + rounding) + 2.0 * math.exp(log_lead + gap)
    if not err <= QUAD_REL_TOL * value:
        return None
    return value, err, 0, offset


def _damping_residual(gamma: float, x: float, offset: float) -> float:
    # x - gamma x - offset for offset = fl((1-gamma) x), exact before one
    # rounding: Dekker's product on Veltkamp's split (no math.fma before
    # Python 3.13) gives gamma x = prod + err, x - prod is an exact
    # two-sum, and its difference with offset is exact by Sterbenz's lemma.
    prod = gamma * x
    g_hi, x_hi = (a * 134217729.0 - (a * 134217729.0 - a) for a in (gamma, x))
    g_lo, x_lo = gamma - g_hi, x - x_hi
    err = ((g_hi * x_hi - prod) + g_hi * x_lo + g_lo * x_hi) + g_lo * x_lo
    diff = x - prod
    return (diff - offset) + (((x - diff) - prod) - err)


def integral_quadrature(spec: IntegralSpec) -> QuadratureResult:
    """Evaluate the damped integral by adaptive Gauss-Kronrod quadrature.

    The integrand is integrated in offset form
    exp(-gamma t - (1-gamma)x) t^(-nu) L_{nu+n}(t), each value one
    weighted Struve series, and the offset is restored afterwards.  At
    large (1-gamma)x the integrated Hankel expansion (_expansion_scaled)
    replaces the quadrature wherever its error bound meets the same
    tolerance; such a result reports 0 subdivisions.  Raises
    OverflowError only when the integral is beyond binary64, and
    ToleranceNotMetError when its offset form underflows at offset > 1.
    """
    value, err, n, offset = _quadrature_scaled(spec)
    name = "integral_quadrature"
    return QuadratureResult(unscale(value, offset, name), unscale(err, offset, name), n)


def log_integral_quadrature(spec: IntegralSpec) -> float:
    """Natural log of the damped integral (for large-x tightness work)."""
    value, _, _, offset = _quadrature_scaled(spec)
    return offset + math.log(value)


def integral_closed_form(nu: float, x: float) -> float:
    """Undamped n = 0 integral via its 2F3 representation:

        x^2 / (sqrt(pi) 2^(nu+1) Gamma(nu+3/2))
            * 2F3(1, 1; 3/2, 2, nu+3/2; x^2/4)

    Raises OverflowError when the product is beyond binary64."""
    if nu <= -1.5:
        raise DomainError(f"closed form requires nu > -3/2, got nu={nu}")
    if x < 0.0:
        raise DomainError(f"closed form requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    return closed_form_times_power(nu, x, 2.0)


def closed_form_times_power(nu: float, x: float, power: float) -> float:
    """x^(power-2) integral_closed_form(nu, x) for x > 0: the Gamma factor
    in the log of the series' first term, lifted towards e^-700 by the whole
    part j of log x^power, whose rest goes through unscale.  The 2F3 terms
    are positive, so the one near the peak, k(k + nu + 3/2) = x^2/4, decides
    an overflow of the series before it is summed."""
    log_x = math.log(x)
    log_front = -math.log(SQRT_PI) - (nu + 1.0) * math.log(2.0) - log_gamma(nu + 1.5)
    j = max(0, min(math.floor(power * log_x), math.ceil(-700.0 - log_front)))
    k = math.floor(0.5 * (math.hypot(nu + 1.5, x) - nu - 1.5))
    log_peak = (2 * k * log_x - (nu + 2 * k + 2) * math.log(2.0) - math.log(k + 1.0)
                - log_gamma(k + 1.5) - log_gamma(k + nu + 1.5))  # front times term k
    if log_peak + j > 710.0:  # past log DBL_MAX = 709.78 by more than the logs' rounding
        raise OverflowError("pFq series overflows binary64")
    # the 2F3 is the integrated series at n = 0: d_k = (3/2+k)(2+k)(nu+3/2+k)/(1+k)
    series, = _series(_power_den(nu, 0.0), [0.25 * x * x], [log_front + j], [0.0],
                      _series_cap(x), "pFq series")
    return unscale(series, power * log_x - j, "integral_closed_form")


def integral_power_series(nu: float, n: float, x: float) -> SeriesEval:
    """Undamped integral for general order shift n, integrated term by term:
    sum of (1/2)^(nu+n+2k+1) x^(n+2k+2) / ((n+2k+2) Gamma(k+3/2) Gamma(k+nu+n+3/2))."""
    return _power_series(nu, n, x, 0.0)


def _power_series(nu: float, n: float, x: float, offset: float) -> SeriesEval:
    # exp(-offset) times the undamped integral
    if not n > -1.0:
        raise DomainError(f"order shift must satisfy n > -1, got {n}")
    if not -1.5 < nu + n < math.inf:
        raise DomainError(f"nu + n must exceed -3/2, got nu={nu}, n={n}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"upper limit must be finite and nonnegative, got x={x}")
    if x == 0.0:
        return SeriesEval(0.0, 0.0, 0)
    log_first = ((nu + n + 1.0) * math.log(0.5) + (n + 2.0) * math.log(x)
                 - math.log(n + 2.0) - log_gamma(1.5) - log_gamma(nu + n + 1.5))
    return _series(_power_den(nu + n, n), [0.25 * x * x], [log_first], [offset],
                   _series_cap(x), "integral_power_series", True)[0]


def _power_den(mu: float, n: float):
    # d_k of the integrated series: its terms are L_mu's over n + 2k + 2
    return lambda k: (n + 2.0 * k + 4.0) * (k + 1.5) * (k + mu + 1.5) / (n + 2.0 * k + 2.0)


def integral_series_oracle(spec: IntegralSpec) -> SeriesEval:
    """Termwise incomplete-gamma evaluation of the damped integral:

        sum over k of (1/2)^(nu+n+2k+1) / (Gamma(k+3/2) Gamma(k+nu+n+3/2))
                      * gamma^-(n+2k+2) * gamma_low(n+2k+2, gamma x).

    Requires gamma > 0; the undamped case is integral_power_series.
    Each term is assembled in log space, which keeps the damping powers
    gamma^-(n+2k+2) from overflowing on their own; the estimate adds the
    largest log term's rounding, max |log t_k| eps |sum|.
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
        return ((nu + n + 2.0 * k + 1.0) * log_half - log_gamma(k + 1.5)
                - log_gamma(k + nu + n + 1.5) - s * log_gam
                + log_lower_incomplete_gamma(s, gx))

    first = prev = log_term(0)
    big = abs(prev)

    def den(k: int) -> float:
        nonlocal prev, big
        cur = log_term(k + 1)
        # 1 / d is the term ratio exp(cur - prev), 0 where it underflows
        d = math.exp(prev - cur) if prev - cur < 709.0 else math.inf
        prev, big = cur, max(big, abs(cur))
        return d

    out, = _series(den, [1.0], [first], [0.0], _series_cap(x), "integral_series_oracle", True)
    # each term carries the rounding of its own log, which the kernel
    # counts for the first term only; the terms are positive
    err = out.abs_error_estimate + big * math.ulp(1.0) * out.value
    return SeriesEval(out.value, err, out.terms_used)


def log_asymptotic_integral(spec: IntegralSpec, offset: float = 0.0,
                            power: float = 0.0) -> float:
    """Natural log of x^power times the damped integral's leading asymptote,

        x^(power-nu-1/2) exp((1-gamma)x) / (sqrt(2 pi) (1-gamma)),

    less offset; the tightness checks and the large-x expansion use it."""
    return (
        ((1.0 - spec.gamma) * spec.x - offset)
        - (spec.nu + 0.5 - power) * math.log(spec.x)
        - math.log(SQRT_TWO_PI * (1.0 - spec.gamma))
    )
