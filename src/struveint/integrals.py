"""The damped Struve integrals and their independent evaluation routes.

The central object is

    I(gamma, nu, n, x) = integral over (0, x) of
                         exp(-gamma t) t^(-nu) L_{nu+n}(t) dt,

evaluated three ways: a generalized-hypergeometric closed form for the
undamped n = 0 case, adaptive quadrature for everything (replaced by the
integrated Hankel expansion at large (1-gamma)x, where a proven bound
says it is accurate), and a termwise series (plain powers for gamma = 0,
times Kummer weights otherwise), an oracle that shares only the series
kernel with the quadrature.  Each value, here and in bounds, is formed
in the one offset form of _offset_form and left through _leave or unscale.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial

from .exceptions import DomainError, ToleranceNotMetError
from .quadrature import _gk15, adaptive_quadrature
from .specfun import (
    SCALED_SWITCH_X,
    SQRT_TWO_PI,
    UNSCALE_MAX_OFFSET,
    SeriesEval,
    _DBL_MIN,
    _EPS,
    _LN2,
    _RESCALE,
    _RESCALE_BITS,
    _series,
    _series_cap,
    _struve_series,
    log_gamma,
    struve_l_weighted,
    unscale,
)

#: Relative tolerance of the adaptive quadrature route.
QUAD_REL_TOL = 1e-12

#: Subdivision budget for one integral.
QUAD_MAX_SUBDIVISIONS = 2000

# Term cap of the large-x expansion.
_EXPANSION_MAX_TERMS = 100

# The current quadrature_memo() block's tables, or None outside one: by
# (gamma, nu, n) row, its GK15 panels by (lo, hi) and its results by x; by
# (nu, n, lo, hi), the panel nodes' series heads and sums.
_MEMO: ContextVar[dict | None] = ContextVar("struveint_quadrature_memo", default=None)


class IntegralSpec(namedtuple("IntegralSpec", "gamma nu n x")):
    """One damped Struve integral: damping gamma, denominator exponent nu,
    order shift n, and upper limit x.

    Every construction path (the call, _make, _replace, pickle, copy)
    runs the domain checks."""

    __slots__ = ()

    def __new__(cls, gamma: float, nu: float, n: float, x: float):
        if not 0.0 <= gamma < 1.0:
            raise DomainError(f"damping must satisfy 0 <= gamma < 1, got {gamma}")
        if not n > -1.0:
            raise DomainError(f"order shift must satisfy n > -1, got {n}")
        if not -1.5 < nu + n < math.inf:
            raise DomainError(f"nu + n must exceed -3/2, got nu={nu}, n={n}")
        if not 0.0 < x < math.inf:
            raise DomainError(f"upper limit must be finite and > 0, got x={x}")
        return tuple.__new__(cls, (gamma, nu, n, x))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


QuadratureResult = namedtuple("QuadratureResult", "value abs_error_estimate subdivisions")


def _panel_values(spec: IntegralSpec, offset: float, ts: list[float],
                  shared: list | None = None) -> list[float]:
    # exp(-offset) times the integrand at each node of ts: one power series
    # pass for those in (0, SCALED_SWITCH_X] (its heads and sums kept in, or
    # taken from, shared), struve_l_weighted for the rest.
    mu, c = spec.nu + spec.n, 1.0 - spec.gamma
    small = [t for t in ts if 0.0 < t <= SCALED_SWITCH_X]
    values = _struve_series(mu, -spec.nu, small, [c * t - offset for t in small],
                            small, "struve_l_weighted", False, shared)
    if len(small) == len(ts):
        return values
    values = iter(values)  # else some nodes are 0 or past the switch
    return [next(values) if 0.0 < t <= SCALED_SWITCH_X else 0.0 if t == 0.0
            else struve_l_weighted(mu, t, -spec.nu, c * t - offset, t).value for t in ts]


def _panel_scaled(spec: IntegralSpec, offset: float, row: dict | None,
                  lo: float, hi: float) -> tuple[float, float]:
    # One GK15 panel and its own offset form fl((1-gamma) hi) - k(hi)
    # (_offset_form), a function of (gamma, nu, n, lo, hi) that the row's
    # table shares between upper limits, rescaled to the integral's offset
    # by exp of the difference of the two exact floats (one rounding).  The
    # memo shares the nodes' series sums, of (nu, n, lo, hi), across gamma.
    panel = None if row is None else row.get((lo, hi))
    if panel is None:
        own, own_k = _offset_form(spec.gamma, spec.nu, hi)
        memo = _MEMO.get()
        sums = None if memo is None else memo.setdefault((spec.nu, spec.n, lo, hi), [])
        values = partial(_panel_values, spec, own - own_k, shared=sums)
        panel = *_gk15(values, lo, hi), own - own_k
        if row is not None:
            row[(lo, hi)] = panel
    scale = math.exp(panel[2] - offset)
    return panel[0] * scale, panel[1] * scale


@contextmanager
def quadrature_memo():
    """Evaluate each distinct integral, GK15 panel and panel series once
    inside the with-block (the tables of _MEMO): the upper limits of a
    (gamma, nu, n) row share its panels, the dampings of a (nu, n) pair the
    panels' series sums.  Nothing outlives the block."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _offset_form(gamma: float, nu: float, x: float) -> tuple[float, float]:
    """The offset rule: fl((1-gamma)x) and the whole k in [0, fl((1-gamma)x)]
    at most nu log x.  A value of order nu at x carries x^-nu; held as
    exp(k - fl((1-gamma)x)) times itself it stays in range, and
    fl((1-gamma)x) - k is exact (below 2^53)."""
    offset, k = (1.0 - gamma) * x, nu * math.log(x)
    return offset, float(math.floor(k if k < offset else offset)) if k > 0.0 else 0.0


def _quadrature_scaled(spec: IntegralSpec, log=False) -> tuple[float, float, int, float]:
    """The integral in offset form, from the large-x expansion where it
    applies and by adaptive quadrature otherwise.

    Returns (scaled value, scaled error, subdivisions, log offset) with
    true integral = exp(offset) * scaled value.  A scaled value below
    DBL_MIN has lost its bits: it is unknown where the offset exceeds 1,
    and so is its log.
    """
    rows = _MEMO.get()
    row = None if rows is None else rows.setdefault((spec.gamma, spec.nu, spec.n), {})
    result = None if row is None else row.get(spec.x)
    if result is None:
        offset, k = _offset_form(spec.gamma, spec.nu, spec.x)
        result = _expansion_scaled(spec, offset, 0.0, k)
        if result is None:
            value, err, n = adaptive_quadrature(partial(_panel_scaled, spec, offset - k, row),
                                                0.0, spec.x, QUAD_REL_TOL, QUAD_MAX_SUBDIVISIONS)
            # no panel estimate holds the rounding of the node logs (about k)
            # nor, below DBL_MIN, of the nodes (x units) and sums (none if 0)
            err += k * _EPS * value
            if value < _DBL_MIN:
                err += (8.0 * spec.x + 3.0 * n + 1.0 if value else spec.x) * math.ulp(0.0)
            result = value, err, n, offset - k
        if row is not None:
            row[spec.x] = result
    if result[0] < _DBL_MIN and (log or result[3] > 1.0):
        raise ToleranceNotMetError(f"{'log_' * log}integral_quadrature: exp(-{result[3]:g}) "
                                   "times the integral underflows", 0.0, math.inf, result[2])
    return result


def _expansion_scaled(
    spec: IntegralSpec, offset: float, power: float = 0.0, k: float = 0.0
) -> tuple[float, float, int, float] | None:
    """x^power exp(k - offset) times the integral from its large-x
    expansion, offset = fl((1-gamma)x), as (value, error, 0 subdivisions,
    offset - k); None where GK15 must be used.

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
    log_lead = (log_asymptotic_integral(spec, offset, power) + k
                + _damping_residual(gamma, x, offset))
    lead = math.exp(log_lead)
    value = lead * total
    # two units of roundoff per unit of each log term and per summed term
    rounding = 4.5e-16 * (abs(p - power) * log_x + abs(log_lead) + m + 2.0)
    err = lead * (v + rounding) + 2.0 * math.exp(log_lead + gap)
    if not err <= QUAD_REL_TOL * value:
        return None
    return value, err, 0, offset - k


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

    The integrand is integrated in the offset form of _offset_form,
    exp(k - gamma t - fl((1-gamma)x)) t^(-nu) L_{nu+n}(t), each value one
    weighted Struve series, and the offset is restored afterwards.  At
    large (1-gamma)x the integrated Hankel expansion (_expansion_scaled)
    replaces the quadrature wherever its error bound meets the same
    tolerance; such a result reports 0 subdivisions.  A value below the
    smallest normal double may be 0.  Raises OverflowError only when the
    integral is beyond binary64, and ToleranceNotMetError where its
    offset form is below the smallest normal double at an offset above 1.
    """
    value, err, n, offset = _quadrature_scaled(spec)
    name = "integral_quadrature"
    return QuadratureResult(unscale(value, offset, name), unscale(err, offset, name), n)


def log_integral_quadrature(spec: IntegralSpec) -> float:
    """Natural log of the damped integral (for large-x tightness work),
    finite past binary64.  Raises ToleranceNotMetError where the
    integral's offset form is below the smallest normal double."""
    value, _, _, offset = _quadrature_scaled(spec, log=True)
    return offset + math.log(value)


def integral_closed_form(nu: float, x: float) -> float:
    """Undamped n = 0 integral via its 2F3 representation:

        x^2 / (sqrt(pi) 2^(nu+1) Gamma(nu+3/2))
            * 2F3(1, 1; 3/2, 2, nu+3/2; x^2/4)

    the integrated series at n = 0 (the same d_k), left through _leave as
    the bounds are.  Raises OverflowError when it is beyond binary64."""
    if nu <= -1.5:
        raise DomainError(f"closed form requires nu > -3/2, got nu={nu}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"closed form requires finite x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    return _leave(lambda k: _power_series(nu, 0.0, x, x - k).value, 0.0, nu, x,
                  "integral_closed_form")


def _leave(scaled, gamma: float, nu: float, x: float, name: str,
           power: float = 0.0) -> float:
    # x^power exp((1-gamma)x - k) scaled(k), k from _offset_form, restoring
    # fl((1-gamma)x)'s rounding (x < 1e300).  The whole part j of log x^power
    # joins the offset, its rest multiplies.  A body that underflows, as at
    # corollary_bounds(300, 700), takes up to 700 of j where that makes it a
    # normal double.  Past unscale's clamp the overflow is decided unsummed.
    log_x = math.log(x)
    offset, k = _offset_form(gamma, nu, x)
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
    return _series(_power_den(nu + n, n), [0.25 * x * x], [_power_log_first(nu, n, x)],
                   [offset], _series_cap(x), "integral_power_series", True)[0]


def _power_log_first(nu: float, n: float, x: float) -> float:
    # log of the integrated series' first term
    return ((nu + n + 1.0) * math.log(0.5) + (n + 2.0) * math.log(x)
            - math.log(n + 2.0) - log_gamma(1.5) - log_gamma(nu + n + 1.5))


def _power_den(mu: float, n: float):
    # d_k of the integrated series: its terms are L_mu's over n + 2k + 2
    return lambda k: (n + 2.0 * k + 4.0) * (k + 1.5) * (k + mu + 1.5) / (n + 2.0 * k + 2.0)


def integral_series_oracle(spec: IntegralSpec) -> SeriesEval:
    """Termwise series of the damped integral, z = gamma x, s_k = n + 2k + 2:

        exp(-z) * sum over k of u_k w(s_k),

    u_k the k-th term of integral_power_series and w the Kummer weight of
    _kummer_weights, so the k-th term is (1/2)^(nu+n+2k+1) gamma^-s_k
    gamma_low(s_k, z) / (Gamma(k+3/2) Gamma(k+nu+n+3/2)).  Requires gamma > 0
    (else integral_power_series).  One _series pass, d_k w(s_k) / w(s_{k+1})
    for the undamped d_k: as w >= 1 falls in k, each term is at most the
    undamped one next to its partial sum, so the undamped term count bounds it.
    """
    if spec.gamma <= 0.0:
        raise DomainError(
            "integral_series_oracle requires gamma > 0; "
            "use integral_power_series for the undamped case"
        )
    gamma, nu, n, x = spec.gamma, spec.nu, spec.n, spec.x
    name, z, q = "integral_series_oracle", gamma * x, 0.25 * x * x
    log_first, den = _power_log_first(nu, n, x), _power_den(nu + n, n)
    count = _series(den, [q], [log_first], [x], _series_cap(x), name, True)[0].terms_used
    log_w, ratios = _kummer_weights(n + 2.0, z, count)
    out, = _series(lambda k: den(k) * ratios[k], [q], [log_first + log_w], [z],
                   count + 1, name, True)
    # the kernel counts the first term's log at the size of log_first + log_w;
    # log_w (about z) carries its own rounding where log_first cancels it
    return SeriesEval(out.value, out.abs_error_estimate + abs(log_w) * _EPS * out.value,
                      out.terms_used)


def _kummer_weights(s: float, z: float, count: int) -> tuple[float, list[float]]:
    """log w(s) and w(s+2k) / w(s+2k+2) for k < count, where w(s) =
    sum_j z^j / ((s+1) ... (s+j)) = s z^-s e^z gamma_low(s, z) (DLMF 8.5).

    w(s) = 1 + z w(s+1) / (s+1) is carried down, its stable direction
    (DLMF 8.8; Gautschi 1979): an error in w(s+1) reaches w(s) times
    1 - 1/w(s) <= z/(s+1).  It starts from w = 1 so far above s + 2 count
    and 2z that the start's error, at most rho = z/(s+base+1) <= 1/2 and
    times rho per step, is below 2^-56 there.  w, like e^z, is kept as w 2^e.
    """
    base = max(2 * count, math.ceil(2.0 * z - s))
    rho = z / (s + base + 1.0)
    top = base + (math.ceil(39.0 / -math.log(rho)) if rho > 0.0 else 0)
    w, one, e, above, ratios = 1.0, 1.0, 0, 1.0, []
    for i in range(top - 1, -1, -1):
        w = one + z * w / (s + i + 1.0)
        if i % 2 == 0 and i <= 2 * count:  # the first ratio, at 2 count, is dropped
            ratios.append(w / above)
            above = w
        if w > _RESCALE:
            w, above, one, e = w / _RESCALE, above / _RESCALE, one / _RESCALE, e + _RESCALE_BITS
    return math.log(w) + e * _LN2, ratios[:0:-1]


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
