"""Scalar special functions underlying the integral bounds.

Gamma and log-gamma (the stdlib's, behind domain checks), the lower
incomplete gamma function, Pochhammer symbols, generalized
hypergeometric series, and the modified Struve function of the first
kind L_nu in plain and exponentially scaled form.  Every power series is
summed by one kernel, sum_series, which also sets its term cap and raises
ConvergenceError when the cap runs out.  Everything here is a pure
function of its arguments; there is no shared mutable state.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

from .exceptions import ConvergenceError, DomainError

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Default cap on series terms; STRUVE_MAX_TERMS overrides it.
DEFAULT_MAX_TERMS = 600

#: Stop summing once |term| <= REL_TERM_TOL * |partial sum| twice in a row.
REL_TERM_TOL = 1e-16

#: Plain (unscaled) evaluation of L_nu refuses arguments above this.
OVERFLOW_X = 700.0

#: Past this argument the term cap of a series in x grows with x.
SCALED_SWITCH_X = 30.0

#: Term and iteration cap of the incomplete gamma series and fraction.
_INCGAMMA_CAP = 10000

# sum_series divides its partial sum by _RESCALE (an exact power of two)
# whenever the sum passes it, and starts from a mantissa near 1 when the
# first term would be below exp(_LOG_TINY).
_RESCALE_BITS = 930
_RESCALE = 2.0**_RESCALE_BITS
_LOG_TINY = -700.0
_LN2 = math.log(2.0)
# Cody-Waite split of ln 2: bits * _LN2_HI is exact for |bits| < 2**21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def term_cap() -> int:
    """Configured series term cap (STRUVE_MAX_TERMS, default 600)."""
    raw = os.environ.get("STRUVE_MAX_TERMS")
    if raw is None:
        return DEFAULT_MAX_TERMS
    if not raw.strip().isdecimal() or int(raw) <= 0:
        raise DomainError(f"STRUVE_MAX_TERMS must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class SeriesEval:
    """A summed series value with its error estimate and term count;
    converged is always True (sum_series raises otherwise)."""

    value: float
    abs_error_estimate: float
    terms_used: int
    converged: bool


def gamma_fn(x: float) -> float:
    """Gamma function for positive finite arguments (math.gamma).

    The whole package only ever forms gamma of positive quantities.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"gamma_fn requires finite x > 0, got x={x}")
    return math.gamma(x)


def log_gamma(x: float) -> float:
    """log Gamma(x) for finite x > 0 (math.lgamma), safe far beyond
    gamma_fn's overflow point."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"log_gamma requires finite x > 0, got x={x}")
    return math.lgamma(x)


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k != int(k) or k < 0:
        raise DomainError(f"pochhammer requires an integer k >= 0, got k={k}")
    out = 1.0
    for i in range(int(k)):
        out *= a + i
    return out


def sum_series(
    log_first: float,
    ratio: Callable[[int], float],
    offset: float,
    name: str,
    x: float = 0.0,
    max_terms: int | None = None,
) -> SeriesEval:
    """Sum t_0 = exp(log_first - offset), t_{k+1} = t_k * ratio(k).

    The terms are summed in plain arithmetic relative to a running binary
    exponent, so a series whose terms leave the binary64 range on the way
    stays finite: exp(-x) L_nu(x) at x = 1e4 starts near exp(-1e4), and
    its unscaled terms peak near exp(1e4).

    Stops after two consecutive terms below REL_TERM_TOL relative to the
    partial sum.  The stop test only arms once |ratio| < 1, so series
    whose terms grow before decaying are handled correctly.  The error
    estimate 2*|last term| is safe because past that point the terms
    decay at least geometrically.

    At most max_terms terms are taken (term_cap() when None).  A series
    in x needs ~x/2 terms before its terms even start decaying, so past
    SCALED_SWITCH_X the cap grows to x/2 + 12 sqrt(x) + 80.  Raises
    ConvergenceError naming the series when the cap runs out.
    """
    cap = max_terms if max_terms is not None else term_cap()
    if x > SCALED_SWITCH_X:
        cap = max(cap, int(x / 2.0 + 12.0 * math.sqrt(x) + 80.0))
    c = log_first - offset
    bits = 0
    if c < _LOG_TINY:
        bits = round(c / _LN2)
        # Both subtractions are exact when |log_first| is small next to
        # offset, so the reduced exponent is as accurate as log_first.
        c = ((-offset - bits * _LN2_HI) + log_first) - bits * _LN2_LO
    total = term = math.exp(c)
    small = 0
    for k in range(cap - 1):
        q = ratio(k)
        term *= q
        total += term
        if abs(q) < 1.0 and abs(term) <= REL_TERM_TOL * abs(total):
            small += 1
            if small == 2:
                return SeriesEval(
                    math.ldexp(total, bits), math.ldexp(2.0 * abs(term), bits),
                    k + 2, True,
                )
        else:
            small = 0
            if not -_RESCALE < total < _RESCALE:
                total /= _RESCALE
                term /= _RESCALE
                bits += _RESCALE_BITS
    raise ConvergenceError(f"{name} did not converge within {cap} terms")


def _check_pfq_params(a: Sequence[float], b: Sequence[float], z: float) -> None:
    if not all(map(math.isfinite, [*a, *b, z])):
        raise DomainError(f"pFq requires finite parameters and z, got {a}, {b}, {z}")
    for bj in b:
        if bj <= 0.0 and bj == int(bj):
            raise DomainError(
                f"denominator parameter {bj} is zero or a negative integer"
            )
    if len(a) > len(b) + 1:
        raise DomainError(f"pFq requires p <= q+1, got p={len(a)}, q={len(b)}")
    if len(a) == len(b) + 1 and abs(z) >= 1.0:
        raise DomainError(f"p = q+1 series only converges for |z| < 1, got z={z}")


def pfq(
    numerator_params: Sequence[float],
    denominator_params: Sequence[float],
    z: float,
    max_terms: int | None = None,
) -> SeriesEval:
    """Generalized hypergeometric series pFq(a1..ap; b1..bq; z).

    Summed term by term via the ratio recurrence
    t_{k+1}/t_k = prod(a_i+k)/prod(b_j+k) * z/(k+1).
    """
    a = [float(v) for v in numerator_params]
    b = [float(v) for v in denominator_params]
    _check_pfq_params(a, b, z)
    if z == 0.0:
        return SeriesEval(1.0, 0.0, 1, True)

    def ratio(k: int) -> float:
        num = 1.0
        for ai in a:
            num *= ai + k
        den = 1.0
        for bj in b:
            den *= bj + k
        return num / den * z / (k + 1.0)

    return sum_series(0.0, ratio, 0.0, "pFq series", max_terms=max_terms)


def struve_l(nu: float, x: float, max_terms: int | None = None) -> SeriesEval:
    """Modified Struve function of the first kind, L_nu(x), from its
    defining power series.

    Restricted to nu > -3/2 (where the function is positive for x > 0)
    and x below the binary64 overflow threshold; use struve_l_scaled for
    larger arguments.
    """
    return _struve_series(nu, x, 0.0, max_terms)


def struve_l_scaled(nu: float, x: float, max_terms: int | None = None) -> SeriesEval:
    """Exponentially scaled modified Struve function, exp(-x) * L_nu(x).

    The same power series as struve_l with the exp(-x) folded into its
    first term; the summation kernel's running exponent keeps it finite
    for x well past 1e4.
    """
    return _struve_series(nu, x, x, max_terms)


def _struve_series(
    nu: float, x: float, offset: float, max_terms: int | None
) -> SeriesEval:
    # exp(-offset) * L_nu(x); offset is 0 (struve_l) or x (struve_l_scaled).
    if not -1.5 < nu < math.inf:
        raise DomainError(f"modified Struve order must exceed -3/2, got nu={nu}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"struve_l requires finite x >= 0, got x={x}")
    if x - offset > OVERFLOW_X:
        raise OverflowError(
            f"struve_l overflows for x > {OVERFLOW_X:g} (x={x}); "
            "use struve_l_scaled"
        )
    if x == 0.0:
        return SeriesEval(0.0, 0.0, 0, True)
    h = 0.5 * x
    h2 = h * h

    def ratio(k: int) -> float:
        return h2 / ((k + 1.5) * (k + nu + 1.5))

    log_first = (nu + 1.0) * math.log(h) - log_gamma(1.5) - log_gamma(nu + 1.5)
    name = "struve_l_scaled" if offset else "struve_l"
    return sum_series(log_first, ratio, offset, name, x, max_terms)


def regularized_gamma_p(s: float, z: float) -> float:
    """Regularized lower incomplete gamma P(s, z) in [0, 1].

    Series expansion for z < s+1, Lentz continued fraction for the
    complement otherwise (the classic split).  Raises ConvergenceError
    when either runs out of its 10,000 terms.
    """
    if not 0.0 < s < math.inf:
        raise DomainError(f"regularized_gamma_p requires finite s > 0, got s={s}")
    if not 0.0 <= z < math.inf:
        raise DomainError(f"regularized_gamma_p requires finite z >= 0, got z={z}")
    if z == 0.0:
        return 0.0
    if z < s + 1.0:
        return math.exp(_log_gser(s, z))
    return 1.0 - _gcf_q(s, z)


def _log_gser(s: float, z: float) -> float:
    # log of the series form of P(s, z); valid for z < s+1.
    out = sum_series(-math.log(s), lambda k: z / (s + k + 1.0), 0.0,
                     "incomplete gamma series", max_terms=_INCGAMMA_CAP)
    return s * math.log(z) - z - log_gamma(s) + math.log(out.value)


def _gcf_q(s: float, z: float) -> float:
    # Upper regularized Q(s, z) by modified Lentz; valid for z >= s+1.
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _INCGAMMA_CAP):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delt = d * c
        h *= delt
        if abs(delt - 1.0) < 1e-16:
            break
    else:
        raise ConvergenceError(
            f"incomplete gamma continued fraction did not converge within "
            f"{_INCGAMMA_CAP} iterations (s={s}, z={z})"
        )
    return math.exp(s * math.log(z) - z - log_gamma(s)) * h


def lower_incomplete_gamma(s: float, z: float) -> float:
    """Lower incomplete gamma, integral of t^(s-1) exp(-t) over (0, z)."""
    return regularized_gamma_p(s, z) * gamma_fn(s)


def log_lower_incomplete_gamma(s: float, z: float) -> float:
    """log of the lower incomplete gamma; finite for s far beyond the
    point where gamma_fn overflows.  Requires z > 0."""
    if not 0.0 < z < math.inf:
        raise DomainError(f"log_lower_incomplete_gamma needs finite z > 0, got z={z}")
    if not 0.0 < s < math.inf:
        raise DomainError(f"log_lower_incomplete_gamma needs finite s > 0, got s={s}")
    if z < s + 1.0:
        return _log_gser(s, z) + log_gamma(s)
    return math.log1p(-_gcf_q(s, z)) + log_gamma(s)
