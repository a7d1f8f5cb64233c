"""Scalar special functions underlying the integral bounds.

Gamma and log-gamma (the stdlib's, behind domain checks), the lower
incomplete gamma function in log form, generalized hypergeometric
series, and the modified Struve function of the first kind L_nu in
plain, exponentially scaled and weighted form (past x = 30 from its
large-x expansions where they converge).  One kernel, _series, sums
every power series the package forms, L_mu's, the integrated power
series, the closed form's 2F3, the incomplete gamma's and the oracle's,
for a list of arguments at once; all have positive terms.  The caller
gives it the term cap; it raises ConvergenceError (cap run out) or
OverflowError (sum beyond binary64).  Everything here is a pure
function of its arguments; there is no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .exceptions import ConvergenceError, DomainError

SQRT_PI = math.sqrt(math.pi)
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Stop summing once term <= REL_TERM_TOL * partial sum twice in a row.
REL_TERM_TOL = 1e-16

#: Past this argument L_nu tries its large-x expansions.
SCALED_SWITCH_X = 30.0

#: Term cap of a series in x up to x = 500 (_series_cap).
_SERIES_CAP = 600

#: Term and iteration cap of the incomplete gamma series and fraction.
_INCGAMMA_CAP = 10000

# _series divides its partial sum by _RESCALE (an exact power of two)
# whenever the sum passes it, and starts from a mantissa near 1.
_RESCALE_BITS = 930
_RESCALE = 2.0**_RESCALE_BITS
_LN2 = math.log(2.0)
# Cody-Waite split of ln 2: bits * _LN2_HI is exact for |bits| < 2**21.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_EPS = math.ulp(1.0)
_DBL_MIN = 2.0**-1022  # the smallest normal double
#: unscale's offset clamp: past it any nonzero scaled value overflows.
UNSCALE_MAX_OFFSET = 1500.0


@dataclass(frozen=True)
class SeriesEval:
    """A summed series value with its error estimate and term count."""

    value: float
    abs_error_estimate: float
    terms_used: int


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


def _series_cap(x: float) -> int:
    """Term cap of a series in x, which takes ~x/2 terms before they decay."""
    return (max(_SERIES_CAP, int(x / 2.0 + 12.0 * math.sqrt(x) + 80.0))
            if x > 500.0 else _SERIES_CAP)


def _series(den: Callable[[int], float], zs: list, log_firsts: list, offsets: list,
            cap: int, name: str, estimate: bool = False) -> list:
    """exp(log_first - offset) sum t_k for each (z, log_first, offset): t_0 = 1,
    t_{k+1} = t_k z / d_k, z >= 0 and d_k = den(k) > 0 tabulated once for all.

    The first term's exponent is reduced by an exact multiple of ln 2
    (Cody-Waite) to a mantissa near 1, and sum and term are divided by
    _RESCALE whenever the sum passes it, so terms may leave binary64 on the
    way: exp(-x) L_nu(x) at x = 1e4 starts near exp(-1e4).  Stops after two
    consecutive terms below REL_TERM_TOL of the sum once z / d_k < 1.  With
    estimate it returns SeriesEvals: twice the last term (the terms decay
    geometrically past it) plus (terms + 1 + |log_first| + |log_first -
    offset|) eps sum of rounding, and a subnormal unit for the rounding of a
    value below DBL_MIN.  Raises ConvergenceError after cap terms and
    OverflowError when a sum is beyond binary64, each naming the series.
    """
    dens, out = [], []
    for z, log_first, offset in zip(zs, log_firsts, offsets):
        bits = round((log_first - offset) / _LN2)
        # Both subtractions are exact when |log_first| is small next to offset;
        # else they round at the size of log_first's own rounding error.
        total = term = math.exp(((-offset - bits * _LN2_HI) + log_first) - bits * _LN2_LO)
        small = 0
        for k in range(cap - 1):
            if k == len(dens):
                dens.append(den(k))
            q = z / dens[k]
            term *= q
            total += term
            if q < 1.0 and term <= REL_TERM_TOL * total:
                small += 1
                if small == 2:
                    break
            else:
                small = 0
                if not total < _RESCALE:
                    total, term, bits = total / _RESCALE, term / _RESCALE, bits + _RESCALE_BITS
        else:
            raise ConvergenceError(f"{name} did not converge within {cap} terms")
        value = _ldexp(total, bits, name)
        if estimate:
            units = k + 3 + abs(log_first) + abs(log_first - offset)
            err = math.ldexp(2.0 * term + units * _EPS * total, bits)
            value = SeriesEval(value, err + math.ulp(0.0) if value < _DBL_MIN else err, k + 2)
        out.append(value)
    return out


def _ldexp(value: float, bits: int, name: str) -> float:
    try:
        return math.ldexp(value, bits)
    except OverflowError:
        raise OverflowError(f"{name} overflows binary64") from None


def unscale(scaled: float, offset: float, name: str) -> float:
    """exp(offset) * scaled, offset split exactly as bits ln 2 + r (Cody-Waite)
    up to 1500, past which any nonzero product overflows; raises
    OverflowError naming the quantity only when the product is beyond binary64."""
    offset = UNSCALE_MAX_OFFSET if offset > UNSCALE_MAX_OFFSET else offset
    bits = round(offset / _LN2)
    return _ldexp(scaled * math.exp((offset - bits * _LN2_HI) - bits * _LN2_LO),
                  bits, name)


def pfq(numerator_params: Sequence[float], denominator_params: Sequence[float],
        z: float) -> SeriesEval:
    """Generalized hypergeometric series pFq(a1..ap; b1..bq; z), for terms >= 0
    only (a_i >= 0, b_j > 0, z >= 0; else DomainError).  Nothing in the
    package calls it; it stays while the benchmark tracer names it."""
    a, b = [float(v) for v in numerator_params], [float(v) for v in denominator_params]
    if not all(map(math.isfinite, [*a, *b, z])):
        raise DomainError(f"pFq requires finite parameters and z, got {a}, {b}, {z}")
    if len(a) > len(b) + 1:
        raise DomainError(f"pFq requires p <= q+1, got p={len(a)}, q={len(b)}")
    if len(a) == len(b) + 1 and abs(z) >= 1.0:
        raise DomainError(f"p = q+1 series only converges for |z| < 1, got z={z}")
    if min(a, default=0.0) < 0.0 or min(b, default=1.0) <= 0.0 or z < 0.0:
        raise DomainError(f"pFq sums terms >= 0 only: needs a_i >= 0, b_j > 0 "
                          f"and z >= 0, got {a}, {b}, {z}")
    if z == 0.0 or 0.0 in a:
        return SeriesEval(1.0, 0.0, 1)
    # q = p+1 terms peak near k = sqrt(z), as those of a series in 2 sqrt(z)
    return _series(lambda k: math.prod(bj + k for bj in b) * (k + 1.0)
                   / math.prod(ai + k for ai in a),
                   [z], [0.0], [0.0], _series_cap(2.0 * math.sqrt(z)), "pFq series", True)[0]


def struve_l(nu: float, x: float) -> SeriesEval:
    """Modified Struve function of the first kind, L_nu(x).

    Restricted to nu > -3/2 (where the function is positive for x > 0).
    Raises OverflowError when L_nu(x) itself is beyond binary64 (x a
    little past 700); struve_l_scaled stays finite there.
    """
    return struve_l_weighted(nu, x, 0.0, 0.0, 0.0)


def struve_l_scaled(nu: float, x: float) -> SeriesEval:
    """Exponentially scaled modified Struve function, exp(-x) * L_nu(x).

    struve_l with the exp(-x) folded into its exponent, so it stays
    finite for x well past 1e4.
    """
    return struve_l_weighted(nu, x, 0.0, 0.0, x)


def struve_l_weighted(
    mu: float, x: float, power: float, log_weight: float, offset: float
) -> SeriesEval:
    """x^power * exp(log_weight - offset) * L_mu(x): past SCALED_SWITCH_X
    from _struve_asymptotic where it converges, else the power series.

    The weight goes into the log of the first term (or of the
    expansion's prefactor), one exactly rounded sum, so no factor of the
    product is formed alone:
    exp(-gamma x) x^(-nu) L_mu(x) stays accurate where x^(-nu), exp(x)
    or L_mu(x) would leave binary64 by itself.  Pass offset = x (exact)
    for large x; the kernel reduces it exactly.  Raises OverflowError
    only when the value itself is beyond binary64.
    """
    if not -1.5 < mu < math.inf:
        raise DomainError(f"modified Struve order must exceed -3/2, got nu={mu}")
    if not 0.0 <= x < math.inf:
        raise DomainError(f"struve_l requires finite x >= 0, got x={x}")
    if x == 0.0:
        return SeriesEval(0.0, 0.0, 0)
    plain = "struve_l_scaled" if offset else "struve_l"
    name = "struve_l_weighted" if power or log_weight else plain
    if x > SCALED_SWITCH_X:
        out = _struve_asymptotic(mu, x, power, log_weight, offset, name)
        if out is not None:
            return out
    return _struve_series(mu, power, [x], [log_weight], [offset], name, True)[0]


def _struve_series(mu: float, power: float, xs: list, log_weights: list, offsets: list,
                   name: str, estimate: bool = False) -> list:
    """x^power exp(log_weight - offset) L_mu(x) for each x > 0 of xs, one
    _series pass: t_0 = (x/2)^(mu+1) / (Gamma(3/2) Gamma(mu+3/2)), z = (x/2)^2
    and d_k = (k+3/2)(k+mu+3/2) (DLMF 11.2.1)."""
    if not xs:
        return []
    lg_half, lg_mu = log_gamma(1.5), log_gamma(mu + 1.5)
    log_firsts = []
    for x, log_weight in zip(xs, log_weights):
        h, lx = 0.5 * x, math.log(x)
        # log(x) - ln 2 where x/2 rounds (x subnormal), else log(x/2) exactly
        lh = math.log(h) if h + h == x else lx - _LN2
        log_firsts.append(math.fsum(((mu + 1.0) * lh, power * lx, log_weight,
                                     -lg_half, -lg_mu)))
    return _series(_struve_den(mu), [0.25 * x * x for x in xs], log_firsts, offsets,
                   _series_cap(max(xs)), name, estimate)


def _struve_den(mu: float) -> Callable[[int], float]:
    return lambda k: (k + 1.5) * (k + mu + 1.5)


def _struve_asymptotic(
    mu: float, x: float, power: float, log_weight: float, offset: float, name: str
) -> SeriesEval | None:
    """x^power exp(log_weight - offset) L_mu(x) as I_mu + M_mu, or None.

    I_mu = e^x/sqrt(2 pi x) sum (-1)^k a_k(mu)/x^k (DLMF 10.40.1, less an
    e^-x part); M_mu = sum m_k, m_0 = -(x/2)^(mu-1)/(sqrt(pi) Gamma(mu+1/2))
    (DLMF 11.2.6, 11.6.2).  Each sum must reach, within 40 terms, a term
    below 1e-17 of the value after a ratio below 1 (later Hankel ratios
    stay below 1 to k = 2x - 1), and the Hankel terms' absolute sum must be
    at most 16 times their sum.  Estimate: the first left-out terms, doubled
    except for M_mu after <= mu - 1/2 terms (DLMF 11.5.4), plus rounding.
    """
    lx, four_mu2, eight_x = math.log(x), 4.0 * mu * mu, 8.0 * x
    hsum = habs = h = 1.0
    for k in range(40):
        q = ((2 * k + 1) ** 2 - four_mu2) / (eight_x * (k + 1))
        h *= q
        if abs(q) < 1.0 and abs(h) <= 1e-17 * abs(hsum):
            break
        hsum += h
        habs += abs(h)
    else:
        return None
    if habs > 16.0 * abs(hsum):
        return None
    terms = k + 1
    # 2^bits scale = x^power e^(x - offset + log_weight)/sqrt(2 pi x), log summed exactly
    parts = [x, -offset, log_weight, power * lx, -0.5 * math.log(2.0 * math.pi * x)]
    bits = round(sum(parts) / _LN2)
    scale = math.exp(math.fsum(parts + [-bits * _LN2_HI, -bits * _LN2_LO]))
    total, trunc, mabs = scale * hsum, 2.0 * scale * abs(h), 0.0
    if mu != -0.5:  # else 1/Gamma(mu+1/2) = 0: M_mu is exponentially small
        # m_0 / (2^bits scale) = -(x/2)^(mu-1) sqrt(2x) e^-x / Gamma(mu+1/2)
        m = math.copysign(scale * math.exp((mu - 0.5) * lx - (mu - 1.5) * _LN2 - x
                                           - math.lgamma(mu + 0.5)), -0.5 - mu)
        for k in range(40):
            q = (k + 0.5) * (k + 0.5 - mu) * 4.0 / (x * x)
            total += m
            mabs += abs(m)
            m *= q
            if abs(q) < 1.0 and abs(m) <= 1e-17 * abs(total):
                break
        else:
            return None
        terms += k + 1
        trunc += (1.0 if k + 1 <= mu - 0.5 else 2.0) * abs(m)
    # one rounding per term summed, and those of the logarithms in scale
    err = trunc + _EPS * ((terms + 1) * (scale * habs + mabs)
                          + (abs(power * lx) + lx) * abs(total))
    return SeriesEval(_ldexp(total, bits, name), math.ldexp(err, bits), terms)


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


def log_lower_incomplete_gamma(s: float, z: float) -> float:
    """log of the lower incomplete gamma, the integral of t^(s-1) exp(-t)
    over (0, z); finite for s far beyond the point where gamma_fn
    overflows.  Requires z > 0.

    Series expansion for z < s+1, Lentz continued fraction for the
    complement otherwise (the classic split).  Raises ConvergenceError
    when either runs out of its 10,000 terms.
    """
    if not 0.0 < z < math.inf:
        raise DomainError(f"log_lower_incomplete_gamma needs finite z > 0, got z={z}")
    if not 0.0 < s < math.inf:
        raise DomainError(f"log_lower_incomplete_gamma needs finite s > 0, got s={s}")
    if z < s + 1.0:  # z^s e^-z sum z^k / (s (s+1) ... (s+k))
        out, = _series(lambda k: s + k + 1.0, [z], [-math.log(s)], [0.0], _INCGAMMA_CAP,
                       "incomplete gamma series")
        return s * math.log(z) - z + math.log(out)
    return math.log1p(-_gcf_q(s, z)) + log_gamma(s)
