"""Tests for the scalar special functions.

Expected values come from independent oracles: the stdlib math module,
brute-force partial summation written out here, closed forms, and
mpmath/scipy where available.
"""

import math

import mpmath
import pytest
from scipy.special import modstruve

from conftest import log_grid, rel_err
from struveint.exceptions import ConvergenceError, DomainError
from struveint.integrals import IntegralSpec
from struveint.specfun import (
    DEFAULT_MAX_TERMS,
    SQRT_PI,
    gamma_fn,
    log_gamma,
    lower_incomplete_gamma,
    pfq,
    pochhammer,
    regularized_gamma_p,
    struve_l,
    struve_l_scaled,
    term_cap,
)

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# brute-force oracles, deliberately naive and independent of the package


def struve_series_brute(nu: float, x: float, terms: int = 80) -> float:
    return sum(
        (x / 2.0) ** (nu + 2 * k + 1)
        / (math.gamma(k + 1.5) * math.gamma(k + nu + 1.5))
        for k in range(terms)
    )


def poch_brute(a: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


def pfq_brute(a, b, z, terms: int = 80) -> float:
    total = 0.0
    for k in range(terms):
        num = 1.0
        for ai in a:
            num *= poch_brute(ai, k)
        den = 1.0
        for bj in b:
            den *= poch_brute(bj, k)
        total += num / den * z**k / math.factorial(k)
    return total


# ---------------------------------------------------------------------------
# gamma


def test_gamma_half_is_sqrt_pi():
    assert rel_err(gamma_fn(0.5), SQRT_PI) < 1e-14


def test_gamma_five_is_24():
    assert rel_err(gamma_fn(5.0), 24.0) < 1e-14


def test_gamma_two_and_half():
    assert rel_err(gamma_fn(2.5), 0.75 * SQRT_PI) < 1e-14


@pytest.mark.parametrize("x", log_grid(0.5, 60.0, 40))
def test_gamma_matches_stdlib(x):
    assert rel_err(gamma_fn(x), math.gamma(x)) < 1e-13


@pytest.mark.parametrize("x", log_grid(0.5, 50.0, 30))
def test_gamma_recurrence(x):
    assert abs(gamma_fn(x + 1.0) - x * gamma_fn(x)) <= 1e-13 * gamma_fn(x + 1.0)


def test_gamma_small_argument_recurrence_branch():
    for x in (0.05, 0.1, 0.3, 0.49):
        assert rel_err(gamma_fn(x), math.gamma(x)) < 1e-13


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma_fn(0.0)
    with pytest.raises(DomainError):
        gamma_fn(-1.0)


@pytest.mark.parametrize("x", [0.5, 1.0, 7.3, 60.0, 171.0, 5000.0])
def test_log_gamma_matches_stdlib(x):
    assert abs(log_gamma(x) - math.lgamma(x)) <= 1e-12 * max(1.0, abs(math.lgamma(x)))


# ---------------------------------------------------------------------------
# lower incomplete gamma


@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 3.0, 10.0])
def test_incgamma_s1_closed_form(z):
    assert rel_err(lower_incomplete_gamma(1.0, z), -math.expm1(-z)) < 1e-13


def test_incgamma_zero_limit():
    assert lower_incomplete_gamma(3.7, 0.0) == 0.0


def test_incgamma_2_1_by_parts():
    # integral of t e^-t over (0, 1) = 1 - 2/e by parts
    assert rel_err(lower_incomplete_gamma(2.0, 1.0), 1.0 - 2.0 / math.e) < 1e-13


@pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 7.0, 20.0, 80.0])
@pytest.mark.parametrize("z", [0.05, 1.0, 4.0, 18.0, 60.0])
def test_incgamma_matches_mpmath(s, z):
    want = float(mpmath.gammainc(s, 0, z))
    assert rel_err(lower_incomplete_gamma(s, z), want) < 1e-12


def test_incgamma_regularized_in_unit_interval():
    for s, z in [(2.0, 0.5), (5.0, 5.0), (0.7, 9.0)]:
        p = regularized_gamma_p(s, z)
        assert 0.0 <= p <= 1.0


def test_incgamma_series_non_convergence_raises():
    # P(1e9, 1e9 - 1) is about 0.5, but its series needs ~3e5 terms
    with pytest.raises(ConvergenceError):
        regularized_gamma_p(1e9, 1e9 - 1.0)


def test_incgamma_domain():
    with pytest.raises(DomainError):
        lower_incomplete_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(1.0, -0.1)


# ---------------------------------------------------------------------------
# pochhammer and pFq


def test_pochhammer_zero_is_one():
    assert pochhammer(-3.2, 0) == 1.0


def test_pochhammer_factorial():
    assert pochhammer(1.0, 4) == 24.0


def test_pochhammer_half_integers():
    assert pochhammer(1.5, 2) == 3.75


@pytest.mark.parametrize("a,k", [(0.7, 3), (2.0, 6), (5.5, 4)])
def test_pochhammer_gamma_identity(a, k):
    assert rel_err(pochhammer(a, k), math.gamma(a + k) / math.gamma(a)) < 1e-13


def test_pochhammer_domain():
    with pytest.raises(DomainError):
        pochhammer(1.0, -1)


def test_pfq_at_zero_is_one():
    out = pfq([1.0, 2.0], [3.0, 4.0, 5.0], 0.0)
    assert out.value == 1.0 and out.converged


def test_pfq_0f0_is_exp():
    assert rel_err(pfq([], [], 1.0).value, math.e) < 1e-14


def test_pfq_2f3_matches_brute_force():
    want = pfq_brute([1.0, 1.0], [1.5, 2.0, 1.5], 0.25)
    got = pfq([1.0, 1.0], [1.5, 2.0, 1.5], 0.25)
    assert rel_err(got.value, want) < 1e-14
    assert got.converged
    # independently pinned: direct partial summation gives 1.0570599382...
    assert rel_err(got.value, 1.0570599382821575) < 1e-13


def test_pfq_denominator_validation():
    with pytest.raises(DomainError):
        pfq([1.0], [0.0, 2.0], 0.5)
    with pytest.raises(DomainError):
        pfq([1.0], [-3.0, 2.0], 0.5)
    # negative non-integer denominators are fine
    assert pfq([1.0], [-0.5], 0.1).converged


def test_pfq_p_eq_q_plus_one_radius():
    with pytest.raises(DomainError):
        pfq([1.0, 2.0], [3.0], 1.0)
    assert pfq([1.0, 2.0], [3.0], 0.5).converged


def test_pfq_non_convergence_error():
    with pytest.raises(ConvergenceError):
        pfq([1.0, 1.0], [1.5, 2.0, 1.5], 100.0, max_terms=5)


def test_pfq_series_eval_invariants():
    out = pfq([1.0, 1.0], [1.5, 2.0, 1.5], 4.0)
    assert out.terms_used <= DEFAULT_MAX_TERMS
    assert out.abs_error_estimate <= 1e-12 * abs(out.value)


# ---------------------------------------------------------------------------
# modified Struve function


def test_struve_at_zero():
    out = struve_l(0.7, 0.0)
    assert out.value == 0.0 and out.converged


def test_struve_l0_matches_brute_series():
    want = struve_series_brute(0.0, 1.0)
    assert rel_err(struve_l(0.0, 1.0).value, want) < 1e-14
    assert rel_err(struve_l(0.0, 1.0).value, 0.7102431859378909) < 1e-13


@pytest.mark.parametrize("x", [0.25, 1.0, 3.0, 10.0, 25.0])
def test_struve_half_order_closed_form(x):
    # L_{1/2}(x) = sqrt(2/(pi x)) (cosh x - 1), used only as an oracle
    want = math.sqrt(2.0 / (math.pi * x)) * (math.cosh(x) - 1.0)
    assert rel_err(struve_l(0.5, x).value, want) < 1e-13


@pytest.mark.parametrize("nu", [-1.0, -0.4, 0.0, 0.5, 1.0, 2.5, 5.0, 10.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 50.0])
def test_struve_matches_scipy(nu, x):
    assert rel_err(struve_l(nu, x).value, float(modstruve(nu, x))) < 1e-10


@pytest.mark.parametrize("nu", [-1.49, -1.0, 0.0, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("x", [1e-3, 0.1, 1.0, 30.0, 100.0, 500.0])
def test_struve_positivity(nu, x):
    if x > 30.0:
        assert struve_l_scaled(nu, x).value > 0.0
    else:
        assert struve_l(nu, x).value > 0.0


@pytest.mark.parametrize("nu", [-1.0, 0.0, 1.0, 5.0])
def test_struve_small_x_leading_order(nu):
    x = 1e-3
    lead = 2.0 / (SQRT_PI * math.gamma(nu + 1.5)) * (x / 2.0) ** (nu + 1.0)
    ratio = struve_l(nu, x).value / lead
    assert 1.0 <= ratio <= 1.0 + 1e-3


def test_struve_domain_and_overflow():
    with pytest.raises(DomainError):
        struve_l(-1.5, 1.0)
    with pytest.raises(DomainError):
        struve_l(0.0, -1.0)
    with pytest.raises(OverflowError):
        struve_l(0.0, 701.0)


def test_struve_series_metadata():
    out = struve_l(0.0, 1.0)
    assert out.converged and out.terms_used <= DEFAULT_MAX_TERMS
    assert out.abs_error_estimate <= 1e-12 * out.value


# ---------------------------------------------------------------------------
# scaled evaluation


def test_scaled_at_zero():
    assert struve_l_scaled(0.3, 0.0).value == 0.0


def test_scaled_small_x_value():
    want = math.exp(-1.0) * 0.7102431859378909
    assert rel_err(struve_l_scaled(0.0, 1.0).value, want) < 1e-13


@pytest.mark.parametrize("nu", [-1.2, 0.0, 1.0, 4.5])
@pytest.mark.parametrize("x", [0.5, 5.0, 15.0, 30.0])
def test_scaled_consistency_below_switch(nu, x):
    want = math.exp(-x) * struve_l(nu, x).value
    assert rel_err(struve_l_scaled(nu, x).value, want) < 1e-13


@pytest.mark.parametrize("nu", [-1.2, 0.0, 1.0, 4.5])
@pytest.mark.parametrize("x", [31.0, 60.0, 150.0, 300.0])
def test_scaled_consistency_above_switch(nu, x):
    # log-space path against the plain series, both well within range
    want = math.exp(-x) * struve_l(nu, x).value
    assert rel_err(struve_l_scaled(nu, x).value, want) < 1e-11


def test_scaled_matches_scipy_at_400():
    want = float(modstruve(0, 400.0)) * math.exp(-400.0)
    assert rel_err(struve_l_scaled(0.0, 400.0).value, want) < 1e-9


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0])
def test_scaled_large_x_asymptote(nu):
    x = 400.0
    assert abs(struve_l_scaled(nu, x).value * math.sqrt(2.0 * math.pi * x) - 1.0) <= 0.02


@pytest.mark.parametrize("x", [2000.0, 10000.0])
def test_scaled_no_overflow_far_out(x):
    got = struve_l_scaled(1.0, x).value
    assert math.isfinite(got)
    assert abs(got * math.sqrt(2.0 * math.pi * x) - 1.0) <= 1e-3


@pytest.mark.parametrize("nu,x", [(5.0, 7500.0), (-1.2, 1e4), (10.0, 5000.0)])
def test_scaled_matches_mpmath_far_out(nu, x):
    want = mpmath.struvel(nu, x) * mpmath.exp(-x)
    assert float(abs((struve_l_scaled(nu, x).value - want) / want)) <= 2e-12


# ---------------------------------------------------------------------------
# non-finite arguments


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma_fn(math.nan),
        lambda: log_gamma(math.nan),
        lambda: struve_l(math.nan, 1.0),
        lambda: struve_l(0.0, math.nan),
        lambda: struve_l_scaled(0.0, math.inf),
        lambda: struve_l_scaled(0.0, math.nan),
        lambda: IntegralSpec(0.5, 0.0, 0.0, math.inf),
        lambda: regularized_gamma_p(math.nan, 1.0),
        lambda: regularized_gamma_p(1.0, math.inf),
        lambda: pfq([1.0], [2.0], math.nan),
        lambda: pfq([math.nan], [2.0], 1.0),
    ],
    ids=[
        "gamma_fn-nan",
        "log_gamma-nan",
        "struve_l-nan-order",
        "struve_l-nan-x",
        "struve_l_scaled-inf-x",
        "struve_l_scaled-nan-x",
        "IntegralSpec-inf-x",
        "regularized_gamma_p-nan-s",
        "regularized_gamma_p-inf-z",
        "pfq-nan-z",
        "pfq-nan-parameter",
    ],
)
def test_non_finite_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


# ---------------------------------------------------------------------------
# recurrence and derivative identities (spot checks; the full stated
# grids run in the acceptance suite)


def residual_recurrence(nu: float, x: float) -> float:
    if x > 30.0:
        lm = struve_l_scaled(nu - 1.0, x).value
        lp = struve_l_scaled(nu + 1.0, x).value
        lc = struve_l_scaled(nu, x).value
        power = math.exp((nu * math.log(x / 2.0)) - x) / (SQRT_PI * math.gamma(nu + 1.5))
    else:
        lm = struve_l(nu - 1.0, x).value
        lp = struve_l(nu + 1.0, x).value
        lc = struve_l(nu, x).value
        power = (x / 2.0) ** nu / (SQRT_PI * math.gamma(nu + 1.5))
    return abs(lm - lp - (2.0 * nu / x) * lc - power) / lm


@pytest.mark.parametrize("nu", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 50.0])
def test_recurrence_spot(nu, x):
    assert residual_recurrence(nu, x) <= 1e-11


def deriv_residual(nu: float, x: float) -> float:
    h = 1e-5 * max(1.0, x)
    f = lambda t: struve_l(nu, t).value / t**nu
    fd = (f(x + h) - f(x - h)) / (2.0 * h)
    want = struve_l(nu + 1.0, x).value / x**nu + 2.0**-nu / (
        SQRT_PI * math.gamma(nu + 1.5)
    )
    return abs(fd - want) / abs(want)


@pytest.mark.parametrize("nu", [-1.0, 0.0, 2.5, 5.0])
@pytest.mark.parametrize("x", [0.5, 2.0, 20.0])
def test_derivative_formula_spot(nu, x):
    assert deriv_residual(nu, x) <= 1e-5


# ---------------------------------------------------------------------------
# term cap configuration


def test_term_cap_environment_override(monkeypatch):
    monkeypatch.delenv("STRUVE_MAX_TERMS", raising=False)
    assert term_cap() == DEFAULT_MAX_TERMS
    monkeypatch.setenv("STRUVE_MAX_TERMS", "37")
    assert term_cap() == 37
    with pytest.raises(ConvergenceError):
        struve_l(0.0, 25.0)  # 37 terms are not enough at x = 25
    monkeypatch.setenv("STRUVE_MAX_TERMS", "0")
    with pytest.raises(ValueError):
        term_cap()


def test_explicit_max_terms_beats_environment(monkeypatch):
    monkeypatch.setenv("STRUVE_MAX_TERMS", "5")
    assert struve_l(0.0, 1.0, max_terms=50).converged


def test_plain_and_scaled_struve_share_the_cap_rule():
    # Past x = 30 both forms grow an explicit cap with x the same way.
    plain = struve_l(0.0, 100.0, max_terms=50)
    scaled = struve_l_scaled(0.0, 100.0, max_terms=50)
    assert rel_err(plain.value, math.exp(100.0) * scaled.value) <= 1e-14
    assert plain.terms_used == scaled.terms_used
