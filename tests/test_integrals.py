"""Tests for the damped Struve integral evaluators.

The three routes (closed form, adaptive quadrature, termwise series) are
exercised against each other and against values frozen from independent
high-precision computation.
"""

import math

import pytest

from conftest import rel_err
from struveint.exceptions import ConvergenceError, DomainError, ToleranceNotMetError
from struveint.integrals import (
    IntegralSpec,
    asymptotic_integral,
    integral_closed_form,
    integral_power_series,
    integral_power_series_scaled,
    integral_quadrature,
    integral_series_oracle,
    integrand,
    log_asymptotic_integral,
    log_integral_quadrature,
)
from struveint.specfun import SQRT_PI, lower_incomplete_gamma, struve_l, struve_l_scaled


def closed_form_brute(nu: float, x: float, terms: int = 60) -> float:
    # termwise integration of the defining series, naive form
    return sum(
        (0.5) ** (nu + 2 * k + 1)
        * x ** (2 * k + 2)
        / ((2 * k + 2) * math.gamma(k + 1.5) * math.gamma(k + nu + 1.5))
        for k in range(terms)
    )


# ---------------------------------------------------------------------------
# IntegralSpec validation


def test_spec_rejects_bad_gamma():
    with pytest.raises(DomainError):
        IntegralSpec(-0.1, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        IntegralSpec(1.0, 0.0, 0.0, 1.0)


def test_spec_rejects_bad_n():
    with pytest.raises(DomainError):
        IntegralSpec(0.0, 0.0, -1.0, 1.0)


def test_spec_rejects_order_sum():
    with pytest.raises(DomainError):
        IntegralSpec(0.0, -2.0, 0.2, 1.0)


def test_spec_rejects_bad_x():
    with pytest.raises(DomainError):
        IntegralSpec(0.0, 0.0, 0.0, 0.0)


def test_spec_gamma_zero_permitted():
    assert IntegralSpec(0.0, 0.0, 0.0, 1.0).gamma == 0.0


# ---------------------------------------------------------------------------
# integrand


def test_integrand_undamped_point():
    spec = IntegralSpec(0.0, 0.0, 0.0, 2.0)
    assert rel_err(integrand(spec, 1.0), struve_l(0.0, 1.0).value) < 1e-14


def test_integrand_zero_limit():
    assert integrand(IntegralSpec(0.5, 0.3, 0.7, 1.0), 0.0) == 0.0


def test_integrand_damped_point():
    spec = IntegralSpec(0.5, 0.0, 0.0, 2.0)
    want = math.exp(-0.5) * 0.7102431859378909
    assert rel_err(integrand(spec, 1.0), want) < 1e-13


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("nu,n", [(0.0, 0.0), (1.0, 0.5), (-0.4, 2.0)])
def test_integrand_endpoint_regularity(gamma, nu, n):
    # leading order C t^(n+1) with C = 2^-(nu+n) / (sqrt(pi) Gamma(nu+n+3/2))
    spec = IntegralSpec(gamma, nu, n, 1.0)
    t = 1e-6
    lead = 0.5 ** (nu + n) / (SQRT_PI * math.gamma(nu + n + 1.5)) * t ** (n + 1.0)
    ratio = integrand(spec, t) / lead
    assert 1.0 - gamma * t - 1e-9 <= ratio <= 1.0 + 1e-9


def test_integrand_rejects_negative_t():
    with pytest.raises(DomainError):
        integrand(IntegralSpec(0.0, 0.0, 0.0, 1.0), -0.5)


# ---------------------------------------------------------------------------
# closed form (gamma = 0, n = 0)


def test_closed_form_matches_brute_series():
    want = closed_form_brute(0.0, 1.0)
    assert rel_err(integral_closed_form(0.0, 1.0), want) < 1e-14
    assert rel_err(integral_closed_form(0.0, 1.0), 0.3364726286440384) < 1e-13


def test_closed_form_small_x_normalization():
    nu, x = 1.5, 1e-4
    lead = x * x / (SQRT_PI * 2.0 ** (nu + 1.0) * math.gamma(nu + 1.5))
    assert rel_err(integral_closed_form(nu, x) / lead, 1.0) < 1e-8


def test_closed_form_zero():
    assert integral_closed_form(2.0, 0.0) == 0.0


def test_closed_form_domain():
    with pytest.raises(DomainError):
        integral_closed_form(-1.5, 1.0)


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("nu", [-0.4, 0.0, 1.0, 3.0])
@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
def test_quadrature_matches_closed_form(nu, x):
    spec = IntegralSpec(0.0, nu, 0.0, x)
    got = integral_quadrature(spec)
    assert rel_err(got.value, integral_closed_form(nu, x)) < 1e-10
    assert got.abs_error_estimate <= 1e-11 * got.value


def test_quadrature_above_scaling_switch():
    spec = IntegralSpec(0.0, 0.0, 0.0, 60.0)
    got = integral_quadrature(spec).value
    assert rel_err(got, integral_closed_form(0.0, 60.0)) < 1e-10


def test_quadrature_budget_error_carries_estimate():
    spec = IntegralSpec(0.0, 0.0, 0.0, 20.0)
    with pytest.raises(ToleranceNotMetError) as info:
        integral_quadrature(spec, rel_tol=1e-15, max_subdivisions=1)
    assert info.value.value > 0.0


def test_log_quadrature_consistency():
    spec = IntegralSpec(0.25, 1.0, 0.0, 300.0)
    log_value = log_integral_quadrature(spec)
    # same integral from the linear route
    linear = integral_quadrature(spec).value
    assert abs(log_value - math.log(linear)) < 1e-11


def test_quadrature_overflow_routes_to_log_form():
    spec = IntegralSpec(0.0, 0.0, 0.0, 800.0)
    with pytest.raises(OverflowError):
        integral_quadrature(spec)
    log_value = log_integral_quadrature(spec)
    # leading asymptote log: (1-gamma)x - (nu+1/2) log x - log sqrt(2 pi)
    want = 800.0 - 0.5 * math.log(800.0) - 0.5 * math.log(2.0 * math.pi)
    assert abs(log_value - want) < 1e-2


# ---------------------------------------------------------------------------
# termwise power series (gamma = 0, any n)


def test_power_series_reduces_to_closed_form():
    for nu, x in [(0.0, 1.0), (2.0, 7.0), (-0.4, 0.5)]:
        assert (
            rel_err(integral_power_series(nu, 0.0, x).value, integral_closed_form(nu, x))
            < 1e-13
        )


def test_power_series_zero():
    assert integral_power_series(0.0, 0.5, 0.0).value == 0.0


@pytest.mark.parametrize("nu,n", [(0.0, 0.5), (1.0, 2.0), (-0.4, 2.0)])
@pytest.mark.parametrize("x", [0.5, 5.0, 20.0])
def test_power_series_vs_quadrature(nu, n, x):
    spec = IntegralSpec(0.0, nu, n, x)
    got = integral_power_series(nu, n, x).value
    assert rel_err(got, integral_quadrature(spec).value) < 1e-10


def test_power_series_scaled_consistency():
    for x in (10.0, 40.0, 120.0):
        scaled = integral_power_series_scaled(0.5, 1.0, x).value
        plain = integral_power_series(0.5, 1.0, x).value
        assert rel_err(scaled, math.exp(-x) * plain) < 1e-11


# ---------------------------------------------------------------------------
# termwise incomplete-gamma oracle (gamma > 0)


def test_oracle_frozen_value():
    spec = IntegralSpec(0.5, 0.0, 0.0, 1.0)
    assert rel_err(integral_series_oracle(spec).value, 0.2419096964687127) < 1e-12


def test_oracle_leading_term():
    # k = 0 term: (2/pi) gamma^-2 gamma_low(2, gamma x)
    gamma, x = 0.5, 1.0
    want = 2.0 / math.pi * gamma**-2.0 * lower_incomplete_gamma(2.0, gamma * x)
    assert rel_err(want, 0.2297026263490316) < 1e-13


def test_oracle_vanishes_with_x():
    spec = IntegralSpec(0.5, 0.0, 0.0, 1e-8)
    assert integral_series_oracle(spec).value < 1e-14


def test_oracle_requires_damping():
    with pytest.raises(DomainError):
        integral_series_oracle(IntegralSpec(0.0, 0.0, 0.0, 1.0))


def test_oracle_non_convergence():
    spec = IntegralSpec(0.5, 0.0, 0.0, 20.0)
    with pytest.raises(ConvergenceError):
        integral_series_oracle(spec, max_terms=4)


@pytest.mark.parametrize("fn", [integral_power_series, integral_power_series_scaled])
def test_power_series_non_convergence(fn):
    with pytest.raises(ConvergenceError):
        fn(0.0, 0.5, 20.0, max_terms=4)


def test_power_series_overflow_guard():
    with pytest.raises(OverflowError):
        integral_power_series(0.0, 0.5, 701.0)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("nu,n", [(0.0, 0.0), (1.0, 0.5), (-0.4, 2.0), (3.0, 0.0)])
@pytest.mark.parametrize("x", [0.5, 5.0, 20.0])
def test_oracle_vs_quadrature(gamma, nu, n, x):
    spec = IntegralSpec(gamma, nu, n, x)
    oracle = integral_series_oracle(spec).value
    quad = integral_quadrature(spec).value
    assert rel_err(quad, oracle) < 1e-9


# ---------------------------------------------------------------------------
# asymptote


def test_asymptote_direct_formula():
    spec = IntegralSpec(0.0, 0.0, 0.0, 100.0)
    want = math.exp(100.0) / (math.sqrt(2.0 * math.pi) * 10.0)
    assert rel_err(asymptotic_integral(spec), want) < 1e-13


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_asymptote_tightness_at_300(gamma, nu):
    spec = IntegralSpec(gamma, nu, 0.0, 300.0)
    dev = math.exp(log_integral_quadrature(spec) - log_asymptotic_integral(spec)) - 1.0
    assert abs(dev) <= 0.05


@pytest.mark.parametrize("gamma", [0.0, 0.5])
@pytest.mark.parametrize("nu,n", [(0.0, 0.0), (1.0, 1.0)])
def test_companion_asymptote_at_300(gamma, nu, n):
    # e^(-gamma x) L_{nu+n}(x) / x^nu against x^(-nu-1/2) e^((1-gamma)x) / sqrt(2 pi)
    x = 300.0
    lhs = struve_l_scaled(nu + n, x).value * math.exp((1.0 - gamma) * x) / x**nu
    rhs = x ** (-nu - 0.5) * math.exp((1.0 - gamma) * x) / math.sqrt(2.0 * math.pi)
    assert abs(lhs / rhs - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# monotonicity in the upper limit


@pytest.mark.parametrize("gamma,nu,n", [(0.0, 0.0, 0.0), (0.5, 1.0, 0.5), (0.9, -0.4, 2.0)])
def test_integral_increases_in_x(gamma, nu, n):
    xs = [0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    values = [integral_quadrature(IntegralSpec(gamma, nu, n, x)).value for x in xs]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
