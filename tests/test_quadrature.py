"""Tests for the adaptive Gauss-Kronrod engine against analytic integrals."""

import math

import pytest

from conftest import rel_err
from struveint.exceptions import ToleranceNotMetError
from struveint.quadrature import _gk15, adaptive_quadrature


@pytest.mark.parametrize("k", range(0, 11))
def test_single_panel_polynomial_exactness(k):
    # the 15-point Kronrod rule integrates polynomials up to degree 22
    got, _ = _gk15(lambda t: t**k, 0.0, 1.0)
    assert rel_err(got, 1.0 / (k + 1)) < 5e-15


def test_exponential_unit_interval():
    value, err, _ = adaptive_quadrature(math.exp, 0.0, 1.0)
    assert rel_err(value, math.e - 1.0) < 1e-13
    assert err <= 1e-12 * abs(value)


def test_steep_exponential_long_interval():
    value, err, subdivisions = adaptive_quadrature(math.exp, 0.0, 300.0)
    want = math.exp(300.0)  # minus 1, invisible at this magnitude
    assert rel_err(value, want) < 1e-12
    assert subdivisions < 2000


def test_oscillatory():
    value, _, _ = adaptive_quadrature(math.sin, 0.0, 20.0)
    assert abs(value - (1.0 - math.cos(20.0))) < 1e-12


@pytest.mark.parametrize(
    "alpha,want", [(0.5, 2.0 / 3.0), (0.1, 1.0 / 1.1), (1.5, 1.0 / 2.5)]
)
def test_algebraic_endpoint_behaviour(alpha, want):
    value, err, _ = adaptive_quadrature(lambda t: t**alpha, 0.0, 1.0)
    assert rel_err(value, want) < 1e-12
    assert err <= max(0.0, 1e-12 * abs(value)) + 1e-15


def test_error_estimate_contract():
    value, err, _ = adaptive_quadrature(
        lambda t: math.cos(3.0 * t) * math.exp(-t), 0.0, 10.0, rel_tol=1e-10
    )
    assert err <= 1e-10 * abs(value)


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(ToleranceNotMetError) as info:
        adaptive_quadrature(
            lambda t: t**0.05, 0.0, 1.0, rel_tol=1e-15, max_subdivisions=3
        )
    exc = info.value
    assert exc.subdivisions == 3
    assert rel_err(exc.value, 1.0 / 1.05) < 1e-3
    assert exc.abs_error_estimate > 0.0
    # on an interval one double wide, the nodes round to 1 and to the
    # double below it, so a jump of 1e300 at 1 is never resolved and
    # the interval cannot be bisected
    with pytest.raises(ToleranceNotMetError, match="too narrow") as info:
        adaptive_quadrature(
            lambda t: 1e300 if t >= 1.0 else 0.0, 1.0, math.nextafter(1.0, 2.0)
        )
    assert info.value.subdivisions == 0
    assert info.value.abs_error_estimate > 1e-12 * abs(info.value.value)
