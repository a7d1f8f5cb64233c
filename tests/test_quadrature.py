"""Tests for the adaptive Gauss-Kronrod engine against analytic integrals."""

import math
from functools import partial

import pytest

import struveint.quadrature as quadrature_mod
from conftest import per_node, rel_err
from struveint.exceptions import ToleranceNotMetError
from struveint.quadrature import _gk15, adaptive_quadrature


@pytest.mark.parametrize("k", range(0, 11))
def test_single_panel_polynomial_exactness(k):
    # the 15-point Kronrod rule integrates polynomials up to degree 22
    got, _ = _gk15(per_node(lambda t: t**k), 0.0, 1.0)
    assert rel_err(got, 1.0 / (k + 1)) < 5e-15


def test_exponential_unit_interval():
    value, err, _ = adaptive_quadrature(partial(_gk15, per_node(math.exp)), 0.0, 1.0)
    assert rel_err(value, math.e - 1.0) < 1e-13
    assert err <= 1e-12 * abs(value)


def test_steep_exponential_long_interval():
    value, err, subdivisions = adaptive_quadrature(partial(_gk15, per_node(math.exp)),
                                                   0.0, 300.0)
    want = math.exp(300.0)  # minus 1, invisible at this magnitude
    assert rel_err(value, want) < 1e-12
    assert subdivisions < 2000


def test_oscillatory():
    value, _, _ = adaptive_quadrature(partial(_gk15, per_node(math.sin)), 0.0, 20.0)
    assert abs(value - (1.0 - math.cos(20.0))) < 1e-12


@pytest.mark.parametrize(
    "alpha,want", [(0.5, 2.0 / 3.0), (0.1, 1.0 / 1.1), (1.5, 1.0 / 2.5)]
)
def test_algebraic_endpoint_behaviour(alpha, want):
    value, err, _ = adaptive_quadrature(partial(_gk15, per_node(lambda t: t**alpha)), 0.0, 1.0)
    assert rel_err(value, want) < 1e-12
    assert err <= max(0.0, 1e-12 * abs(value)) + 1e-15


def test_error_estimate_contract():
    value, err, _ = adaptive_quadrature(
        partial(_gk15, per_node(lambda t: math.cos(3.0 * t) * math.exp(-t))), 0.0, 10.0,
        rel_tol=1e-10,
    )
    assert err <= 1e-10 * abs(value)


def test_budget_exhaustion_carries_best_estimate():
    with pytest.raises(ToleranceNotMetError) as info:
        adaptive_quadrature(
            partial(_gk15, per_node(lambda t: t**0.05)), 0.0, 1.0, rel_tol=1e-15,
            max_subdivisions=3,
        )
    exc = info.value
    assert exc.subdivisions == 3
    assert rel_err(exc.value, 1.0 / 1.05) < 1e-3
    assert exc.abs_error_estimate > 0.0
    # an interval one double wide cannot be bisected; all its nodes round
    # to one point, so only a tolerance below the panel's rounding floor
    # (50 eps of its absolute integral) asks for a split
    with pytest.raises(ToleranceNotMetError, match="too narrow") as info:
        adaptive_quadrature(
            partial(_gk15, per_node(lambda t: 1.0)), 1.0, math.nextafter(1.0, 2.0),
            rel_tol=1e-15,
        )
    assert info.value.subdivisions == 0
    assert info.value.abs_error_estimate > 1e-15 * abs(info.value.value)


def test_panel_nodes_stay_inside_the_interval():
    # center - half*x_k rounds to the double below 1 on this interval
    a, b = 1.0, math.nextafter(1.0, 2.0)
    nodes = []
    _gk15(per_node(lambda t: nodes.append(t) or 1.0), a, b)
    assert len(nodes) == 15
    assert all(a <= t <= b for t in nodes)
    # on a wider panel the nodes are the unclamped center -/+ half*x_k
    nodes.clear()
    a, b = 0.3, 2.7
    _gk15(per_node(lambda t: nodes.append(t) or 1.0), a, b)
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    raw = [center + s * (half * x) for x in quadrature_mod._XGK for s in (-1, 1)]
    assert nodes == [center, *raw]


@pytest.mark.parametrize(
    "lo,hi,want",
    [(0.0, 20.0, 16.0), (16.0, 20.0, 18.0), (0.0, 16.0, 8.0), (0.0, 0.5, 0.25),
     (3.0, 3.5, 3.25), (16.0, 32.0, 24.0), (-3.0, -1.0, -2.0)],
)
def test_split_at_the_largest_power_of_two_inside(lo, hi, want):
    # a power of two strictly inside the interval, else the midpoint
    assert quadrature_mod._split(lo, hi) == want


def test_panels_near_zero_do_not_depend_on_the_upper_limit():
    # [0, x] splits at the largest power of two below x, so the panels
    # [0, 2^j] and [2^j, 2^(j+1)] are the same for every x past 2^(j+1)
    def panels_of(b):
        seen = []

        def panel(lo, hi):
            seen.append((lo, hi))
            return _gk15(per_node(math.sqrt), lo, hi)

        adaptive_quadrature(panel, 0.0, b)
        return set(seen)

    near_20, near_17 = panels_of(20.0), panels_of(17.0)
    assert {(0.0, 16.0), (16.0, 20.0), (0.0, 8.0), (8.0, 16.0)} <= near_20
    # sqrt needs no split right of 16: only the panels ending at x differ
    assert near_20 - {(0.0, 20.0), (16.0, 20.0)} == near_17 - {(0.0, 17.0), (16.0, 17.0)}
