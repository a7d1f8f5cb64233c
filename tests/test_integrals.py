"""Tests for the damped Struve integral evaluators.

The three routes (closed form, adaptive quadrature, termwise series) are
exercised against each other and against values frozen from independent
high-precision computation.
"""

import copy
import math
import pickle
import random
import sys
from functools import partial
from pathlib import Path

import mpmath
import pytest

import struveint.integrals as integrals_mod
import struveint.specfun as specfun_mod
from conftest import count_calls, per_node, rel_err
from struveint.exceptions import ConvergenceError, DomainError, ToleranceNotMetError
from struveint.integrals import (
    IntegralSpec,
    integral_closed_form,
    integral_power_series,
    integral_quadrature,
    integral_series_oracle,
    log_asymptotic_integral,
    log_integral_quadrature,
    quadrature_memo,
)
from struveint.quadrature import _gk15, adaptive_quadrature
from struveint.specfun import SQRT_PI, struve_l, struve_l_scaled, struve_l_weighted

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.reference import integral as reference_integral  # noqa: E402


def closed_form_brute(nu: float, x: float, terms: int = 60) -> float:
    # termwise integration of the defining series, naive form
    return sum(
        (0.5) ** (nu + 2 * k + 1)
        * x ** (2 * k + 2)
        / ((2 * k + 2) * math.gamma(k + 1.5) * math.gamma(k + nu + 1.5))
        for k in range(terms)
    )


# ---------------------------------------------------------------------------
# argument validation: IntegralSpec and the undamped series' own checks


def test_spec_rejects_bad_gamma():
    with pytest.raises(DomainError):
        IntegralSpec(-0.1, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        IntegralSpec(1.0, 0.0, 0.0, 1.0)


def test_spec_rejects_bad_n():
    with pytest.raises(DomainError):
        IntegralSpec(0.0, 0.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        integral_power_series(0.0, -1.0, 1.0)


def test_spec_rejects_order_sum():
    with pytest.raises(DomainError):
        IntegralSpec(0.0, -2.0, 0.2, 1.0)
    with pytest.raises(DomainError):
        integral_power_series(-2.0, 0.2, 1.0)


def test_spec_rejects_bad_x():
    with pytest.raises(DomainError):
        IntegralSpec(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        integral_power_series(0.0, 0.0, -1.0)


def test_spec_gamma_zero_permitted():
    assert IntegralSpec(0.0, 0.0, 0.0, 1.0).gamma == 0.0


def test_spec_validates_on_every_construction_path():
    spec = IntegralSpec(0.5, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError, match="damping"):
        spec._replace(gamma=1.5)
    with pytest.raises(DomainError, match="order shift"):
        IntegralSpec._make((0.5, 0.0, -2.0, 1.0))
    assert spec._replace(x=2.0) == IntegralSpec(0.5, 0.0, 0.0, 2.0)
    assert IntegralSpec._make(spec) == spec
    for other in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert other == spec and type(other) is IntegralSpec


def test_spec_is_a_named_tuple_of_its_values():
    # equal and hashing equal to the plain tuple, as sets of specs rely on
    spec = IntegralSpec(gamma=0.5, nu=1.0, n=0.0, x=2.0)
    assert spec == (0.5, 1.0, 0.0, 2.0)
    assert hash(spec) == hash((0.5, 1.0, 0.0, 2.0))
    assert repr(spec) == "IntegralSpec(gamma=0.5, nu=1.0, n=0.0, x=2.0)"
    with pytest.raises(AttributeError):
        spec.x = 3.0


# ---------------------------------------------------------------------------
# integrand: exp(-gamma t) t^(-nu) L_{nu+n}(t) at a GK15 node, 0 at t = 0


def integrand(spec: IntegralSpec, t: float) -> float:
    return integrals_mod._panel_values(spec, 0.0, [t])[0]


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


def test_integrand_past_plain_overflow_limit():
    # L_0(800) alone overflows binary64; the damped integrand does not
    got = integrand(IntegralSpec(0.5, 0.0, 0.0, 1000.0), 800.0)
    with mpmath.workdps(30):
        want = mpmath.exp(-400) * mpmath.struvel(0, 800)
        assert float(abs((got - want) / want)) < 1e-13


def test_integrand_beyond_binary64_overflows():
    # t^300 L_1(t) is about 1e310 at t = 10.5
    with pytest.raises(OverflowError):
        integrand(IntegralSpec(0.0, -300.0, 301.0, 11.0), 10.5)


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
    with pytest.raises(DomainError):
        integral_closed_form(0.0, -1.0)


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("nu", [-0.4, 0.0, 1.0, 3.0])
@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
def test_quadrature_matches_closed_form(nu, x):
    spec = IntegralSpec(0.0, nu, 0.0, x)
    got = integral_quadrature(spec)
    assert rel_err(got.value, integral_closed_form(nu, x)) < 1e-10
    assert got.abs_error_estimate <= 1e-11 * got.value


@pytest.mark.parametrize("x", [1e-323, 2e-323, 1e-322])
def test_quadrature_at_subnormal_x(x):
    # GK15 nodes at 5e-324 took log(0.5 * 5e-324) = log(0), a raw
    # ValueError; the integral, about x^2/pi, is 0 in binary64
    got = integral_quadrature(IntegralSpec(0.0, 0.0, 0.0, x))
    assert (got.value, got.abs_error_estimate) == (0.0, 0.0)


@pytest.mark.parametrize("x", [1e-90, 1e-110])
def test_quadrature_at_tiny_x_matches_power_series(x):
    # t^(-3) and L_3(t) leave binary64 in opposite directions at these t
    got = integral_quadrature(IntegralSpec(0.0, 3.0, 0.0, x))
    assert rel_err(got.value, integral_power_series(3.0, 0.0, x).value) < 1e-12
    assert got.abs_error_estimate > 0.0


def test_quadrature_above_scaling_switch():
    spec = IntegralSpec(0.0, 0.0, 0.0, 60.0)
    got = integral_quadrature(spec).value
    assert rel_err(got, integral_closed_form(0.0, 60.0)) < 1e-10


def test_quadrature_budget_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(integrals_mod, "QUAD_REL_TOL", 1e-15)
    monkeypatch.setattr(integrals_mod, "QUAD_MAX_SUBDIVISIONS", 1)
    spec = IntegralSpec(0.0, 0.0, 0.0, 20.0)
    with pytest.raises(ToleranceNotMetError) as info:
        integral_quadrature(spec)
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


def power_series_at_offset_x(nu: float, n: float, x: float):
    # exp(-x) times the undamped integral: the offset x in the first term
    return integrals_mod._power_series(nu, n, x, x)


def test_power_series_scaled_consistency():
    for x in (10.0, 40.0, 120.0):
        scaled = power_series_at_offset_x(0.5, 1.0, x).value
        plain = integral_power_series(0.5, 1.0, x).value
        assert rel_err(scaled, math.exp(-x) * plain) < 1e-11


# ---------------------------------------------------------------------------
# termwise oracle, Kummer weights on the undamped series (gamma > 0)


def test_oracle_frozen_value():
    spec = IntegralSpec(0.5, 0.0, 0.0, 1.0)
    assert rel_err(integral_series_oracle(spec).value, 0.2419096964687127) < 1e-12


def test_oracle_leading_term():
    # k = 0 term: (2/pi) gamma^-2 gamma_low(2, z), gamma_low(2, z) = 1 - (1+z)e^-z
    gamma, x = 0.5, 1.0
    z = gamma * x
    want = 2.0 / math.pi * gamma**-2.0 * (1.0 - (1.0 + z) * math.exp(-z))
    assert rel_err(want, 0.2297026263490316) < 1e-13


def test_oracle_vanishes_with_x():
    spec = IntegralSpec(0.5, 0.0, 0.0, 1e-8)
    assert integral_series_oracle(spec).value < 1e-14


def test_oracle_estimate_counts_the_log_terms():
    # this spec was off by 5.4e-15 relative and claimed 5.0e-15 when the
    # terms were exps of per-term logs and only the first one's rounding
    # was counted; the Kummer-weight sum takes the log of its first term only
    spec = IntegralSpec(0.08142134805239039, 0.0, 2.0, 0.670407796966137)
    got = integral_series_oracle(spec)
    with mpmath.workdps(30):
        want = reference_integral(spec.gamma, spec.nu, spec.n, spec.x)
        assert abs(got.value - want) <= got.abs_error_estimate


def test_oracle_where_gamma_x_underflows():
    # gamma x rounds to 0, so every Kummer weight is 1 and the damped sum
    # is the undamped one; exp(-gamma t) differs from 1 by below 1e-324
    got = integral_series_oracle(IntegralSpec(5e-324, 0.0, 0.0, 0.1))
    assert abs(got.value - 0.0031848677217368717) <= got.abs_error_estimate


def test_oracle_overflow_names_the_oracle():
    with pytest.raises(OverflowError) as info:
        integral_series_oracle(IntegralSpec(0.5, 1.0, 0.0, 1500.0))
    assert str(info.value) == "integral_series_oracle overflows binary64"


@pytest.mark.parametrize("x", [1.0, 300.0])
def test_oracle_work_does_not_grow_with_the_terms(x, monkeypatch):
    # the Gamma factors enter the first term's log only, whatever the
    # term count: no log_gamma per term, and one series pass for the term
    # count and one for the damped sum
    lgammas = count_calls(monkeypatch, integrals_mod, "log_gamma")
    passes = count_calls(monkeypatch, integrals_mod, "_series")
    out = integral_series_oracle(IntegralSpec(0.5, 1.0, 0.5, x))
    assert out.terms_used > (100 if x > 1.0 else 0)
    assert len(lgammas) == 2
    assert len(passes) == 2


def test_oracle_requires_damping():
    with pytest.raises(DomainError):
        integral_series_oracle(IntegralSpec(0.0, 0.0, 0.0, 1.0))


def test_oracle_non_convergence(monkeypatch):
    monkeypatch.setattr(specfun_mod, "_SERIES_CAP", 4)
    spec = IntegralSpec(0.5, 0.0, 0.0, 20.0)
    with pytest.raises(ConvergenceError):
        integral_series_oracle(spec)


@pytest.mark.parametrize("fn", [integral_power_series, power_series_at_offset_x])
def test_power_series_non_convergence(fn, monkeypatch):
    monkeypatch.setattr(specfun_mod, "_SERIES_CAP", 4)
    with pytest.raises(ConvergenceError):
        fn(0.0, 0.5, 20.0)


def test_power_series_overflow_guard():
    with pytest.raises(OverflowError):
        integral_power_series(0.0, 0.5, 720.0)


@pytest.mark.parametrize("x", [701.0, 705.0])
def test_power_series_past_700_matches_mpmath(x):
    # the integral of L_{1/2} up to 701 is 4.16e302, still a double;
    # the reference is its 2F3 form at 30 digits
    with mpmath.workdps(30):
        want = (
            mpmath.mpf(x) ** 2.5 / (2.5 * mpmath.gamma(1.5) * mpmath.mpf(2) ** 1.5)
            * mpmath.hyper([1, 1.25], [1.5, 2, 2.25], mpmath.mpf(x) ** 2 / 4)
        )
        got = integral_power_series(0.0, 0.5, x).value
        assert float(abs((got - want) / want)) < 1e-13


def test_scaled_power_series_at_500_matches_mpmath():
    # the first term's exponent is reduced exactly whatever its size; it
    # was rounded once below 700, which cost 2e-14 here
    with mpmath.workdps(40):
        x = mpmath.mpf(500)
        want = (mpmath.exp(-x) * x**2 / (mpmath.sqrt(mpmath.pi) * 2 * mpmath.gamma(1.5))
                * mpmath.hyper([1, 1], [1.5, 2, 1.5], x**2 / 4))
        got = power_series_at_offset_x(0.0, 0.0, 500.0).value
        assert float(abs((got - want) / want)) < 2e-15


@pytest.mark.parametrize(
    "spec",
    [IntegralSpec(0.0, 200.0, 0.0, 2000.0), IntegralSpec(0.1, 800.0, 0.0, 8000.0)],
    ids=str,
)
def test_underflowed_scaled_integral_is_not_zero(spec):
    # the integral is 1.09e202 for the first spec and 6.8e-16 for the
    # second, but exp(-(1-gamma)x) times it is below the smallest double;
    # the offset rule's exp(k), k = floor(nu log x), lifts it back.  At
    # order 800 the integrand's own values are off by about 1e-12 (the
    # rounding of lgamma(801.5) alone is 5.3e-13), so the second spec is
    # held to its estimate only.
    got = integral_quadrature(spec)
    with mpmath.workdps(30):
        want = reference_integral(spec.gamma, spec.nu, spec.n, spec.x)
        true_err = abs(got.value - want)
        assert true_err <= got.abs_error_estimate
        log_err = abs(log_integral_quadrature(spec) - mpmath.log(want))
        assert log_err <= got.abs_error_estimate / got.value
        if spec.nu < 800.0:
            assert true_err <= 1e-12 * want


def test_integral_below_smallest_double_is_zero():
    # the integral is about 7.9e-1286; with k = x = 5 its offset form is
    # the integral itself, so a 0 is its value, not an unknown
    assert integral_quadrature(IntegralSpec(0.0, 500.0, 0.0, 5.0)).value == 0.0


@pytest.mark.parametrize(
    "spec",
    [IntegralSpec(0.0, 500.0, 0.0, 0.5), IntegralSpec(0.5, 300.0, 0.0, 1.0),
     IntegralSpec(0.0, 500.0, 0.0, 5.0), IntegralSpec(0.0, 150.0, 2.0, 1.0)],
    ids=str,
)
def test_log_of_underflowed_integral_raises(spec):
    # the offset form underflows to 0, which has no log, or (the last spec,
    # 1.5e-315) to a subnormal, whose log was off by 1.3e-9: the documented
    # ToleranceNotMetError, not math.log's bare ValueError or lost bits
    with pytest.raises(ToleranceNotMetError) as info:
        log_integral_quadrature(spec)
    assert info.value.value == 0.0
    assert info.value.abs_error_estimate == math.inf


@pytest.mark.parametrize(
    "spec",
    [IntegralSpec(0.1, 800.0, 0.0, 8000.0), IntegralSpec(0.6, 150.0, 0.3, 2500.0),
     IntegralSpec(0.9, 50.0, 2.0, 5000.0), IntegralSpec(0.0, 60.0, 0.0, 700.0),
     IntegralSpec(0.0, 300.0, 2.0, 1800.0)],
    ids=str,
)
def test_large_order_quadrature_estimate_holds(spec):
    # the terms of the node logs reach about k = floor(nu log x), and their
    # rounding (1.07e-12 relative at the first spec) passes the GK15
    # estimate (6.7e-13 there); the quadrature adds k eps of the value
    got = integral_quadrature(spec)
    assert got.subdivisions > 0
    with mpmath.workdps(30):
        want = reference_integral(spec.gamma, spec.nu, spec.n, spec.x)
        assert abs(got.value - want) <= got.abs_error_estimate


def test_power_series_cap_grows_with_x():
    # past x ~ 500 the term cap x/2 + 12 sqrt(x) + 80 exceeds 600; this
    # series needs more than 600 terms and converges only under the grown cap
    out = power_series_at_offset_x(0.5, 1.0, 1200.0)
    assert out.terms_used > 600
    want = math.exp(log_integral_quadrature(IntegralSpec(0.0, 0.5, 1.0, 1200.0)) - 1200.0)
    assert rel_err(out.value, want) < 1e-11


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
    assert rel_err(math.exp(log_asymptotic_integral(spec)), want) < 1e-13


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
# large-x expansion


def test_expansion_matches_gk15_on_the_overlap():
    used = 0
    for gamma in (0.0, 0.5, 0.9):
        for nu, n in ((0.0, 0.0), (1.0, 0.5), (-0.4, 2.0), (3.0, 0.0), (0.5, 1.0)):
            for cx in (40.0, 60.0, 80.0, 100.0, 120.0):
                spec = IntegralSpec(gamma, nu, n, cx / (1.0 - gamma))
                offset = (1.0 - gamma) * spec.x
                expansion = integrals_mod._expansion_scaled(spec, offset)
                if expansion is None:
                    continue
                used += 1
                gk15, _, _ = adaptive_quadrature(
                    partial(_gk15, partial(integrals_mod._panel_values, spec, offset)),
                    0.0, spec.x, rel_tol=integrals_mod.QUAD_REL_TOL,
                )
                assert rel_err(expansion[0], gk15) < integrals_mod.QUAD_REL_TOL
    assert used >= 15


def expansion_reference_specs() -> list[IntegralSpec]:
    # the default parameter ranges with (1 - gamma) x from 60 to 700,
    # a spec whose small-t head dominates, and (at x = 100 and 300) one
    # whose first correction cancels to 0, so that a stop at the first
    # term growth would end the sum after one term
    rng = random.Random(11)
    specs = []
    for _ in range(12):
        gamma = 0.0 if rng.random() < 0.25 else rng.uniform(0.05, 0.95)
        cx = 60.0 * (700.0 / 60.0) ** rng.random()
        specs.append(IntegralSpec(gamma, rng.uniform(-0.45, 3.5), rng.uniform(0.0, 2.5),
                                  cx / (1.0 - gamma)))
    return specs + [IntegralSpec(0.95, 50.0, 0.0, 4000.0),
                    IntegralSpec(0.5, 2.5, 1.0, 100.0),
                    IntegralSpec(0.5, 2.5, 1.0, 300.0)]


@pytest.mark.parametrize("spec", expansion_reference_specs(), ids=str)
def test_large_x_route_matches_mpmath(spec):
    value, err, subdivisions, offset = integrals_mod._quadrature_scaled(spec)
    with mpmath.workdps(30):
        want = reference_integral(spec.gamma, spec.nu, spec.n, spec.x) * mpmath.exp(-offset)
        true_err = float(abs(value - want))
        assert true_err <= 1e-12 * float(want)
    if subdivisions == 0:
        assert true_err <= err


def test_expansion_switch():
    # the small-t head (about Gamma(2) / 0.95^2 times the L_50 series'
    # first coefficient) is e^31 times the expansion's leading term
    head = IntegralSpec(0.95, 50.0, 0.0, 4000.0)
    assert integrals_mod._expansion_scaled(head, (1.0 - 0.95) * 4000.0) is None
    # the first correction cancels to 0; the sum must go on past it
    trap = IntegralSpec(0.5, 2.5, 1.0, 300.0)
    assert integrals_mod._expansion_scaled(trap, 150.0)[2] == 0
    # at nu = n = gamma = 0 the head bound reaches e^-41 of the leading
    # term between x = 95 (e^-40.9) and x = 96 (e^-41.4)
    assert integrals_mod._expansion_scaled(IntegralSpec(0.0, 0.0, 0.0, 95.0), 95.0) is None
    assert integrals_mod._expansion_scaled(IntegralSpec(0.0, 0.0, 0.0, 96.0), 96.0) is not None


# ---------------------------------------------------------------------------
# monotonicity in the upper limit


@pytest.mark.parametrize("gamma,nu,n", [(0.0, 0.0, 0.0), (0.5, 1.0, 0.5), (0.9, -0.4, 2.0)])
def test_integral_increases_in_x(gamma, nu, n):
    xs = [0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
    values = [integral_quadrature(IntegralSpec(gamma, nu, n, x)).value for x in xs]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# work per quadrature


def test_quadrature_memo_shares_entries_and_drops_them_on_exit(monkeypatch):
    panels = count_calls(monkeypatch, integrals_mod, "_gk15")
    spec = IntegralSpec(0.5, 1.0, 0.0, 20.0)
    with quadrature_memo():
        value = integral_quadrature(spec).value
        fresh = len(panels)
        log_integral_quadrature(spec)
        assert integral_quadrature(spec).value == value
        assert len(panels) == fresh
    integral_quadrature(spec)
    assert len(panels) == 2 * fresh
    with pytest.raises(KeyError):
        with quadrature_memo():
            integral_quadrature(spec)
            raise KeyError("abort")
    integral_quadrature(spec)
    assert len(panels) == 4 * fresh
    # the GK15 panels of a (gamma, nu, n) row are shared between upper
    # limits inside the block: every panel of [0, 16] is one of [0, 20]'s
    near = IntegralSpec(0.5, 1.0, 0.0, 16.0)
    with quadrature_memo():
        integral_quadrature(spec)
        fresh = len(panels)
        integral_quadrature(near)
        assert len(panels) == fresh
    integral_quadrature(near)
    assert len(panels) > fresh


def _bits(result) -> tuple:
    return result.value.hex(), result.abs_error_estimate.hex(), result.subdivisions


@pytest.mark.parametrize("row", [(0.5, 1.0, 0.5), (0.0, -0.4, 0.5), (0.9, 3.0, 2.0)], ids=str)
def test_panel_table_returns_what_each_spec_returns_alone(row):
    # a panel's value depends on (gamma, nu, n, lo, hi) alone, so the
    # table is a pure cache, whichever upper limit fills it first
    specs = [IntegralSpec(*row, x) for x in (0.5, 1.0, 5.0, 20.0, 5.7)]
    alone = [_bits(integral_quadrature(spec)) for spec in specs]
    ascending = sorted(specs, key=lambda spec: spec.x)
    for order in (ascending, ascending[::-1]):
        with quadrature_memo():
            got = {spec: _bits(integral_quadrature(spec)) for spec in order}
        assert [got[spec] for spec in specs] == alone


@pytest.mark.parametrize("nu,n", [(1.0, 0.5), (-0.4, 2.0), (3.0, 0.0)], ids=str)
def test_shared_node_sums_return_what_each_spec_returns_alone(nu, n):
    # the rows of one (nu, n) share their panels' series sums across
    # gamma, a pure cache whichever row and upper limit fill it first
    specs = [IntegralSpec(gamma, nu, n, x) for gamma in (0.0, 0.25, 0.9, 0.999)
             for x in (0.5, 5.0, 20.0, 5.7)]
    alone = [_bits(integral_quadrature(spec)) for spec in specs]
    ascending = sorted(specs, key=lambda spec: (spec.gamma, spec.x))
    interleaved = sorted(specs, key=lambda spec: (spec.x, -spec.gamma))
    for order in (ascending, ascending[::-1], interleaved):
        with quadrature_memo():
            got = {spec: _bits(integral_quadrature(spec)) for spec in order}
        assert [got[spec] for spec in specs] == alone


@pytest.mark.parametrize("spec", [IntegralSpec(0.5, 150.0, 2.0, 1.0),
                                  IntegralSpec(0.0, 152.0, 2.0, 1.0)], ids=str)
def test_subnormal_quadrature_covers_its_rounding(spec):
    # a value below DBL_MIN carries a few subnormal units of rounding, once
    # claimed as an estimate of 0
    got = integral_quadrature(spec)
    with mpmath.workdps(30):
        want = reference_integral(spec.gamma, spec.nu, spec.n, spec.x)
        assert 0.0 < got.value < 2.0**-1022
        assert abs(got.value - want) <= got.abs_error_estimate


def _panel_cases():
    # (gamma, nu, n, lo, hi): the edges first, then a seeded sample.  The
    # panel [0, 5e-324] has every node at 0, and those up to [0, 1e-322]
    # nodes at 5e-324, where x/2 rounds to 0; (20, 0) at [30, 40] has nodes
    # past 30 where the large-x expansion declines (mu = 20, t = 35), and
    # (1, 0) there nodes where it is taken; mu = -1.5 + 1e-9 is next to
    # the order's bound.
    cases = [(0.0, 0.0, 0.0, 0.0, 5e-324), (0.5, 1.0, 0.5, 0.0, 1.0),
             (0.0, 20.0, 0.0, 30.0, 40.0), (0.95, 1.0, 0.0, 30.0, 40.0),
             (0.95, -0.5, -0.99, 25.0, 35.0), (0.0, -1.5 + 1e-9, 0.0, 0.0, 2.0),
             (0.0, -1.0, -0.5 + 1e-9, 0.0, 30.0), (0.5, 3.0, 2.0, 16.0, 80.0),
             (0.0, 0.0, 0.0, 0.0, 1e-323), (0.0, 0.0, 0.0, 0.0, 2e-323),
             (0.0, 0.0, 0.0, 0.0, 1e-322)]
    rng = random.Random("GK15 panel pass")
    for _ in range(150):
        gamma = rng.choice([0.0, 0.95, rng.uniform(0.0, 0.99)])
        n = rng.choice([0.0, 0.5, rng.uniform(-0.99, 3.0)])
        nu = rng.uniform(-1.49 - n, min(25.0, 4.0 - n))
        lo = rng.choice([0.0, rng.uniform(0.0, 60.0)])
        cases.append((gamma, nu, n, lo, lo + rng.choice([1e-9, 0.5, 8.0, 40.0])))
    return cases


def test_panel_pass_equals_per_node_values():
    # the nodes up to 30 share one series pass, the others go one by one,
    # and every value is the one-node integrand's; so is the panel
    routes = {"asymptotic": 0, "series past 30": 0}
    for gamma, nu, n, lo, hi in _panel_cases():
        spec = IntegralSpec(gamma, nu, n, 2.0 * hi)
        own, k = integrals_mod._offset_form(gamma, nu, hi)
        offset = own - k
        def one_node(t):
            return 0.0 if t == 0.0 else struve_l_weighted(
                nu + n, t, -nu, (1.0 - gamma) * t - offset, t).value

        nodes = []
        _gk15(lambda ts: nodes.extend(ts) or [0.0] * len(ts), lo, hi)
        got = integrals_mod._panel_values(spec, offset, nodes)
        assert [v.hex() for v in got] == [one_node(t).hex() for t in nodes], \
            (gamma, nu, n, lo, hi)
        panel = integrals_mod._panel_scaled(spec, offset, None, lo, hi)
        assert [v.hex() for v in panel] == [
            v.hex() for v in _gk15(per_node(one_node), lo, hi)]
        for t in nodes:
            if t > 30.0:
                route = specfun_mod._struve_asymptotic(
                    nu + n, t, -nu, (1.0 - gamma) * t - offset, t, "")
                routes["asymptotic" if route else "series past 30"] += 1
    assert min(routes.values()) >= 10, routes


@pytest.mark.parametrize(
    "spec",
    [IntegralSpec(0.5, 1.0, 0.5, 80.0), IntegralSpec(0.0, 0.0, 0.0, 60.0),
     IntegralSpec(0.9, 3.0, 2.0, 700.0), IntegralSpec(0.25, -1.2, 0.3, 400.0),
     IntegralSpec(0.0, -0.9, -0.5, 700.0), IntegralSpec(0.75, -1.1, 0.2, 2400.0),
     IntegralSpec(0.0, 10.0, 1.5, 150.0)],
    ids=str,
)
def test_rescaled_left_panels_match_mpmath(spec):
    # (1-gamma)x in [40, 700] where the expansion declines: GK15 runs, and
    # every panel left of x carries its own offset, rescaled to x's
    offset, k = integrals_mod._offset_form(spec.gamma, spec.nu, spec.x)
    assert integrals_mod._expansion_scaled(spec, offset, 0.0, k) is None
    value, err, subdivisions, _ = integrals_mod._quadrature_scaled(spec)
    assert subdivisions > 0
    with mpmath.workdps(30):
        want = reference_integral(spec.gamma, spec.nu, spec.n, spec.x) * mpmath.exp(k - offset)
        true_err = float(abs(value - want))
        assert true_err <= 1e-12 * float(want)
        assert true_err <= err
