"""Tests for the bound engine.

Frozen expected values were computed independently at 30+ digit
precision from the defining formulas (series/quadrature); the D
reference values additionally pin the supremum solver.
"""

import math

import pytest

from conftest import rel_err
from struveint.bounds import (
    DConstant,
    bound_report,
    coefficients,
    corollary_bounds,
    corollary_middle,
    d_constant,
    lower_bi1,
    lower_bi2,
    lower_bi4,
    lower_bi5,
    ratio_fn,
    upper_bi3,
    upper_bi7,
    upper_bi8,
)
from struveint.exceptions import BoundNotApplicableError, DomainError
from struveint.integrals import (
    IntegralSpec,
    integral_closed_form,
    integral_quadrature,
)

DAMPED_HALF_0_0_1 = 0.2419096964687127  # integral at gamma=1/2, nu=n=0, x=1


# ---------------------------------------------------------------------------
# coefficients


def test_coefficients_nu0_n0():
    coefs = coefficients(0.0, 0.0)
    assert rel_err(coefs.a, 1.0 / (6.0 * math.pi)) < 1e-13
    assert rel_err(coefs.c, 1.0 / (3.0 * math.pi)) < 1e-13
    assert rel_err(coefs.b, 0.0007578806813899778) < 1e-13


@pytest.mark.parametrize("n", [0.0, 1.0, 2.5])
def test_coefficients_vanish_on_equality_boundary(n):
    coefs = coefficients(-0.5 * (n + 1.0), n)
    assert coefs.a == 0.0 and coefs.b == 0.0 and coefs.c == 0.0


@pytest.mark.parametrize("nu,n", [(0.0, 0.0), (1.0, 0.5), (-0.4, 2.0), (10.0, 0.0)])
def test_coefficients_nonnegative_in_domain(nu, n):
    assert 2.0 * nu + n + 1.0 >= 0.0
    coefs = coefficients(nu, n)
    assert coefs.a >= 0.0 and coefs.b >= 0.0 and coefs.c >= 0.0


def test_coefficients_domain_errors():
    with pytest.raises(DomainError):
        coefficients(-3.0, 0.0)  # gamma argument nonpositive
    with pytest.raises(DomainError):
        coefficients(-1.0, 0.0)  # nu+n+1 vanishes


# ---------------------------------------------------------------------------
# the undamped bounds bi1-bi3


def test_bi1_value():
    got = lower_bi1(0.0, 1.0)
    assert rel_err(got, 0.07362341357030955) < 1e-12
    assert got < integral_closed_form(0.0, 1.0)


def test_bi1_small_x_still_valid():
    # the O(x) pieces cancel exactly, leaving bi1 = O(x^3), far below the
    # O(x^2) integral; the inequality survives the x -> 0 collapse
    x = 0.01
    bi1 = lower_bi1(0.0, x)
    integral = integral_closed_form(0.0, x)
    assert 0.0 < bi1 < 0.01 * integral
    assert rel_err(lower_bi1(0.0, 2.0 * x) / bi1, 8.0) < 1e-3  # cubic in x


def test_bi1_domain():
    with pytest.raises(DomainError):
        lower_bi1(-1.5, 1.0)
    with pytest.raises(DomainError):
        lower_bi1(0.0, 0.0)


def test_bi2_value():
    assert rel_err(lower_bi2(0.0, 0.0, 0.5), 0.04067927069919805) < 1e-12


def test_bi2_below_integral():
    for nu, n, x in [(0.0, 0.0, 1.0), (1.0, 0.5, 5.0), (-0.4, 2.0, 20.0)]:
        spec = IntegralSpec(0.0, nu, n, x)
        assert lower_bi2(nu, n, x) < integral_quadrature(spec).value


def test_bi2_domain():
    with pytest.raises(DomainError):
        lower_bi2(-0.51, 0.0, 1.0)


def test_bi3_values():
    assert rel_err(upper_bi3(0.0, 0.0, 0.5), 0.0810234439008659) < 1e-12
    assert rel_err(upper_bi3(0.0, 0.0, 1.0), 0.3418916166487598) < 1e-12
    assert upper_bi3(0.0, 0.0, 1.0) > integral_closed_form(0.0, 1.0)


@pytest.mark.parametrize("n", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_bi2_bi3_collapse_on_boundary(n, x):
    nu = -0.5 * (n + 1.0)
    bi2 = lower_bi2(nu, n, x)
    bi3 = upper_bi3(nu, n, x)
    integral = integral_quadrature(IntegralSpec(0.0, nu, n, x)).value
    assert abs(bi2 - bi3) <= 1e-10 * abs(bi3)
    assert abs(bi2 - integral) <= 1e-10 * abs(integral)


# ---------------------------------------------------------------------------
# the damped lower bounds bi4/bi5


def test_bi4_value():
    got = lower_bi4(0.5, 0.0, 1.0)
    assert rel_err(got, 0.1784593045043934) < 1e-12
    assert got < DAMPED_HALF_0_0_1


def test_bi4_gamma_to_zero_limit():
    want = integral_closed_form(0.0, 1.0)
    got = lower_bi4(1e-6, 0.0, 1.0)
    assert rel_err(got, want) < 1e-5


def test_bi5_value():
    got = lower_bi5(0.5, 0.0, 1.0)
    assert rel_err(got, -0.6413736348375712) < 1e-12


@pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("nu", [-0.4, 0.0, 2.0])
@pytest.mark.parametrize("x", [0.5, 5.0, 20.0])
def test_bi5_below_bi4_below_integral(gamma, nu, x):
    bi4 = lower_bi4(gamma, nu, x)
    bi5 = lower_bi5(gamma, nu, x)
    integral = integral_quadrature(IntegralSpec(gamma, nu, 0.0, x)).value
    assert bi5 <= bi4 < integral


def test_bi4_domain():
    for gamma in (0.0, 1.0):
        with pytest.raises(DomainError):
            lower_bi4(gamma, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the ratio and its supremum


def test_ratio_small_x():
    assert ratio_fn(0.0, 0.0, 1e-4) < 1e-3


def test_ratio_large_x_tends_to_one():
    assert abs(ratio_fn(0.0, 0.0, 400.0) - 1.0) < 0.02


def test_ratio_at_reported_argmax():
    assert rel_err(ratio_fn(0.0, 0.0, 5.204408), 1.1083120814) < 1e-8


def test_ratio_domain():
    with pytest.raises(DomainError):
        ratio_fn(-0.5, 0.0, 1.0)  # boundary order is excluded here
    with pytest.raises(DomainError):
        ratio_fn(0.0, 0.0, 0.0)


REFERENCE_D = {
    # high-precision suprema; the 4-significant-figure reference values
    # 1.109, 1.331, 1.693, 1.990, 2.584 agree within 1e-3
    (0.0, 0.0): (1.1083121, 5.204408),
    (1.0, 0.0): (1.3301829, 5.310945),
    (3.0, 0.0): (1.6925899, 6.217143),
    (5.0, 0.0): (1.9891081, 7.086234),
    (10.0, 0.0): (2.5837583, 8.930421),
}


@pytest.mark.parametrize("pair", sorted(REFERENCE_D))
def test_d_constant_reference_values(pair):
    nu, n = pair
    want_value, want_argmax = REFERENCE_D[pair]
    d = d_constant(nu, n)
    assert abs(d.value - want_value) < 1e-6
    assert abs(d.argmax_x - want_argmax) < 1e-3
    assert d.value < 2.0 * (nu + n + 1.0)
    assert d.value > 1.0


def test_d_constant_is_local_max():
    d = d_constant(0.0, 0.0)
    for delta in (-0.01, 0.01):
        assert ratio_fn(0.0, 0.0, d.argmax_x + delta) <= d.value + 1e-9


def test_d_constant_fractional_orders():
    d = d_constant(0.5, 1.5)
    assert 1.0 < d.value < 2.0 * (0.5 + 1.5 + 1.0)


def test_d_constant_memoized():
    assert d_constant(0.0, 0.0) is d_constant(0.0, 0.0)


def test_d_constant_domain():
    with pytest.raises(DomainError):
        d_constant(-0.5, 0.0)


def test_d_solver_reports_boundary_supremum(monkeypatch):
    # shrinking the scan window below the true argmax leaves the best
    # grid point on the right edge, which must be diagnosed, not refined
    import struveint.bounds as bounds_mod
    from struveint.exceptions import DSolverError

    monkeypatch.setattr(bounds_mod, "D_SCAN_HI", 1.0)
    bounds_mod._d_constant_cached.cache_clear()
    try:
        with pytest.raises(DSolverError) as info:
            d_constant(0.0, 0.0)
        assert "boundary supremum" in str(info.value)
    finally:
        bounds_mod._d_constant_cached.cache_clear()


# ---------------------------------------------------------------------------
# the damped upper bounds bi7/bi8


def test_bi7_value_with_reference_d():
    d = DConstant(0.0, 0.0, 1.109, 5.2)
    got = upper_bi7(0.5, 0.0, 0.0, 1.0, d)
    assert rel_err(got, 0.4580941984886925) < 1e-12
    assert got > DAMPED_HALF_0_0_1


def test_bi8_value_with_reference_d():
    d = DConstant(0.0, 0.0, 1.109, 5.2)
    got = upper_bi8(0.5, 0.0, 0.0, 1.0, d)
    assert rel_err(got, 0.4654719366917869) < 1e-12
    assert got >= upper_bi7(0.5, 0.0, 0.0, 1.0, d)


def test_bi7_gamma_to_zero_exceeds_undamped():
    d = d_constant(0.0, 0.0)
    got = upper_bi7(1e-9, 0.0, 0.0, 1.0, d)
    assert got > integral_closed_form(0.0, 1.0) * (1.0 - 1e-8)


def test_bi7_inapplicable_regime():
    d = d_constant(0.0, 0.0)
    with pytest.raises(BoundNotApplicableError):
        upper_bi7(0.95, 0.0, 0.0, 1.0, d)  # 0.95 >= 1/1.1083


def test_bi7_rejects_mismatched_d():
    d = d_constant(1.0, 0.0)
    with pytest.raises(DomainError):
        upper_bi7(0.5, 0.0, 0.0, 1.0, d)


def test_bi8_general_n_uses_power_series_route():
    d = d_constant(1.0, 0.5)
    gamma = 0.5 / d.value
    spec = IntegralSpec(gamma, 1.0, 0.5, 2.0)
    integral = integral_quadrature(spec).value
    assert integral < upper_bi7(gamma, 1.0, 0.5, 2.0, d) <= upper_bi8(
        gamma, 1.0, 0.5, 2.0, d
    )


# ---------------------------------------------------------------------------
# tightness regression pins (values frozen from 40-digit computation)

LARGE_X_RATIOS = {
    # bound -> {nu: bound/integral at x=300 (gamma=0.5 for bi4/bi5)}
    "bi1": {0.0: 0.99832633, 1.0: 0.99498734},
    "bi2": {0.0: 0.99666106, 1.0: 0.99001657},
    "bi4": {0.0: 0.99831209, 1.0: 0.99492743},
    "bi5": {0.0: 0.99664124, 1.0: 0.98994020},
}


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_large_x_ratio_pins(nu):
    x = 300.0
    undamped = integral_quadrature(IntegralSpec(0.0, nu, 0.0, x)).value
    damped = integral_quadrature(IntegralSpec(0.5, nu, 0.0, x)).value
    assert abs(lower_bi1(nu, x) / undamped - LARGE_X_RATIOS["bi1"][nu]) < 1e-6
    assert abs(lower_bi2(nu, 0.0, x) / undamped - LARGE_X_RATIOS["bi2"][nu]) < 1e-6
    assert abs(lower_bi4(0.5, nu, x) / damped - LARGE_X_RATIOS["bi4"][nu]) < 1e-6
    assert abs(lower_bi5(0.5, nu, x) / damped - LARGE_X_RATIOS["bi5"][nu]) < 1e-6


@pytest.mark.parametrize("nu", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("n", [0.0, 1.0])
def test_bi3_tight_at_small_x(nu, n):
    x = 1e-2
    integral = integral_quadrature(IntegralSpec(0.0, nu, n, x)).value
    ratio = upper_bi3(nu, n, x) / integral
    assert 1.0 <= ratio <= 1.0 + 1e-3


# ---------------------------------------------------------------------------
# corollary


def test_corollary_middle_value():
    assert rel_err(corollary_middle(1.0, 0.5), 0.0806901107554135) < 1e-12


@pytest.mark.parametrize("nu", [1.0, 2.5, 7.0])
@pytest.mark.parametrize("x", [0.5, 4.0, 25.0])
def test_corollary_middle_identity(nu, x):
    want = x ** (nu - 1.0) * integral_closed_form(nu - 1.0, x)
    assert rel_err(corollary_middle(nu, x), want) < 1e-12


def test_corollary_middle_small_x():
    assert corollary_middle(2.0, 1e-8) < 1e-20


def test_corollary_bounds_value_and_rel_errors():
    middle = corollary_middle(1.0, 0.5)
    lower, upper = corollary_bounds(1.0, 0.5)
    assert rel_err(lower, 0.04067927069919805) < 1e-12
    assert abs((middle - lower) / middle - 0.4959) < 2e-4
    assert abs((upper - middle) / middle - 0.0041) < 2e-4


def test_corollary_rel_errors_at_x5():
    middle = corollary_middle(1.0, 5.0)
    lower, upper = corollary_bounds(1.0, 5.0)
    assert abs((middle - lower) / middle - 0.2540) < 2e-4
    assert abs((upper - middle) / middle - 0.1939) < 2e-4


@pytest.mark.parametrize("nu", [1.0, 2.5, 5.0, 7.5, 10.0])
@pytest.mark.parametrize("x", [0.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0])
def test_corollary_chain(nu, x):
    lower, upper = corollary_bounds(nu, x)
    middle = corollary_middle(nu, x)
    assert lower < middle < upper


def test_corollary_domain():
    with pytest.raises(DomainError):
        corollary_middle(0.5, 1.0)
    with pytest.raises(DomainError):
        corollary_bounds(0.4, 1.0)


# ---------------------------------------------------------------------------
# bound report


def test_report_damped_case():
    report = bound_report(IntegralSpec(0.5, 0.0, 0.0, 1.0))
    assert rel_err(report.integral, DAMPED_HALF_0_0_1) < 1e-10
    assert set(report.applicable_bounds) == {"bi4", "bi5", "bi7", "bi8"}
    assert rel_err(report.applicable_bounds["bi4"], 0.1784593045043934) < 1e-12
    assert report.skipped["bi1"].startswith("bounds the undamped")
    for name, value in report.applicable_bounds.items():
        want = abs(report.integral - value) / report.integral
        assert report.rel_errors[name] == want


def test_report_undamped_case():
    report = bound_report(IntegralSpec(0.0, 0.0, 0.0, 1.0))
    assert set(report.applicable_bounds) == {"bi1", "bi2", "bi3"}
    lo = max(report.applicable_bounds["bi1"], report.applicable_bounds["bi2"])
    hi = report.applicable_bounds["bi3"]
    assert lo < report.integral < hi
    assert report.skipped["bi7"] == "requires 0 < gamma < 1"


def test_report_equality_boundary():
    report = bound_report(IntegralSpec(0.0, -0.5, 0.0, 2.0))
    bi2 = report.applicable_bounds["bi2"]
    bi3 = report.applicable_bounds["bi3"]
    assert abs(bi2 - bi3) <= 1e-10 * abs(bi3)
    assert abs(bi2 - report.integral) <= 1e-10 * report.integral


def test_report_skips_inapplicable_b7_b8():
    report = bound_report(IntegralSpec(0.95, 0.0, 0.0, 1.0))
    assert "bi7" in report.skipped and "bi8" in report.skipped
    assert "1/D" in report.skipped["bi7"]


def test_report_skips_b7_b8_where_d_is_undefined():
    # nu = -(n+1)/2 is the boundary order, where D does not exist
    report = bound_report(IntegralSpec(0.5, -0.5, 0.0, 1.0))
    assert set(report.applicable_bounds) == {"bi4", "bi5"}
    assert report.skipped["bi7"].startswith("D undefined")
    assert report.skipped["bi8"].startswith("D undefined")


def test_report_skips_b2_b3_below_boundary():
    # nu < -(n+1)/2 removes bi2/bi3 (and D) but keeps the report alive
    report = bound_report(IntegralSpec(0.0, -0.7, 0.0, 1.0))
    assert "bi2" in report.skipped and "bi3" in report.skipped
    assert "bi1" in report.applicable_bounds


def test_report_general_n_damped():
    report = bound_report(IntegralSpec(0.25, 1.0, 0.5, 2.0))
    assert "bi4" in report.skipped  # n = 0 only
    assert "bi7" in report.applicable_bounds or "bi7" in report.skipped


def test_report_accepts_precomputed_d():
    d = DConstant(0.0, 0.0, 1.109, 5.2)
    report = bound_report(IntegralSpec(0.5, 0.0, 0.0, 1.0), d=d)
    assert rel_err(report.applicable_bounds["bi7"], 0.4580941984886925) < 1e-12
