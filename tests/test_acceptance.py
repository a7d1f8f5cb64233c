"""Acceptance suite.

One test per criterion, each run at its stated tolerance on its stated
grid, printing a single PASS/FAIL line (visible in verbose output and on
failure).  Reference values are pinned at the precision they were
published with; every computed comparison value here has been verified
against independent high-precision evaluation of the defining formulas.

Where a published value or an expectation is not what the paper's
formulas give, the test says so by name rather than bending a tolerance:

* criterion 2: the upper-bound table's entry at (order 10, x = 250) is
  published as 1.3959, but direct evaluation of the tabulated quantity
  (U - F)/F gives 1.41190 (two independent 40-digit routes for F, the
  2F3 series and quadrature of the defining integral, agree to all
  digits).  The comparison uses the corrected 1.4119 through the named
  erratum TABLE2_ERRATA, and test_table2_erratum_matches_mpmath keeps
  the evidence.  Two further table-2 entries, (1, 100) and (2.5, 0.5),
  are one unit off in the last place against mpmath (0.0290 and 0.0069
  against the published 0.0289 and 0.0070); both lie inside the +/-2e-4
  tolerance and stay as published.
* criterion 5: the paper claims tightness only as x grows, so at
  x = 300 the lower bounds are held to the rate the asymptotics give,
  1 - ratio = c_B/x + O(x^-2), rather than to a flat window.  No flat
  [0.99, 1] window can hold: bi5 at damping 1/2, order 1 has leading
  shortfall 3/300 = 0.01, and its true ratio is 0.9899402.
"""

import math
import time

import pytest

from conftest import rel_err
from struveint.bounds import (
    _d_constant_cached,
    bound_report,
    d_constant,
    lower_bi1,
    lower_bi2,
    lower_bi4,
    lower_bi5,
    upper_bi3,
)
from struveint.gridcheck import lower_bound_rates, rate_margin
from struveint.integrals import (
    IntegralSpec,
    integral_closed_form,
    integral_power_series,
    integral_quadrature,
    integral_series_oracle,
)
from struveint.specfun import SQRT_PI, struve_l, struve_l_scaled
from struveint.tables import relative_error_tables

ACCEPT_GAMMA = (0.0, 0.25, 0.5, 0.9)
ACCEPT_NU = (-0.4, 0.0, 1.0, 3.0)
ACCEPT_N = (0.0, 0.5, 2.0)
ACCEPT_X = (0.5, 1.0, 5.0, 20.0)

REFERENCE_D = {0.0: 1.109, 1.0: 1.331, 3.0: 1.693, 5.0: 1.990, 10.0: 2.584}

REFERENCE_TABLE1 = {
    1.0: (0.4959, 0.2540, 0.1089, 0.0409, 0.0202, 0.0101, 0.0040),
    2.5: (0.7979, 0.6225, 0.3708, 0.1539, 0.0784, 0.0396, 0.0159),
    5.0: (0.8992, 0.8229, 0.6374, 0.3130, 0.1678, 0.0869, 0.0355),
    7.5: (0.9329, 0.8923, 0.7741, 0.4407, 0.2482, 0.1318, 0.0547),
    10.0: (0.9498, 0.9249, 0.8472, 0.5426, 0.3205, 0.1745, 0.0735),
}
REFERENCE_TABLE2 = {
    1.0: (0.0041, 0.1939, 0.1981, 0.1034, 0.0558, 0.0289, 0.0118),
    2.5: (0.0070, 0.5184, 0.9270, 0.6847, 0.4073, 0.2213, 0.0930),
    5.0: (0.0062, 0.5679, 1.6268, 2.0626, 1.4411, 0.8462, 0.3721),
    7.5: (0.0051, 0.4985, 1.7368, 3.4231, 2.7983, 1.7750, 0.8169),
    10.0: (0.0043, 0.4285, 1.6301, 4.5028, 4.2818, 2.9312, 1.3959),
}
TABLE_X = (0.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)

#: Published upper-bound table entries contradicted by direct evaluation:
#: (nu, x) -> (published, corrected).  The comparison uses the corrected
#: value; test_table2_erratum_matches_mpmath backs it with mpmath.
TABLE2_ERRATA = {(10.0, 250.0): (1.3959, 1.4119)}


def _finish(number: int, name: str, checked: int, violations: list[str]) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"criterion {number} ({name}): {status} "
          f"({checked - len(violations)}/{checked} points)")
    assert not violations, (
        f"criterion {number} ({name}): {len(violations)} of {checked} "
        f"points out of tolerance:\n  " + "\n  ".join(violations)
    )


def _grid_specs():
    for gamma in ACCEPT_GAMMA:
        for nu in ACCEPT_NU:
            for n in ACCEPT_N:
                for x in ACCEPT_X:
                    yield IntegralSpec(gamma, nu, n, x)


# ---------------------------------------------------------------------------


def test_criterion_1_d_constant_reproduction():
    violations = []
    checked = 0
    for nu, want in sorted(REFERENCE_D.items()):
        _d_constant_cached.cache_clear()
        start = time.perf_counter()
        d = d_constant(nu, 0.0)
        elapsed = time.perf_counter() - start
        checked += 2
        if abs(d.value - want) > 1e-3:
            violations.append(
                f"D at order {nu:g}: computed {d.value:.6f}, reference {want}"
            )
        if elapsed >= 5.0:
            violations.append(f"D at order {nu:g} took {elapsed:.2f}s (budget 5s)")
    _finish(1, "D-constant reproduction, +/-1e-3, <5s each", checked, violations)


def test_criterion_2_table_reproduction():
    start = time.perf_counter()
    t1, t2 = relative_error_tables()
    elapsed = time.perf_counter() - start
    violations = []
    checked = 0
    for table, reference, errata, label in (
        (t1, REFERENCE_TABLE1, {}, "lower"),
        (t2, REFERENCE_TABLE2, TABLE2_ERRATA, "upper"),
    ):
        for i, nu in enumerate(sorted(reference)):
            for j, x in enumerate(TABLE_X):
                checked += 1
                got = table.rows[i][j]
                want = reference[nu][j]
                if (nu, x) in errata:
                    _, want = errata[(nu, x)]
                if abs(got - want) > 2e-4:
                    violations.append(
                        f"{label}-bound table at (nu={nu:g}, x={x:g}): "
                        f"computed {got:.4f}, reference {want:.4f}"
                    )
    checked += 1
    if elapsed >= 60.0:
        violations.append(f"table build took {elapsed:.1f}s (budget 60s)")
    _finish(2, "table reproduction, +/-2e-4, <60s", checked, violations)


def test_table2_erratum_matches_mpmath():
    """Each TABLE2_ERRATA entry: 40-digit (U - F)/F rounds to the corrected
    value, lies outside the tolerance of the published one, and agrees
    with relative_error_tables() to the 4 printed decimals."""
    mp = pytest.importorskip("mpmath")
    _, t2 = relative_error_tables()
    for (nu, x), (published, corrected) in TABLE2_ERRATA.items():
        i, j = sorted(REFERENCE_TABLE2).index(nu), TABLE_X.index(x)
        assert REFERENCE_TABLE2[nu][j] == published
        with mp.workdps(40):
            v, z = mp.mpf(nu), mp.mpf(x)
            middle = (
                z ** (v + 1) / (mp.sqrt(mp.pi) * 2**v * mp.gamma(v + 0.5))
                * mp.hyp2f3(1, 1, 1.5, 2, v + 0.5, z * z / 4)
            )
            # b and c of the coefficient triple at (nu - 1, n = 0)
            b = (2 * v - 1) * (2 * v + 1) / (
                mp.sqrt(mp.pi) * 2 ** (v + 3) * 4 * (v + 2) * mp.gamma(v + 3.5)
            )
            c = (2 * v - 1) / (mp.sqrt(mp.pi) * 2 ** (v + 1) * mp.gamma(v + 1.5))
            upper = (
                2 * v * mp.struvel(v, z)
                - (2 * v - 1) * mp.struvel(v + 2, z)
                + b * z ** (v + 3)
                - c * z ** (v + 1)
            )
            want = float((upper - middle) / middle)
        assert round(want, 4) == corrected
        assert abs(want - published) > 2e-4
        assert abs(t2.rows[i][j] - want) <= 5e-5


def test_criterion_3_oracle_equivalence():
    violations = []
    checked = 0
    for spec in _grid_specs():
        quad = integral_quadrature(spec).value
        if spec.gamma > 0.0:
            ref = integral_series_oracle(spec).value
        else:
            ref = integral_power_series(spec.nu, spec.n, spec.x).value
        checked += 1
        if rel_err(quad, ref) > 1e-9:
            violations.append(
                f"quadrature vs termwise series at {spec}: rel {rel_err(quad, ref):.3e}"
            )
        if spec.gamma == 0.0 and spec.n == 0.0:
            closed = integral_closed_form(spec.nu, spec.x)
            checked += 1
            if rel_err(quad, closed) > 1e-10:
                violations.append(
                    f"quadrature vs closed form at {spec}: "
                    f"rel {rel_err(quad, closed):.3e}"
                )
    _finish(3, "oracle equivalence on the 192-point grid", checked, violations)


def test_criterion_4_inequality_ordering():
    slack = 1e-12
    lower_ids = ("bi1", "bi2", "bi4", "bi5")
    violations = []
    checked = 0
    for spec in _grid_specs():
        report = bound_report(spec)
        integral = report.integral
        for name, value in report.applicable_bounds.items():
            checked += 1
            if name in lower_ids:
                margin = (integral - value) / integral
            else:
                margin = (value - integral) / integral
            if margin < -slack:
                violations.append(
                    f"{name} violates ordering at {spec}: margin {margin:.3e}"
                )
        got = report.applicable_bounds
        if "bi4" in got and "bi5" in got:
            checked += 1
            if got["bi5"] > got["bi4"] + slack * integral:
                violations.append(f"bi5 > bi4 at {spec}")
        if "bi7" in got and "bi8" in got:
            checked += 1
            if got["bi7"] > got["bi8"] + slack * integral:
                violations.append(f"bi7 > bi8 at {spec}")
    # equality boundary: the two-sided bounds collapse onto the integral
    for n in (0.0, 1.0, 2.5):
        nu = -0.5 * (n + 1.0)
        for x in (0.5, 2.0, 10.0):
            bi2 = lower_bi2(nu, n, x)
            bi3 = upper_bi3(nu, n, x)
            integral = integral_quadrature(IntegralSpec(0.0, nu, n, x)).value
            checked += 2
            if abs(bi2 - bi3) > 1e-10 * abs(bi3):
                violations.append(f"bi2 != bi3 on boundary (n={n:g}, x={x:g})")
            if abs(bi2 - integral) > 1e-10 * abs(integral):
                violations.append(f"bi2 != integral on boundary (n={n:g}, x={x:g})")
    _finish(4, "inequality ordering with 1e-12 slack", checked, violations)


def test_criterion_5_tightness():
    """Tightness of the lower bounds as x grows, and of bi3 as x drops to 0.

    The paper promises tightness only in the limit, so at x = 300 each
    lower bound is held to the rate at which its ratio to the integral
    reaches 1.  With p = nu + 1/2 and mu = (4 nu^2 - 1)/8 the Hankel
    expansion gives

        e^(-gamma t) L_nu(t) t^(-nu)
            ~ e^((1-gamma) t) t^(-p) (1 - mu/t) / sqrt(2 pi),

    and integrating by parts (the upper end dominates)

        I(gamma, nu, 0, x) ~ e^((1-gamma) x) x^(-p) / ((1-gamma) sqrt(2 pi))
                             * (1 - mu/x + p / ((1-gamma) x)).

    Each bound keeps the leading term and loses part of the 1/x term; the
    polynomial parts of the bounds are exponentially small beside it.
    Hence 1 - ratio = c_B/x + O(x^-2) with

    * bi1 (gamma = 0): L_nu(x)/x^nu carries 1 - mu/x, so c = p;
    * bi2 (gamma = 0): L_{nu+1}(x)/x^nu carries 1 - (mu + p)/x, so c = 2p;
    * bi4: e^(-gamma x) times the undamped integral carries
      1 - mu/x + p/x, so c = p gamma/(1 - gamma);
    * bi5: e^(-gamma x) L_nu(x)/x^nu carries 1 - mu/x, so c = p/(1 - gamma).

    The check keeps ratio <= 1 and asks x (1 - ratio) to lie within a
    relative 10/x of c_B, a bound on the O(x^-2) term; the rule and the
    c_B are gridcheck.rate_margin and gridcheck.lower_bound_rates, which
    struveint verify applies too.
    """
    violations = []
    checked = 0
    x = 300.0
    gamma = 0.5
    for nu in (0.0, 1.0):
        undamped = integral_quadrature(IntegralSpec(0.0, nu, 0.0, x)).value
        damped = integral_quadrature(IntegralSpec(gamma, nu, 0.0, x)).value
        ratios = {
            ("bi1", 0.0): lower_bi1(nu, x) / undamped,
            ("bi2", 0.0): lower_bi2(nu, 0.0, x) / undamped,
            ("bi4", gamma): lower_bi4(gamma, nu, x) / damped,
            ("bi5", gamma): lower_bi5(gamma, nu, x) / damped,
        }
        rates = lower_bound_rates(nu, gamma)
        for (name, g), ratio in ratios.items():
            checked += 1
            rate = rates[name]
            shortfall = x * (1.0 - ratio)
            if ratio > 1.0 + 1e-12 or rate_margin(ratio, x, rate) < 0.0:
                violations.append(
                    f"{name} ratio at (gamma={g:g}, nu={nu:g}, x={x:g}) is "
                    f"{ratio:.7f}: x(1 - ratio) = {shortfall:.5f}, "
                    f"expected {rate:g} within a relative {10.0 / x:.3g}"
                )
    for nu in (0.0, 1.0, 3.0):
        for n in (0.0, 1.0):
            integral = integral_quadrature(IntegralSpec(0.0, nu, n, 1e-2)).value
            ratio = upper_bi3(nu, n, 1e-2) / integral
            checked += 1
            if not 1.0 - 1e-12 <= ratio <= 1.0 + 1e-3:
                violations.append(
                    f"bi3 ratio at (nu={nu:g}, n={n:g}, x=1e-2) is {ratio:.8f}"
                )
    _finish(5, "tightness rate at x=300, window at x=1e-2", checked, violations)


def test_criterion_6_identity_suite():
    violations = []
    checked = 0
    # recurrence: L_{v-1} - L_{v+1} = (2v/x) L_v + (x/2)^v / (sqrt(pi) G(v+3/2))
    for nu in (0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0):
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 40.0, 50.0):
            if x > 30.0:
                lm = struve_l_scaled(nu - 1.0, x).value
                lp = struve_l_scaled(nu + 1.0, x).value
                lc = struve_l_scaled(nu, x).value
                power = math.exp(nu * math.log(x / 2.0) - x) / (
                    SQRT_PI * math.gamma(nu + 1.5)
                )
            else:
                lm = struve_l(nu - 1.0, x).value
                lp = struve_l(nu + 1.0, x).value
                lc = struve_l(nu, x).value
                power = (x / 2.0) ** nu / (SQRT_PI * math.gamma(nu + 1.5))
            residual = abs(lm - lp - (2.0 * nu / x) * lc - power) / lm
            checked += 1
            if residual > 1e-11:
                violations.append(
                    f"recurrence residual {residual:.3e} at (nu={nu:g}, x={x:g})"
                )
    # derivative: d/dx (L_v / x^v) = L_{v+1}/x^v + 2^-v / (sqrt(pi) G(v+3/2))
    for nu in (-1.0, -0.5, 0.0, 1.0, 2.5, 4.0, 5.0):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            h = 1e-5 * max(1.0, x)
            fd = (
                struve_l(nu, x + h).value / (x + h) ** nu
                - struve_l(nu, x - h).value / (x - h) ** nu
            ) / (2.0 * h)
            want = struve_l(nu + 1.0, x).value / x**nu + 2.0**-nu / (
                SQRT_PI * math.gamma(nu + 1.5)
            )
            checked += 1
            if abs(fd - want) / abs(want) > 1e-5:
                violations.append(
                    f"derivative residual at (nu={nu:g}, x={x:g}): "
                    f"{abs(fd - want) / abs(want):.3e}"
                )
    # small-x leading order
    for nu in (-1.0, 0.0, 1.0, 5.0):
        x = 1e-3
        lead = 2.0 / (SQRT_PI * math.gamma(nu + 1.5)) * (x / 2.0) ** (nu + 1.0)
        ratio = struve_l(nu, x).value / lead
        checked += 1
        if not 1.0 <= ratio <= 1.0 + 1e-3:
            violations.append(f"small-x ratio {ratio:.8f} at nu={nu:g}")
    # large-x asymptote
    for nu in (0.0, 1.0, 2.0):
        x = 400.0
        dev = abs(struve_l_scaled(nu, x).value * math.sqrt(2.0 * math.pi * x) - 1.0)
        checked += 1
        if dev > 0.02:
            violations.append(f"large-x asymptote deviation {dev:.4f} at nu={nu:g}")
    _finish(6, "recurrence/derivative/asymptotic identities", checked, violations)


def test_criterion_7_monotonicity():
    violations = []
    checked = 0
    for nu in (0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0):
        for x in (0.1, 0.5, 1.0, 5.0, 20.0, 50.0, 100.0, 300.0):
            if nu == 0.5 and x > 20.0:
                # gap sqrt(2/(pi x)) vs cosh x is below binary64 resolution
                continue
            if x > 30.0:
                hi = struve_l_scaled(nu - 1.0, x).value
                lo = struve_l_scaled(nu, x).value
            else:
                hi = struve_l(nu - 1.0, x).value
                lo = struve_l(nu, x).value
            checked += 1
            if not lo < hi:
                violations.append(f"order monotonicity fails at (nu={nu:g}, x={x:g})")
    _finish(7, "monotonicity in the order, zero violations", checked, violations)
