"""Tests for the bound engine.

Frozen expected values were computed independently at 30+ digit
precision from the defining formulas (series/quadrature); the D
reference values additionally pin the supremum solver.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import struveint.bounds as bounds_mod
import struveint.integrals as integrals_mod
from conftest import count_calls, log_grid, record_indices, rel_err
from struveint.bounds import (
    BoundCoefficients,
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
from struveint.exceptions import BoundNotApplicableError, DomainError, DSolverError
from struveint.gridcheck import D_CHECK_PAIRS, D_SCAN_CHECK_POINTS, GridConfig
from struveint.integrals import (
    IntegralSpec,
    _expansion_scaled,
    integral_closed_form,
    integral_quadrature,
)
from struveint.tables import TABLE_META_TOLERANCES

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
    with pytest.raises(DomainError):
        lower_bi2(0.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        upper_bi3(0.0, 0.0, 0.0)


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
    with pytest.raises(DomainError):
        lower_bi4(0.5, -1.5, 1.0)
    with pytest.raises(DomainError):
        lower_bi5(0.5, 0.0, 0.0)


def _mp_bi4(mp, gamma, x):
    # bi4 at nu = 0 from its defining formula, the closed form as 2F3
    gamma, x = mp.mpf(gamma), mp.mpf(x)
    u = gamma * x
    integral = x * x / mp.pi * mp.hyper([1, 1], [1.5, 2, 1.5], x * x / 4)
    tail = (1 - (1 + u) * mp.exp(-u)) / (mp.sqrt(mp.pi) * gamma * mp.gamma(1.5))
    return (mp.exp(-u) * integral - tail) / (1 - gamma)


@pytest.mark.parametrize("gamma,x", [(0.5, 1e-6), (0.5, 1e-8), (0.5, 1e-12), (0.9, 1e-12)])
def test_bi4_at_small_gamma_x_matches_mpmath(gamma, x):
    # 1 - (1+u)e^-u is about u^2/2 here, far below either of its terms
    mp = pytest.importorskip("mpmath")
    got = lower_bi4(gamma, 0.0, x)
    with mp.workdps(50):
        want = _mp_bi4(mp, gamma, x)
        assert float(abs((got - want) / want)) < 1e-13


@pytest.mark.parametrize("gamma,x", [(0.5, 0.02), (0.5, 1.98), (0.5, 2.0), (0.5, 2.02),
                                     (0.9, 1.2), (0.25, 3.9), (0.9, 30.0)])
def test_bi4_either_side_of_u_1_matches_mpmath(gamma, x):
    # 1 - (1+u)e^-u is a series below u = gamma x = 1, expm1 from there
    mp = pytest.importorskip("mpmath")
    got = lower_bi4(gamma, 0.0, x)
    with mp.workdps(50):
        want = _mp_bi4(mp, gamma, x)
        assert float(abs((got - want) / want)) < 1e-14


def test_bi4_is_continuous_at_u_1():
    below, at = lower_bi4(0.5, 0.0, math.nextafter(2.0, 0.0)), lower_bi4(0.5, 0.0, 2.0)
    assert 0.0 <= at - below <= 1e-15 * at


def test_bi4_where_gamma_x_underflows():
    # gamma x rounds to 0 at the smallest double; bi4, about x^2, is 0 too
    assert lower_bi4(0.5, 0.0, 5e-324) == 0.0


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
        ratio_fn(0.0, -1.0, 1.0)
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


@pytest.mark.parametrize("nu,n", [(nu, n) for nu in (-0.4, 0.0, 1.0, 3.0, 10.0)
                                  for n in (-0.9, 0.0, 0.5, 2.0) if nu > -0.5 * (n + 1.0)])
def test_ratio_below_x_over_n_plus_2(nu, n):
    # the bound the descending scan stops on: the Gamma factors cancel, so
    # the ratio is x times a weighted mean of 1/(n+2k+2) <= 1/(n+2)
    for x in log_grid(1e-3, 500.0, 40):
        assert ratio_fn(nu, n, x) <= x / (n + 2.0), x


def _mp_ratio(mp, nu, n, x):
    # x^nu / L_{nu+n}(x) times the undamped integral, its positive
    # termwise series summed by the term ratio
    nu, n, x = mp.mpf(nu), mp.mpf(n), mp.mpf(x)
    mu, q2 = nu + n, x * x / 4
    term = x ** (n + 2) / (n + 2) / (2 ** (mu + 1) * mp.gamma(1.5) * mp.gamma(mu + 1.5))
    total, k = term, 0
    while k < x or term > mp.mpf(10) ** -40 * total:
        term *= q2 * (n + 2 * k + 2) / ((n + 2 * k + 4) * (k + 1.5) * (k + mu + 1.5))
        total += term
        k += 1
    return x**nu * total / mp.struvel(mu, x)


def _ratio_points():
    # (x, nu, n): a large-x grid, then a seeded set on ratio_fn's series route
    points = [(x, nu, n) for x in (100.0, 250.0, 500.0)
              for nu, n in ((0.0, 0.0), (3.0, 2.0), (10.0, 0.0))]
    rng = random.Random("ratio_fn series route")
    while len(points) < 109:
        n = rng.choice([0.0, rng.uniform(-0.9, 3.0)])
        nu = rng.uniform(-0.5 * (n + 1.0), 10.0)
        x = math.exp(rng.uniform(math.log(1e-3), math.log(500.0)))
        if _expansion_scaled(IntegralSpec(0.0, nu, n, x), x, nu) is None:
            points.append((x, nu, n))
    return points


@pytest.mark.parametrize("x,nu,n", _ratio_points())
def test_ratio_at_large_x_matches_mpmath(x, nu, n):
    # at 500 the integral comes from the large-x expansion, x^nu in its
    # lead; the series route, two sums over the terms of L_{nu+n}, is held
    # to 5e-15 (it was off by 6.6e-15 with a Gamma factor in each sum)
    mp = pytest.importorskip("mpmath")
    large = _expansion_scaled(IntegralSpec(0.0, nu, n, x), x, nu) is not None
    if x == 500.0:
        assert large
    with mp.workdps(40):
        want = _mp_ratio(mp, nu, n, x)
        assert float(abs((ratio_fn(nu, n, x) - want) / want)) < (1e-14 if large else 5e-15)


@pytest.mark.parametrize("log_lo,log_hi", [(-3.0, 1.8), (2.3, 2.7)],
                         ids=["x-1e-3-to-63", "x-200-to-500"])
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(n=st.floats(-0.95, 3.0), nu_frac=st.floats(0.01, 1.0), u=st.floats(0.0, 1.0))
def test_ratio_fn_matches_mpmath_on_both_routes(log_lo, log_hi, n, nu_frac, u):
    # nu over (-(n+1)/2, 10], x log-uniform on the band: below 63 every
    # point sums the series (one kernel pass for P and L), held to 2e-15;
    # on [200, 500] all but those with nu + n < -1/2 take the large-x
    # expansion, held to 1e-14
    mp = pytest.importorskip("mpmath")
    lo = -0.5 * (n + 1.0)
    nu, x = lo + nu_frac * (10.0 - lo), 10.0 ** (log_lo + u * (log_hi - log_lo))
    large = _expansion_scaled(IntegralSpec(0.0, nu, n, x), x, nu) is not None
    with mp.workdps(40):
        want = _mp_ratio(mp, nu, n, x)
        assert float(abs((ratio_fn(nu, n, x) - want) / want)) < (1e-14 if large else 2e-15)


@pytest.mark.parametrize("fn,args,message", [
    (ratio_fn, (0.0, 0.0, math.nan), "ratio_fn requires finite x > 0"),
    (ratio_fn, (0.0, 0.0, math.inf), "ratio_fn requires finite x > 0"),
    (ratio_fn, (0.0, math.inf, 1.0), "ratio_fn requires finite nu and n"),
    (ratio_fn, (math.nan, 0.0, 1.0), "ratio_fn requires finite nu and n"),
    (d_constant, (0.0, math.inf), "d_constant requires finite nu and n"),
    (d_constant, (math.inf, 0.0), "d_constant requires finite nu and n"),
    (d_constant, (0.0, math.nan), "d_constant requires finite nu and n"),
], ids=lambda v: getattr(v, "__name__", None))
def test_non_finite_ratio_inputs_name_their_function(fn, args, message):
    with pytest.raises(DomainError, match=message):
        fn(*args)


def _full_scan(nu, n):
    # the full 200-point scan and max() that the descending scan replaces,
    # ratio_fn from its series alone (the large-x expansion switched off by
    # the caller): (bracket, every ratio of the scan) or DSolverError
    xs = log_grid(bounds_mod.D_SCAN_LO, bounds_mod.D_SCAN_HI, bounds_mod.D_SCAN_POINTS)
    vals = [ratio_fn(nu, n, x) for x in xs]
    best = max(range(len(xs)), key=vals.__getitem__)
    if best in (0, len(xs) - 1):
        edge = "left" if best == 0 else "right"
        raise DSolverError(
            f"ratio scan found no interior maximum for nu={nu}, n={n}: "
            f"boundary supremum {vals[best]:.6f} at the {edge} edge "
            f"x={xs[best]:g} of [{bounds_mod.D_SCAN_LO:g}, {bounds_mod.D_SCAN_HI:g}]"
        )
    return [xs[best - 1], xs[best + 1]], vals


FULL_SCAN_PAIRS = sorted(
    {(nu, n) for nu in GridConfig().nu_values for n in GridConfig().n_values}
    | set(D_CHECK_PAIRS)
    | {(0.5, 1.5), (-0.519290808148034, 0.47813704333253915)}
)


@pytest.mark.parametrize("nu,n", FULL_SCAN_PAIRS)
def test_descending_scan_matches_full_scan(monkeypatch, nu, n):
    # the pruned scan and the large-x ratio hand the root search the
    # bracket, and give the edge diagnosis, bit for bit as the full scan
    # did; D is at least every ratio of the full scan
    try:
        with monkeypatch.context() as series_only:
            series_only.setattr(bounds_mod, "_expansion_scaled", lambda *args: None)
            bracket, vals = _full_scan(nu, n)
    except DSolverError as exc:
        bracket, failure = None, str(exc)
    slopes = count_calls(monkeypatch, bounds_mod, "_log_slopes")
    bounds_mod._d_constant_cached.cache_clear()
    try:
        if bracket is None:
            with pytest.raises(DSolverError) as info:
                d_constant(nu, n)
            assert str(info.value) == failure
            return
        d = d_constant(nu, n)
    finally:
        bounds_mod._d_constant_cached.cache_clear()
    assert [x.hex() for x in slopes[0][2]] == [x.hex() for x in bracket]
    assert d.value >= max(vals)


# D and its argmax at the 12 default pairs, the D_CHECK_PAIRS and a pair
# whose argmax lies in the large-x expansion range, as float.hex
D_PINS = {
    (-0.4, 0.0): ("0x1.045237e2cda56p+0", "0x1.9e813fd3bfccep+2"),
    (-0.4, 0.5): ("0x1.03e7b4cd2259cp+0", "0x1.eb388d7fd02d8p+2"),
    (-0.4, 2.0): ("0x1.00880a96bd0a9p+0", "0x1.9bcd06616433fp+4"),
    (0.0, 0.0): ("0x1.1bba572f8d0d6p+0", "0x1.4d1503e918d29p+2"),
    (0.0, 0.5): ("0x1.1482d2be0c271p+0", "0x1.9e11bba2fb238p+2"),
    (0.0, 2.0): ("0x1.0743e930ca644p+0", "0x1.781068d8540d1p+3"),
    (1.0, 0.0): ("0x1.5486dd8f86112p+0", "0x1.53e6865577943p+2"),
    (1.0, 0.5): ("0x1.3e3c1539d6034p+0", "0x1.97bbb26f631d8p+2"),
    (1.0, 2.0): ("0x1.1c8ec2cb9f87ap+0", "0x1.4290ffebd9977p+3"),
    (3.0, 0.0): ("0x1.b14d9bd8f3dabp+0", "0x1.8de5ac99838a9p+2"),
    (3.0, 0.5): ("0x1.8659e0a28b4dbp+0", "0x1.c93d2f2750d83p+2"),
    (3.0, 2.0): ("0x1.4629042b1ba77p+0", "0x1.46bda9ca5714ap+3"),
    (5.0, 0.0): ("0x1.fd362afa192a9p+0", "0x1.c584dc5d9c56ep+2"),
    (10.0, 0.0): ("0x1.4ab89746d1740p+1", "0x1.1dc602b776ea9p+3"),
    (-0.458, 3.365): ("0x1.00070377204cfp+0", "0x1.8b810f5615defp+7"),
}


def test_d_pins_cover_the_default_and_check_pairs():
    config = GridConfig()
    assert {(nu, n) for nu in config.nu_values for n in config.n_values} | set(
        D_CHECK_PAIRS) | {(-0.458, 3.365)} == set(D_PINS)
    argmax = float.fromhex(D_PINS[-0.458, 3.365][1])
    assert _expansion_scaled(IntegralSpec(0.0, -0.458, 3.365, argmax), argmax, -0.458)


@pytest.mark.parametrize("nu,n", sorted(D_PINS))
@pytest.mark.parametrize("points", [bounds_mod.D_SCAN_POINTS, D_SCAN_CHECK_POINTS],
                         ids=["d-scan", "d-properties"])
def test_ratio_grid_equals_per_point_ratio(nu, n, points):
    # one series pass over a grid gives each point's ratio bit for bit
    xs = log_grid(bounds_mod.D_SCAN_LO, bounds_mod.D_SCAN_HI, points)
    assert [r.hex() for r in bounds_mod._ratio_grid(nu, n, xs)] == [
        ratio_fn(nu, n, x).hex() for x in xs]


@pytest.mark.parametrize("nu,n", sorted(D_PINS))
def test_d_constant_bits_are_pinned(nu, n):
    bounds_mod._d_constant_cached.cache_clear()
    try:
        d = d_constant(nu, n)
    finally:
        bounds_mod._d_constant_cached.cache_clear()
    assert (d.value.hex(), d.argmax_x.hex()) == D_PINS[nu, n]


def _mp_supremum(mp, nu, n, x0):
    # (sup, argmax) of the ratio r: the root near x0 of its derivative
    # r' = 1 + r ((nu + mu)/x - L_{mu-1}/L_mu), mu = nu + n, from
    # I' = L_mu / x^nu and L_mu' = L_{mu-1} - (mu/x) L_mu (DLMF 11.4.25)
    mu = mp.mpf(nu) + n

    def slope(x):
        return 1 + _mp_ratio(mp, nu, n, x) * (
            (nu + mu) / x - mp.struvel(mu - 1, x) / mp.struvel(mu, x))

    x = mp.findroot(slope, mp.mpf(x0))
    return _mp_ratio(mp, nu, n, x), x


@pytest.mark.parametrize("nu,n", [(-0.4, 2.0), (0.0, 0.0), (10.0, 0.0), (-0.458, 3.365)])
def test_d_constant_matches_the_supremum(nu, n):
    # (-0.4, 2) is flat to an ulp near its argmax; (-0.458, 3.365) takes
    # the large-x route there
    mp = pytest.importorskip("mpmath")
    d = d_constant(nu, n)
    with mp.workdps(40):
        sup, _ = _mp_supremum(mp, nu, n, d.argmax_x)
        assert abs(float((d.value - sup) / sup)) < 1e-15


@pytest.mark.parametrize("nu,n", sorted(D_PINS))
def test_d_constant_is_within_its_guarantee(nu, n):
    # D within 4 ulps of the 40-digit supremum, above or below, and
    # argmax_x within 1e-6 of the maximizer: the argmax_xtol that
    # `table dconstants --format json` prints
    mp = pytest.importorskip("mpmath")
    d = d_constant(nu, n)
    with mp.workdps(40):
        sup, x = _mp_supremum(mp, nu, n, d.argmax_x)
        assert abs(float(d.value - sup)) <= 4.0 * math.ulp(float(sup))
        assert abs(float(d.argmax_x - x)) <= TABLE_META_TOLERANCES["dconstants"]["argmax_xtol"]


def test_d_constant_argmax_within_xtol():
    # a cold d_constant(0, 0) puts its argmax within the printed
    # argmax_xtol of the 40-digit maximizer
    mp = pytest.importorskip("mpmath")
    bounds_mod._d_constant_cached.cache_clear()
    try:
        d = d_constant(0.0, 0.0)
    finally:
        bounds_mod._d_constant_cached.cache_clear()
    with mp.workdps(40):
        _, x = _mp_supremum(mp, 0.0, 0.0, d.argmax_x)
        assert abs(float(d.argmax_x - x)) <= TABLE_META_TOLERANCES["dconstants"]["argmax_xtol"]


def test_d_scan_sums_its_grid_in_one_pass(monkeypatch):
    # one kernel pass, P and L together, for the top and one for the grid
    # (_ratio_grid), then two per point of the root search (_log_slopes):
    # P and L, and the sum of k T_k.  The scan's passes share one d_k and
    # one w_k table, the k T_k passes another pair, so each d_k of either
    # is computed once; a cold d_constant(1, 0) takes at most 32 passes
    sums = count_calls(monkeypatch, bounds_mod, "_sums")
    grids = count_calls(monkeypatch, bounds_mod, "_ratio_grid")
    slopes = count_calls(monkeypatch, bounds_mod, "_log_slopes")
    tabulated = record_indices(monkeypatch, bounds_mod, "_struve_den")
    bounds_mod._d_constant_cached.cache_clear()
    try:
        d_constant(1.0, 0.0)
    finally:
        bounds_mod._d_constant_cached.cache_clear()
    assert len(grids) == 2
    assert [len(call[2]) for call in slopes] == [2] + [1] * (len(slopes) - 1)
    assert len(sums) == len(grids) + 2 * len(slopes) <= 32
    assert all(call[4] is not None for call in sums)  # each pass sums a weighted sum
    pairs = {}
    for call, ks in zip(sums, tabulated):
        pairs.setdefault(id(call[5]), (call[5], []))[1].extend(ks)
    assert len(pairs) == 2
    for tables, ks in pairs.values():
        assert ks == list(range(len(ks))) and len(ks) > 0
        assert len(tables[0]) == len(tables[1]) == len(ks)


@pytest.mark.parametrize("nu,n", [(-0.4, 2.0), (1.0, 0.5)])
def test_d_search_stops_once_its_slope_stops_shrinking(monkeypatch, nu, n):
    # each secant step's |g| is below the one before, but for the last:
    # no steps are spent once g is rounding (the search took 18 and 17
    # passes when it stopped only on a step that left the bracket)
    slopes, original = [], bounds_mod._log_slopes

    def traced(*args):
        out = original(*args)
        slopes.append([abs(g) for _, g in out])
        return out

    monkeypatch.setattr(bounds_mod, "_log_slopes", traced)
    bounds_mod._d_constant_cached.cache_clear()
    try:
        d = d_constant(nu, n)
    finally:
        bounds_mod._d_constant_cached.cache_clear()
    steps = [g for (g,) in slopes[1:]]
    assert all(a > b for a, b in zip(steps, steps[1:-1]))
    assert len(slopes) <= 10
    assert (d.value.hex(), d.argmax_x.hex()) == D_PINS[nu, n]


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


def _damping_factor(gamma: float, x: float) -> float:
    # exp(-gamma x)/(1 - gamma D) with the solver's D at nu = n = 0
    return math.exp(-gamma * x) / (1.0 - gamma * d_constant(0.0, 0.0).value)


def test_bi7_value_with_reference_d():
    # the undamped integral at nu = n = 0, x = 1 is the closed form
    got = upper_bi7(0.5, 0.0, 0.0, 1.0)
    assert rel_err(got, _damping_factor(0.5, 1.0) * 0.3364726286440384) < 1e-12
    assert got > DAMPED_HALF_0_0_1


def test_bi8_value_with_reference_d():
    # bi3 at nu = n = 0, x = 1 as pinned in test_bi3_values
    got = upper_bi8(0.5, 0.0, 0.0, 1.0)
    assert rel_err(got, _damping_factor(0.5, 1.0) * 0.3418916166487598) < 1e-12
    assert got >= upper_bi7(0.5, 0.0, 0.0, 1.0)


def test_bi7_gamma_to_zero_exceeds_undamped():
    got = upper_bi7(1e-9, 0.0, 0.0, 1.0)
    assert got > integral_closed_form(0.0, 1.0) * (1.0 - 1e-8)


def test_bi7_inapplicable_regime():
    with pytest.raises(BoundNotApplicableError):
        upper_bi7(0.95, 0.0, 0.0, 1.0)  # 0.95 >= 1/1.1083
    for gamma in (0.0, 1.0):
        with pytest.raises(DomainError):
            upper_bi7(gamma, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        upper_bi8(0.5, 0.0, 0.0, 0.0)


def test_bi8_general_n_uses_power_series_route():
    gamma = 0.5 / d_constant(1.0, 0.5).value
    spec = IntegralSpec(gamma, 1.0, 0.5, 2.0)
    integral = integral_quadrature(spec).value
    assert integral < upper_bi7(gamma, 1.0, 0.5, 2.0) <= upper_bi8(
        gamma, 1.0, 0.5, 2.0
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
# bounds where one factor alone leaves binary64: exp((1-gamma)x) at large
# x, x^(-nu) at tiny x


def _mp_bi2_bi3(mp, nu, n, x):
    # bi2 and bi3 from their defining formulas with 30-digit L; the
    # polynomial terms take the library coefficients, pinned above.
    coefs = coefficients(nu, n)
    x = mp.mpf(x)
    l1 = mp.struvel(nu + n + 1, x) / x**nu
    l3 = mp.struvel(nu + n + 3, x) / x**nu
    lower = l1 - coefs.a * x ** (n + 2)
    upper = (
        2 * (nu + n + 1) / (n + 1) * l1
        - (2 * nu + n + 1) / (n + 1) * l3
        + coefs.b * x ** (n + 4)
        - coefs.c * x ** (n + 2)
    )
    return lower, upper


def _mp_bi5(mp, gamma, x):
    # bi5 at nu = 0
    u = mp.mpf(gamma) * x
    tail = (1 + u) * -mp.expm1(-u) / (mp.sqrt(mp.pi) * gamma * mp.gamma(1.5))
    return (mp.struvel(0, x) * mp.exp(-u) - tail) / (1 - mp.mpf(gamma))


def _mp_undamped(mp, x):
    # the undamped n = 0 integral at nu = 0, its 2F3 closed form
    x = mp.mpf(x)
    return x**2 / (mp.sqrt(mp.pi) * 2 * mp.gamma(1.5)) * mp.hyper(
        [1, 1], [1.5, 2, 1.5], x**2 / 4
    )


def _mp_damped(mp, bound, gamma, x):
    # bi4, bi7 or bi8 at nu = n = 0; bi7 and bi8 take the solver's D
    u = mp.mpf(gamma) * x
    if bound == "bi4":
        tail = (1 - (1 + u) * mp.exp(-u)) / (mp.sqrt(mp.pi) * gamma * mp.gamma(1.5))
        return (mp.exp(-u) * _mp_undamped(mp, x) - tail) / (1 - mp.mpf(gamma))
    undamped = _mp_undamped(mp, x) if bound == "bi7" else _mp_bi2_bi3(mp, 0, 0, x)[1]
    return mp.exp(-u) / (1 - gamma * mp.mpf(d_constant(0.0, 0.0).value)) * undamped


PAST_EXP_LIMIT = {
    "bi1-712": (
        lambda: lower_bi1(0.0, 712.0),
        lambda mp: mp.struvel(0, 712) - 712 / (mp.sqrt(mp.pi) * mp.gamma(1.5)),
    ),
    "bi2-710": (lambda: lower_bi2(0.0, 0.0, 710.0), lambda mp: _mp_bi2_bi3(mp, 0, 0, 710)[0]),
    "bi3-712": (lambda: upper_bi3(1.0, 0.0, 712.0), lambda mp: _mp_bi2_bi3(mp, 1, 0, 712)[1]),
    "corollary-lower-710": (
        lambda: corollary_bounds(1.0, 710.0)[0],
        lambda mp: _mp_bi2_bi3(mp, 0, 0, 710)[0],
    ),
    "corollary-upper-710": (
        lambda: corollary_bounds(1.0, 710.0)[1],
        lambda mp: _mp_bi2_bi3(mp, 0, 0, 710)[1],
    ),
    "bi4-716": (lambda: lower_bi4(0.5, 0.0, 716.0), lambda mp: _mp_damped(mp, "bi4", 0.5, 716)),
    "bi5-1415": (lambda: lower_bi5(0.5, 0.0, 1415.0), lambda mp: _mp_bi5(mp, 0.5, 1415)),
    "bi5-1420": (lambda: lower_bi5(0.5, 0.0, 1420.0), lambda mp: _mp_bi5(mp, 0.5, 1420)),
}


@pytest.mark.parametrize("case", list(PAST_EXP_LIMIT))
def test_bounds_past_exp_limit_match_mpmath(case):
    mp = pytest.importorskip("mpmath")
    call, reference = PAST_EXP_LIMIT[case]
    got = call()
    assert math.isfinite(got)
    with mp.workdps(30):
        want = reference(mp)
        assert float(abs((got - want) / want)) < 1e-12


# (call, reference, first x, last x): each crosses DBL_MAX in its range
NEAR_DBL_MAX = {
    "bi3": (
        lambda x: upper_bi3(0.0, 0.0, x), lambda mp, x: _mp_bi2_bi3(mp, 0, 0, x)[1],
        712.0, 716.0,
    ),
    "corollary-lower": (
        lambda x: corollary_bounds(1.0, x)[0],
        lambda mp, x: _mp_bi2_bi3(mp, 0, 0, x)[0],
        712.0, 716.0,
    ),
    "corollary-upper": (
        lambda x: corollary_bounds(1.0, x)[1],
        lambda mp, x: _mp_bi2_bi3(mp, 0, 0, x)[1],
        712.0, 716.0,
    ),
    "corollary-nu2-lower": (
        lambda x: corollary_bounds(2.0, x)[0],
        lambda mp, x: x * _mp_bi2_bi3(mp, 1, 0, x)[0],
        712.0, 716.0,
    ),
    "corollary-nu2-upper": (
        lambda x: corollary_bounds(2.0, x)[1],
        lambda mp, x: x * _mp_bi2_bi3(mp, 1, 0, x)[1],
        712.0, 716.0,
    ),
    "bi2": (
        lambda x: lower_bi2(0.0, 0.0, x), lambda mp, x: _mp_bi2_bi3(mp, 0, 0, x)[0],
        712.0, 716.0,
    ),
    "bi5": (
        lambda x: lower_bi5(1e-3, 0.0, x), lambda mp, x: _mp_bi5(mp, 1e-3, x),
        712.0, 716.0,
    ),
    "bi4": (
        lambda x: lower_bi4(0.5, 0.0, x), lambda mp, x: _mp_damped(mp, "bi4", 0.5, x),
        1412.0, 1420.0,
    ),
    "bi7": (
        lambda x: upper_bi7(0.5, 0.0, 0.0, x),
        lambda mp, x: _mp_damped(mp, "bi7", 0.5, x),
        1412.0, 1420.0,
    ),
    "bi8": (
        lambda x: upper_bi8(0.5, 0.0, 0.0, x),
        lambda mp, x: _mp_damped(mp, "bi8", 0.5, x),
        1412.0, 1420.0,
    ),
    "integral": (
        lambda x: integral_quadrature(IntegralSpec(0.0, 0.0, 0.0, x)).value,
        _mp_undamped,
        709.0, 713.0,
    ),
}


@pytest.mark.parametrize("case", list(NEAR_DBL_MAX))
def test_bounds_near_dbl_max_are_right_or_overflow(case):
    # at 17 points of each range the value is right to 1e-12 wherever it
    # is below DBL_MAX, and OverflowError is raised only above it; bi3
    # once returned inf at 713.5, where 2 L_1(x) is beyond DBL_MAX but bi3
    # (1.1105e308) is not
    mp = pytest.importorskip("mpmath")
    call, reference, lo, hi = NEAR_DBL_MAX[case]
    with mp.workdps(30):
        for i in range(17):
            x = lo + (hi - lo) * i / 16
            want = reference(mp, x)
            if abs(want) >= 2**1024:
                with pytest.raises(OverflowError, match="overflows binary64$"):
                    call(x)
            else:
                assert float(abs((call(x) - want) / want)) < 1e-12, x


def _mp_closed_form(mp, nu, x):
    # the undamped n = 0 integral at order nu, its 2F3 closed form
    x = mp.mpf(x)
    return x**2 / (mp.sqrt(mp.pi) * 2 ** (nu + 1) * mp.gamma(nu + 1.5)) * mp.hyper(
        [1, 1], [1.5, 2, nu + 1.5], x**2 / 4
    )


def _mp_bi4_bi5(mp, gamma, nu, x):
    # bi4 and bi5 at order nu from their defining formulas
    x, gamma = mp.mpf(x), mp.mpf(gamma)
    u = gamma * x
    front = 1 / (mp.sqrt(mp.pi) * gamma * 2**nu * mp.gamma(nu + 1.5))
    bi4 = mp.exp(-u) * _mp_closed_form(mp, nu, x) - (1 - (1 + u) * mp.exp(-u)) * front
    bi5 = mp.exp(-u) * mp.struvel(nu, x) / x**nu + (1 + u) * mp.expm1(-u) * front
    return bi4 / (1 - gamma), bi5 / (1 - gamma)


# Gamma(nu + 3/2) or the 2F3 series alone is beyond binary64 at these
# points, and so is exp(-(1-gamma)x) times the bound's x^-nu
LARGE_ORDER = {
    "bi2-200-2000": (lambda: lower_bi2(200.0, 0.0, 2000.0),
                     lambda mp: _mp_bi2_bi3(mp, 200, 0, 2000)[0]),
    "bi3-200-2000": (lambda: upper_bi3(200.0, 0.0, 2000.0),
                     lambda mp: _mp_bi2_bi3(mp, 200, 0, 2000)[1]),
    "bi4-200-3000": (lambda: lower_bi4(0.5, 200.0, 3000.0),
                     lambda mp: _mp_bi4_bi5(mp, 0.5, 200, 3000)[0]),
    "bi5-200-3000": (lambda: lower_bi5(0.5, 200.0, 3000.0),
                     lambda mp: _mp_bi4_bi5(mp, 0.5, 200, 3000)[1]),
    "closed-form-200-2000": (lambda: integral_closed_form(200.0, 2000.0),
                             lambda mp: _mp_closed_form(mp, 200, 2000)),
    "corollary-middle-0.6-712": (lambda: corollary_middle(0.6, 712.0),
                                 lambda mp: 712 ** mp.mpf(-0.4) * _mp_closed_form(mp, -0.4, 712)),
    "corollary-middle-0.6-713": (lambda: corollary_middle(0.6, 713.0),
                                 lambda mp: 713 ** mp.mpf(-0.4) * _mp_closed_form(mp, -0.4, 713)),
    # 1/(2^nu Gamma(nu+1/2)), about e^-1620 at nu = 300, would underflow
    # the series' first term: whole powers of x lift it
    "corollary-middle-300-700": (lambda: corollary_middle(300.0, 700.0),
                                 lambda mp: 700 ** mp.mpf(299) * _mp_closed_form(mp, 299, 700)),
    "corollary-middle-250-600": (lambda: corollary_middle(250.0, 600.0),
                                 lambda mp: 600 ** mp.mpf(249) * _mp_closed_form(mp, 249, 600)),
    # x^(nu-1) alone is beyond binary64: it joins the offset
    "corollary-lower-150-700": (lambda: corollary_bounds(150.0, 700.0)[0],
                                lambda mp: 700 ** mp.mpf(149) * _mp_bi2_bi3(mp, 149, 0, 700)[0]),
    "corollary-upper-150-700": (lambda: corollary_bounds(150.0, 700.0)[1],
                                lambda mp: 700 ** mp.mpf(149) * _mp_bi2_bi3(mp, 149, 0, 700)[1]),
    "corollary-lower-120-400": (lambda: corollary_bounds(120.0, 400.0)[0],
                                lambda mp: 400 ** mp.mpf(119) * _mp_bi2_bi3(mp, 119, 0, 400)[0]),
    "corollary-upper-120-400": (lambda: corollary_bounds(120.0, 400.0)[1],
                                lambda mp: 400 ** mp.mpf(119) * _mp_bi2_bi3(mp, 119, 0, 400)[1]),
    # x^(1-nu) L_nu(x), about e^-1326 at (300, 700), would underflow the
    # scaled bodies once k stops at the offset x: whole powers of x lift them
    "corollary-lower-300-700": (lambda: corollary_bounds(300.0, 700.0)[0],
                                lambda mp: 700 ** mp.mpf(299) * _mp_bi2_bi3(mp, 299, 0, 700)[0]),
    "corollary-upper-300-700": (lambda: corollary_bounds(300.0, 700.0)[1],
                                lambda mp: 700 ** mp.mpf(299) * _mp_bi2_bi3(mp, 299, 0, 700)[1]),
    "corollary-lower-250-600": (lambda: corollary_bounds(250.0, 600.0)[0],
                                lambda mp: 600 ** mp.mpf(249) * _mp_bi2_bi3(mp, 249, 0, 600)[0]),
    "corollary-upper-250-600": (lambda: corollary_bounds(250.0, 600.0)[1],
                                lambda mp: 600 ** mp.mpf(249) * _mp_bi2_bi3(mp, 249, 0, 600)[1]),
}


@pytest.mark.parametrize("case", list(LARGE_ORDER))
def test_large_order_bounds_match_mpmath(case):
    mp = pytest.importorskip("mpmath")
    call, reference = LARGE_ORDER[case]
    got = call()
    with mp.workdps(30):
        want = reference(mp)
        assert float(abs((got - want) / want)) < 1e-12


def test_coefficients_past_gamma_overflow_match_mpmath():
    # Gamma(202.5) is beyond binary64; the coefficients are below its
    # smallest value
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        root_pi, two, g52, g92 = mp.sqrt(mp.pi), mp.mpf(2), mp.gamma(202.5), mp.gamma(204.5)
        want = BoundCoefficients(
            float(401 / (root_pi * two**202 * 2 * 201 * g52)),
            float(401 * 403 / (root_pi * two**204 * 1 * 4 * 203 * g92)),
            float(401 / (root_pi * two**201 * 1 * 2 * g52)),
        )
    assert coefficients(200.0, 0.0) == want


@pytest.mark.parametrize("bound", [0, 1], ids=["bi2", "bi3"])
def test_bounds_at_tiny_x_match_mpmath(bound):
    # x^(-nu) = 1e330 alone overflows; the bounds are about x^2 = 1e-220
    mp = pytest.importorskip("mpmath")
    got = (lower_bi2, upper_bi3)[bound](3.0, 0.0, 1e-110)
    assert math.isfinite(got)
    with mp.workdps(30):
        want = _mp_bi2_bi3(mp, 3, 0, 1e-110)[bound]
        assert float(abs((got - want) / want)) < 1e-12


def test_bi1_at_tiny_x_is_cancellation_only():
    # L_3(x)/x^3 and the subtracted term agree to all digits at x = 1e-110;
    # their difference, bi1 = O(x^3) = 1e-330, is below that term's size
    x = 1e-110
    term = x / (math.sqrt(math.pi) * 2.0**3 * math.gamma(4.5))
    assert abs(lower_bi1(3.0, x)) <= 1e-12 * term


def test_bi1_at_tiny_x_is_its_leading_term():
    # bi1 is the n = 1 undamped integral, x^3 / (2^(nu+2) 3 Gamma(3/2)
    # Gamma(nu+5/2)) to relative order x^2
    nu, x = 3.0, 1e-100
    lead = x**3 / (2.0 ** (nu + 2.0) * 3.0 * math.gamma(1.5) * math.gamma(nu + 2.5))
    assert rel_err(lower_bi1(nu, x), lead) < 1e-13


def test_bound_beyond_binary64_still_overflows():
    # L_1(715) is about 4.9e308, past the largest double
    with pytest.raises(OverflowError):
        lower_bi2(0.0, 0.0, 715.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lower_bi5(0.5, 0.0, 1e301),
        lambda: lower_bi2(0.0, 0.0, 1e30),
        lambda: corollary_bounds(1.0, 1e30),
        lambda: corollary_bounds(201.0, 2000.0),
        lambda: integral_quadrature(IntegralSpec(0.5, 0.0, 0.0, 1e30)),
    ],
    ids=["bi5-1e301", "bi2-1e30", "corollary-1e30", "corollary-201-2000", "integral-1e30"],
)
def test_bound_far_beyond_binary64_overflows(call):
    # exp(offset) alone is far past the largest double; these once
    # returned finite negative values (bi5 -1.27e301)
    with pytest.raises(OverflowError, match="overflows binary64$"):
        call()


@pytest.mark.parametrize(
    "name,call",
    [("lower_bi1", lambda: lower_bi1(0.0, 1e6)),
     ("lower_bi4", lambda: lower_bi4(0.5, 0.0, 1e6)),
     ("upper_bi7", lambda: upper_bi7(0.5, 0.0, 0.5, 1e6)),
     ("corollary_middle", lambda: corollary_middle(1.0, 1e6))],
    ids=["bi1-1e6", "bi4-1e6", "bi7-1e6", "corollary-middle-1e6"],
)
def test_bound_overflow_decided_before_summing(monkeypatch, name, call):
    # the offset (1-gamma)x - k >= 5e5 is past unscale's clamp, so no
    # nonzero value survives; the x/2 = 5e5-term series is never summed
    d_constant(0.0, 0.5)
    summed = count_calls(monkeypatch, bounds_mod, "_power_series")
    with pytest.raises(OverflowError, match=f"^{name} overflows binary64$"):
        call()
    assert summed == []


def test_closed_form_overflow_decided_before_summing(monkeypatch):
    # the offset x - k = 1e6 is past unscale's clamp, as for the bounds and
    # corollary_middle; the x/2-term series is never summed
    summed = count_calls(monkeypatch, integrals_mod, "_series")
    with pytest.raises(OverflowError, match="^integral_closed_form overflows binary64$"):
        integral_closed_form(0.0, 1e6)
    assert summed == []


@pytest.mark.parametrize("nu,x", [(150.0, 700.0), (120.0, 400.0), (300.0, 700.0),
                                  (250.0, 600.0)])
def test_corollary_brackets_where_plain_power_overflows(nu, x):
    lower, upper = corollary_bounds(nu, x)
    assert lower < corollary_middle(nu, x) < upper


@pytest.mark.parametrize(
    "call",
    [lambda: lower_bi1(-1.4, 709.5), lambda: lower_bi5(0.5, -1.4, 1418.0)],
    ids=["bi1-709.5", "bi5-1418"],
)
def test_bound_beyond_binary64_below_exp_limit_overflows(call):
    # exp((1-gamma)x) is still finite here, but x^(-nu) = x^1.4 carries
    # the quotient to about 2e310, past the largest double
    with pytest.raises(OverflowError):
        call()


@pytest.mark.parametrize(
    "name,call",
    [
        ("integral_closed_form", lambda: integral_closed_form(0.0, 716.0)),
        ("corollary_middle", lambda: corollary_middle(1.0, 716.0)),
    ],
    ids=["closed-form", "corollary-middle"],
)
def test_closed_form_product_beyond_binary64_overflows(name, call):
    # the 2F3 series is finite at x = 716 but the closed form, about
    # exp(711.8), is not
    with pytest.raises(OverflowError, match=f"^{name} overflows binary64$"):
        call()


@pytest.mark.parametrize(
    "message,call",
    [
        ("integral_closed_form", lambda: integral_closed_form(0.0, 1000.0)),
        ("integral_closed_form", lambda: integral_closed_form(0.0, 1416.0)),
        ("corollary_middle", lambda: corollary_middle(1.0, 1416.0)),
    ],
    ids=["closed-form-1000", "closed-form-1416", "corollary-middle-1416"],
)
def test_closed_form_series_beyond_binary64_overflows(message, call):
    # there the 2F3 series itself passes DBL_MAX; its term cap follows
    # from x = 2 sqrt(z), so it gets that far instead of stopping at 600.
    # Both sum it in offset form, where only the product overflows.
    with pytest.raises(OverflowError, match=f"^{message} overflows binary64$"):
        call()


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
    with pytest.raises(DomainError):
        corollary_middle(1.0, 0.0)


# ---------------------------------------------------------------------------
# bound report


def test_report_damped_case():
    report = bound_report(IntegralSpec(0.5, 0.0, 0.0, 1.0))
    assert rel_err(report.integral, DAMPED_HALF_0_0_1) < 1e-10
    assert set(report.applicable_bounds) == {"bi4", "bi5", "bi7", "bi8"}
    assert rel_err(report.applicable_bounds["bi4"], 0.1784593045043934) < 1e-12
    assert report.skipped["bi1"].startswith("bounds the undamped")


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
    assert "requires nu > -(n+1)/2" in report.skipped["bi7"]
    assert "requires nu > -(n+1)/2" in report.skipped["bi8"]


@pytest.mark.parametrize("nu,n", [(0.0, 30.0), (-0.4, 8.0)])
def test_report_skips_b7_b8_where_the_d_scan_fails(nu, n):
    # the ratio's largest grid value is at the right edge, so D has no
    # interior maximum: the report skips bi7 and bi8 with the scan's
    # message, while the bounds themselves keep raising
    with pytest.raises(DSolverError) as info:
        upper_bi7(0.5, nu, n, 1.0)
    report = bound_report(IntegralSpec(0.5, nu, n, 1.0))
    assert report.applicable_bounds == {}
    assert report.skipped["bi7"] == report.skipped["bi8"] == str(info.value)
    assert "right edge" in report.skipped["bi7"]
    with pytest.raises(DSolverError):
        upper_bi8(0.5, nu, n, 1.0)


def test_report_skips_b2_b3_below_boundary():
    # nu < -(n+1)/2 removes bi2/bi3 (and D) but keeps the report alive
    report = bound_report(IntegralSpec(0.0, -0.7, 0.0, 1.0))
    assert "bi2" in report.skipped and "bi3" in report.skipped
    assert "bi1" in report.applicable_bounds


def test_report_general_n_damped():
    report = bound_report(IntegralSpec(0.25, 1.0, 0.5, 2.0))
    assert "bi4" in report.skipped  # n = 0 only
    assert "bi7" in report.applicable_bounds or "bi7" in report.skipped

