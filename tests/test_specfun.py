"""Tests for the scalar special functions.

Expected values come from independent oracles: the stdlib math module,
brute-force partial summation written out here, closed forms, and
mpmath/scipy where available.
"""

import math
import random
import time

import mpmath
import pytest
from scipy.special import modstruve

import struveint.integrals as integrals_mod
import struveint.specfun as specfun_mod
from conftest import count_calls, log_grid, rel_err
from struveint.bounds import (
    corollary_bounds,
    corollary_middle,
    lower_bi2,
    lower_bi4,
    lower_bi5,
    upper_bi3,
    upper_bi7,
    upper_bi8,
)
from struveint.exceptions import ConvergenceError, DomainError
from struveint.integrals import IntegralSpec, integral_closed_form, integral_power_series
from struveint.specfun import (
    SQRT_PI,
    gamma_fn,
    log_gamma,
    pfq,
    struve_l,
    struve_l_scaled,
    struve_l_weighted,
    unscale,
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
# lower incomplete gamma, in the Kummer form of the oracle's weights


def kummer_weight(s: float, z: float) -> float:
    # w(s) = s z^-s e^z gamma_low(s, z), carried down by the oracle
    return math.exp(integrals_mod._kummer_weights(s, z, 0)[0])


@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 3.0, 10.0])
def test_incgamma_s1_closed_form(z):
    # gamma_low(1, z) = 1 - e^-z, so w(1) = (e^z - 1) / z
    assert rel_err(kummer_weight(1.0, z), math.expm1(z) / z) < 1e-13


def test_incgamma_2_1_by_parts():
    # integral of t e^-t over (0, 1) = 1 - 2/e by parts, so w(2) = 2 (e - 2) at z = 1
    assert rel_err(kummer_weight(2.0, 1.0), 2.0 * (math.e - 2.0)) < 1e-13


@pytest.mark.parametrize("s", [0.3, 1.0, 2.5, 7.0, 20.0, 80.0])
@pytest.mark.parametrize("z", [0.05, 1.0, 4.0, 18.0, 60.0])
def test_incgamma_matches_mpmath(s, z):
    want = float(s * mpmath.mpf(z) ** -s * mpmath.exp(z) * mpmath.gammainc(s, 0, z))
    assert rel_err(kummer_weight(s, z), want) < 1e-13


def test_incgamma_series_non_convergence_raises(monkeypatch):
    # lower_bi4 sums gamma_low(2, u) as a series below u = 1 only; cut to
    # two terms, that series names lower_bi4, and past u = 1 the closed
    # form leaves the cut to the undamped integral's series
    monkeypatch.setattr(specfun_mod, "_SERIES_CAP", 2)
    with pytest.raises(ConvergenceError, match="lower_bi4"):
        lower_bi4(0.5, 0.0, 1.9)
    with pytest.raises(ConvergenceError, match="integral_power_series"):
        lower_bi4(0.5, 0.0, 2.0)


def test_incgamma_domain():
    # u = gamma x of lower_bi4's gamma_low(2, u) must be positive
    with pytest.raises(DomainError):
        lower_bi4(0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        lower_bi4(0.5, 0.0, -0.1)


# ---------------------------------------------------------------------------
# pFq


def test_pfq_at_zero_is_one():
    out = pfq([1.0, 2.0], [3.0, 4.0, 5.0], 0.0)
    assert out.value == 1.0


def test_pfq_0f0_is_exp():
    assert rel_err(pfq([], [], 1.0).value, math.e) < 1e-14


def test_pfq_2f3_matches_brute_force():
    want = pfq_brute([1.0, 1.0], [1.5, 2.0, 1.5], 0.25)
    got = pfq([1.0, 1.0], [1.5, 2.0, 1.5], 0.25)
    assert rel_err(got.value, want) < 1e-14
    # independently pinned: direct partial summation gives 1.0570599382...
    assert rel_err(got.value, 1.0570599382821575) < 1e-13


def test_pfq_denominator_validation():
    with pytest.raises(DomainError):
        pfq([1.0], [0.0, 2.0], 0.5)
    with pytest.raises(DomainError):
        pfq([1.0], [-3.0, 2.0], 0.5)
    # so are negative non-integer ones: pfq sums terms >= 0 only
    with pytest.raises(DomainError, match="terms >= 0 only"):
        pfq([1.0], [-0.5], 0.1)


def test_pfq_p_eq_q_plus_one_radius():
    with pytest.raises(DomainError):
        pfq([1.0, 2.0], [3.0], 1.0)
    with pytest.raises(DomainError):
        pfq([1.0, 2.0, 3.0], [4.0], 0.5)  # p > q+1 never converges
    pfq([1.0, 2.0], [3.0], 0.5)


def test_pfq_non_convergence_error(monkeypatch):
    monkeypatch.setattr(specfun_mod, "_SERIES_CAP", 5)
    with pytest.raises(ConvergenceError):
        pfq([1.0, 1.0], [1.5, 2.0, 1.5], 100.0)


def test_pfq_series_eval_invariants():
    out = pfq([1.0, 1.0], [1.5, 2.0, 1.5], 4.0)
    assert out.terms_used <= 600
    assert out.abs_error_estimate <= 1e-12 * abs(out.value)


# ---------------------------------------------------------------------------
# modified Struve function


def test_struve_at_zero():
    out = struve_l(0.7, 0.0)
    assert out.value == 0.0


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
        struve_l(0.0, 720.0)


@pytest.mark.parametrize("x", [701.0, 705.0])
def test_struve_past_700_matches_mpmath(x):
    # L_0(705) = 2.26e304 is still a double; the plain series returns it
    want = mpmath.struvel(0, x)
    assert float(abs((struve_l(0.0, x).value - want) / want)) < 1e-13


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: struve_l(0.0, 720.0), "struve_l"),
        (lambda: struve_l_weighted(0.0, 720.0, 1.0, 0.0, 0.0), "struve_l_weighted"),
        (lambda: pfq([1.0, 1.0], [1.5, 2.0, 1.5], 0.25 * 730.0**2), "pFq series"),
        (lambda: integral_power_series(0.0, 0.5, 720.0), "integral_power_series"),
    ],
    ids=["struve_l", "struve_l_weighted", "pfq", "integral_power_series"],
)
def test_overflow_names_the_series(call, name):
    # each value is beyond the largest double: L_0(720) is about exp(715.8)
    with pytest.raises(OverflowError, match=f"^{name} overflows binary64$"):
        call()


@pytest.mark.parametrize(
    "scaled,offset",
    [(0.75, 0.0), (0.3, 1e-300), (2.5e-3, 30.5), (1e-5, 720.0), (-0.2, 709.9),
     (1e-300, 1400.0), (7e3, 697.25)],
)
def test_unscale_matches_mpmath(scaled, offset):
    # within two units of exp(offset) * scaled, also where exp(offset)
    # alone is not a double
    want = mpmath.exp(offset) * scaled
    assert float(abs(unscale(scaled, offset, "q") - want) / abs(want)) < 4e-16


@pytest.mark.parametrize("scaled,offset", [(1e-4, 721.0), (1e-300, 1455.0), (5e-324, 1e301)])
def test_unscale_names_its_overflow(scaled, offset):
    # 1e-4 exp(721) is 1.3e309, past the largest double; past offset 1455
    # any nonzero product is
    with pytest.raises(OverflowError, match="^upper_bi3 overflows binary64$"):
        unscale(scaled, offset, "upper_bi3")
    assert unscale(0.0, offset, "upper_bi3") == 0.0


def test_struve_series_metadata():
    out = struve_l(0.0, 1.0)
    assert out.terms_used <= 600
    assert out.abs_error_estimate <= 1e-12 * out.value


def struve_estimate_holds(nu: float, x: float) -> bool:
    out = struve_l(nu, x)
    return abs(mpmath.mpf(out.value) - mpmath.struvel(nu, x)) <= out.abs_error_estimate


def test_struve_estimate_counts_the_first_term_exponent():
    # log t_0 is about -33 here: its rounding, 33 eps = 7e-15 relative,
    # outweighs the one unit of rounding per term (6 terms)
    assert struve_estimate_holds(5.0, 0.0209)


@pytest.mark.parametrize("nu", [-1.4, -0.5, 0.0, 1.0, 2.5, 5.0, 10.0])
def test_struve_estimate_holds_at_small_x(nu):
    # Below 3e-308 L_nu(x) is subnormal (or 0) for nu >= 0.  x/2 rounds at
    # 5e-324, so the first term's log is log(x) - ln 2 (log(x/2) was
    # log(0), a raw ValueError); the final ldexp rounds to a subnormal
    # unit, which the estimate carries (L_0(5e-324) = 3.2e-324 comes out
    # as 5e-324, and L_0(1e-320) claimed an estimate of 0)
    xs = log_grid(1e-4, 1.0, 13) + [5e-324, 1e-320, 3e-308]
    assert all(struve_estimate_holds(nu, x) for x in xs)


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


def test_weighted_matches_mpmath_on_a_seeded_sample():
    # x^power exp(w - x) L_mu(x) as the bounds and the quadrature use it:
    # w = (1-gamma)x, power = -nu, x log-uniform up to 700/(1-gamma).
    # The reference takes the same float w, so only the routine's own
    # error is measured.
    rng = random.Random("struve_l_weighted")
    start = time.perf_counter()
    for _ in range(200):
        gamma = rng.uniform(0.0, 0.9)
        mu = rng.uniform(-1.4, 5.0)
        power = -rng.uniform(-1.4, min(mu + 1.0, 3.0))
        x = math.exp(rng.uniform(math.log(1e-3), math.log(700.0 / (1.0 - gamma))))
        w = (1.0 - gamma) * x
        got = struve_l_weighted(mu, x, power, w, x).value
        mx = mpmath.mpf(x)
        want = mx**power * mpmath.exp(mpmath.mpf(w) - mx) * mpmath.struvel(mu, mx)
        assert float(abs((got - want) / want)) <= 2e-13, (gamma, mu, power, x)
    assert time.perf_counter() - start <= 2.0


def _route_cases():
    # (mu, x, power, log_weight, offset): a seeded sample of the three
    # forms the package uses (scaled; the quadrature integrand
    # exp((1-gamma)t - offset - t) t^-nu L_mu(t); a bound's Struve
    # factor), then the edges: half-integer mu, mu + 1/2 in (-1, 0),
    # either side of x = 30, and plain L_0 just below the binary64 limit
    # (test_overflow_names_the_series has L_0(720) beyond it).
    rng = random.Random("struve_l large-x route")
    cases = []
    for i in range(90):
        mu = rng.uniform(-1.499, 10.0)
        x = math.exp(rng.uniform(math.log(30.0), math.log(1e4)))
        gamma = rng.uniform(0.0, 0.9)
        nu = rng.uniform(-1.4, min(mu + 1.0, 3.5))
        if i % 3 == 0:
            cases.append((mu, x, 0.0, 0.0, x))
        elif i % 3 == 1:
            # node t = x of a quadrature whose offset (1-gamma) x_upper
            # exceeds (1-gamma) t by up to 600
            offset = (1.0 - gamma) * x + rng.uniform(0.0, 600.0)
            cases.append((mu, x, -nu, (1.0 - gamma) * x - offset, x))
        else:
            x = min(x, 700.0 / (1.0 - gamma))
            cases.append((mu, x, -nu, (1.0 - gamma) * x, x))
    for mu in (-0.5, 0.5, 1.5, 2.5, 5.5, 9.5, -1.4, -1.0, -0.7):
        cases += [(mu, x, 0.0, 0.0, x) for x in (31.0, 300.0, 5000.0)]
    for x in (29.9, 30.0, math.nextafter(30.0, 31.0), 30.1):
        cases += [(mu, x, 0.0, 0.0, x) for mu in (-1.2, 0.0, 2.5, 7.0)]
    return cases + [(0.0, 701.0, 0.0, 0.0, 0.0), (0.0, 705.0, 0.0, 0.0, 0.0)]


def test_large_x_route_matches_mpmath(monkeypatch):
    start = time.perf_counter()
    route_fn = specfun_mod._struve_asymptotic
    tried = count_calls(monkeypatch, specfun_mod, "_struve_asymptotic")
    taken = 0
    for mu, x, power, log_weight, offset in _route_cases():
        got = struve_l_weighted(mu, x, power, log_weight, offset)
        assert bool(tried) == (x > 30.0)
        tried.clear()
        route = route_fn(mu, x, power, log_weight, offset, "")
        if x > 30.0 and route is not None:
            assert route == got
            taken += 1
        mx = mpmath.mpf(x)
        want = mx**power * mpmath.exp(mpmath.mpf(log_weight) - offset) * mpmath.struvel(mu, mx)
        err = float(abs(got.value - want))
        case = (mu, x, power, log_weight, offset)
        assert err <= 1e-14 * float(want), case
        assert err <= got.abs_error_estimate, case
    assert taken >= 110
    assert time.perf_counter() - start <= 2.0


@pytest.mark.parametrize("nu,x", [(5.0, 7500.0), (-1.2, 1e4), (10.0, 5000.0)])
def test_scaled_matches_mpmath_far_out(nu, x):
    want = mpmath.struvel(nu, x) * mpmath.exp(-x)
    assert float(abs((struve_l_scaled(nu, x).value - want) / want)) <= 2e-12


# (mu, x, power, log_weight, offset): (value, estimate, terms_used), recorded
# from the one-argument sum_series path that the shared series pass replaced.
# (1, 300), (-0.5, 45), (10, 1e4) and (0, 705) take the large-x expansion,
# (20, 35) is past x = 30 where it declines, and past x = 500 the term cap
# grows with x (797 terms at x = 2000).  mu = 0.7071, -1.2345 and 2.718281828
# make k + mu + 3/2 round, so the order of that sum is pinned too.
WEIGHTED_PINS = {
    (0.0, 1.0, 0.0, 0.0, 0.0):
        ("0x1.6ba4feaf9ec43p-1", "0x1.3a81564fb209ap-49", 11),
    (0.0, 25.0, 0.0, 0.0, 0.0):
        ("0x1.5830cd5e70d8dp+32", "0x1.095fc546449b4p-14", 40),
    (5.0, 0.0209, 0.0, 0.0, 0.0):
        ("0x1.6fce27453ec13p-48", "0x1.307eef00b6ed4p-93", 6),
    (-1.4, 0.3, 0.0, 0.0, 0.0):
        ("0x1.2aa27e51862f4p-2", "0x1.285e03353ec0dp-50", 9),
    (-1.4999999, 2.0, 1.4999999, 0.0, 0.0):
        ("0x1.8e0d451d779a6p+1", "0x1.82d2941dc8140p-45", 14),
    (0.5, 1e-150, -0.5, 0.0, 0.0):
        ("0x1.4e4f1043a395ap-500", "0x1.c55316a59b95fp-542", 3),
    (3.0, 7.5, -3.0, -2.25, 7.5):
        ("0x1.44397577a2dd3p-16", "0x1.0d162ac66e533p-62", 20),
    (1.5, 10.0, -0.5, -3.2, 10.0):
        ("0x1.7f793a13a6508p-10", "0x1.00782d47f7496p-56", 24),
    (2.5, 0.001, 2.0, 1.0, 0.0):
        ("0x1.a5ba83f185084p-60", "0x1.ae00048689a2ep-105", 5),
    (0.7071, 3.3, -0.4142, -1.1, 3.3):
        ("0x1.3dba6e830b651p-5", "0x1.bb2b494e48ff2p-53", 15),
    (-1.2345, 17.0, 1.2345, 0.0, 17.0):
        ("0x1.89a62abf40903p+1", "0x1.5ab5a5d395e47p-45", 33),
    (2.718281828, 29.5, 0.0, 0.0, 29.5):
        ("0x1.0a0700989b5cdp-4", "0x1.645872dee1ed9p-50", 43),
    (0.0, 30.0, 0.0, 0.0, 30.0):
        ("0x1.2b9b157f9e613p-4", "0x1.71ab9317fb2d4p-50", 45),
    (1.0, 300.0, 0.0, 0.0, 300.0):
        ("0x1.78e647f58372cp-6", "0x1.5cd550d77ecc3p-54", 8),
    (20.0, 35.0, -19.0, 0.0, 35.0):
        ("0x1.6dd5e94777ebep-110", "0x1.f59b5994a54dcp-154", 41),
    (-0.5, 45.0, 0.5, -4.5, 45.0):
        ("0x1.227213fd77689p-8", "0x1.17eaaf3cf6876p-57", 1),
    (10.0, 10000.0, 0.0, 0.0, 10000.0):
        ("0x1.042666f6a08e5p-8", "0x1.1a8efdc9f6bbbp-56", 7),
    (0.0, 705.0, 0.0, 0.0, 0.0):
        ("0x1.07e2dd0d913a3p+1011", "0x1.e199380667f69p+962", 7),
    (400.0, 600.0, -50.0, 0.0, 600.0):
        ("0x1.5eb1319ea1cafp-654", "0x1.daadbff6598f7p-694", 260),
    (400.0, 600.0, 0.0, 0.0, 600.0):
        ("0x1.dc0f0c34360b2p-193", "0x1.2b6989efd9e73p-232", 260),
    (1000.0, 2000.0, 0.0, 0.0, 2000.0):
        ("0x1.5c0acc6914fdep-361", "0x1.4c00d2cdcf42bp-399", 797),
    (150.0, 520.0, -20.0, 10.0, 400.0):
        ("0x1.2d9f2ed6edcb6p-30", "0x1.4dfef0e811516p-71", 294),
    (0.0, 5e-324, 0.0, 0.0, 0.0):
        ("0x0.0000000000001p-1022", "0x0.0000000000001p-1022", 3),
}


@pytest.mark.parametrize("args", list(WEIGHTED_PINS), ids=str)
def test_weighted_values_are_pinned(args):
    got = struve_l_weighted(*args)
    assert (got.value.hex(), got.abs_error_estimate.hex(), got.terms_used) == \
        WEIGHTED_PINS[args]


@pytest.mark.parametrize("args", list(WEIGHTED_PINS), ids=str)
def test_weighted_pins_hold_against_mpmath(args):
    # each pinned value lies within its own pinned estimate of 50 digits
    value, estimate = (float.fromhex(h) for h in WEIGHTED_PINS[args][:2])
    mu, x, power, log_weight, offset = args
    with mpmath.workdps(50):
        mx = mpmath.mpf(x)
        want = mx**power * mpmath.exp(mpmath.mpf(log_weight) - offset) * mpmath.struvel(mu, mx)
        assert abs(value - want) <= estimate


@pytest.mark.parametrize("mu,x,power", [(400.0, 600.0, 0.0), (800.0, 1000.0, 0.0),
                                        (100.0, 150.0, 0.0), (400.0, 600.0, -50.0)])
def test_high_order_series_counts_its_first_term_rounding(mu, x, power):
    # log t_0 sums parts near 2,000 that round on their own; the estimate
    # once counted only |log t_0| and |log t_0 - x|, near 0 here
    got = struve_l_weighted(mu, x, power, 0.0, x)
    with mpmath.workdps(50):
        want = mpmath.mpf(x)**power * mpmath.exp(-x) * mpmath.struvel(mu, x)
        assert abs(got.value - want) <= got.abs_error_estimate


@pytest.mark.parametrize(
    "args,name",
    [((0.0, 720.0, 0.0, 0.0, 0.0), "struve_l"),
     ((400.0, 600.0, 300.0, 0.0, 0.0), "struve_l_weighted")],
    ids=["asymptotic", "series"],
)
def test_weighted_overflow_text_is_pinned(args, name):
    with pytest.raises(OverflowError) as info:
        struve_l_weighted(*args)
    assert str(info.value) == f"{name} overflows binary64"


def test_series_pass_equals_one_argument_calls():
    # one pass over many arguments of one order gives each argument's
    # one-argument value, estimate and term count, bit for bit
    rng = random.Random("struve series pass")
    for _ in range(60):
        mu = rng.choice([-1.5 + 1e-9, rng.uniform(-1.49, 0.0), rng.uniform(0.0, 40.0)])
        power = rng.choice([0.0, -rng.uniform(-1.4, 3.0)])
        xs = [rng.choice([rng.uniform(0.0, 30.0), math.exp(rng.uniform(-300.0, 3.4))])
              for _ in range(rng.randint(1, 15))]
        weights = [rng.choice([0.0, rng.uniform(-40.0, 20.0)]) for _ in xs]
        offsets = [rng.choice([0.0, x]) for x in xs]
        values = specfun_mod._struve_series(mu, power, xs, weights, offsets,
                                            "struve_l_weighted", True)
        for x, w, off, got in zip(xs, weights, offsets, values, strict=True):
            want = struve_l_weighted(mu, x, power, w, off)
            assert (got.value.hex(), got.abs_error_estimate.hex(), got.terms_used) == (
                want.value.hex(), want.abs_error_estimate.hex(), want.terms_used)


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
        lambda: lower_bi4(math.nan, 0.0, 1.0),
        lambda: lower_bi4(0.5, 0.0, math.inf),
        lambda: pfq([1.0], [2.0], math.nan),
        lambda: pfq([math.nan], [2.0], 1.0),
        lambda: lower_bi2(0.0, 0.0, math.inf),
        lambda: upper_bi3(0.0, 0.0, math.nan),
        lambda: lower_bi5(0.5, 0.0, math.nan),
        lambda: upper_bi7(0.1, 0.0, 0.0, math.inf),
        lambda: upper_bi8(0.1, 0.0, 0.0, math.nan),
        lambda: corollary_bounds(2.0, math.nan),
        lambda: corollary_bounds(math.inf, 1.0),
        lambda: corollary_middle(2.0, math.nan),
        lambda: corollary_middle(2.0, math.inf),
        lambda: integral_closed_form(0.0, math.nan),
        lambda: integral_closed_form(0.0, math.inf),
    ],
    ids=[
        "gamma_fn-nan",
        "log_gamma-nan",
        "struve_l-nan-order",
        "struve_l-nan-x",
        "struve_l_scaled-inf-x",
        "struve_l_scaled-nan-x",
        "IntegralSpec-inf-x",
        "bi4-nan-gamma",
        "bi4-inf-x",
        "pfq-nan-z",
        "pfq-nan-parameter",
        "bi2-inf-x",
        "bi3-nan-x",
        "bi5-nan-x",
        "bi7-inf-x",
        "bi8-nan-x",
        "corollary_bounds-nan-x",
        "corollary_bounds-inf-order",
        "corollary_middle-nan-x",
        "corollary_middle-inf-x",
        "integral_closed_form-nan-x",
        "integral_closed_form-inf-x",
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
# term cap


def test_plain_and_scaled_struve_share_the_cap_rule():
    # Past x = 30 both forms take the cap from x the same way; at nu = 10,
    # x = 35 the large-x expansion is turned away and the series runs.
    plain = struve_l(10.0, 35.0)
    scaled = struve_l_scaled(10.0, 35.0)
    assert rel_err(plain.value, math.exp(35.0) * scaled.value) <= 1e-14
    assert plain.terms_used == scaled.terms_used == 44
