"""Property tests of the integral entry points over their whole domain.

Derandomized hypothesis draws nu in (-3/2, 300], n in (-1, 2.5],
gamma in [0, 0.999] and x log-uniform in [1e-3, 1e4]; no draw is
filtered out.
integral_quadrature, log_integral_quadrature and integral_closed_form
are judged against the 30-digit perfbench.reference.integral.  Each
call has one of three outcomes:

- where the true value is a normal double, a value within 1e-9 of it
  (for the log, within 1e-9 absolute);
- where the true value is below the smallest normal double, 0 (or a
  value below it);
- one of the exceptions the entry point documents.

Estimate honesty is not asserted for the integrals here
(tests/test_integrals.py covers it at large order).  It is for
struve_l_scaled, through the recurrence of DLMF 11.4(iv) over nu in
(-1/2, 30] and x log-uniform in [1e-3, 700]: its residual must lie
within the three values' weighted error estimates plus 16 eps times the
sum of the four terms' magnitudes.
"""

import math
import sys
from pathlib import Path

import mpmath
from hypothesis import HealthCheck, given, settings, strategies as st

from struveint.exceptions import DomainError, ToleranceNotMetError
from struveint.integrals import (
    IntegralSpec,
    integral_closed_form,
    integral_quadrature,
    log_integral_quadrature,
)
from struveint.specfun import struve_l_scaled

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.reference import integral as reference_integral  # noqa: E402

DBL_MIN = 2.0**-1022
EPS = math.ulp(1.0)
REL_TOL = 1e-9

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                    suppress_health_check=[HealthCheck.too_slow])

nus = st.floats(-1.5, 300.0, exclude_min=True)
ns = st.floats(-1.0, 2.5, exclude_min=True)
gammas = st.floats(0.0, 0.999)
xs = st.floats(-3.0, 4.0).map(lambda u: 10.0**u)


def _reference(gamma, nu, n, x):
    with mpmath.workdps(30):
        return reference_integral(gamma, nu, n, x)


def _judge(call, want) -> None:
    # a value within REL_TOL where want is a normal double, below DBL_MIN
    # where want is; OverflowError only past DBL_MAX, ToleranceNotMetError
    # where the offset form underflows or the budget runs out
    try:
        got = call()
    except OverflowError:
        assert want > sys.float_info.max
        return
    except ToleranceNotMetError:
        return
    with mpmath.workdps(30):
        if want < DBL_MIN:
            assert 0.0 <= got < DBL_MIN
        else:
            assert want <= sys.float_info.max
            assert abs(got - want) <= REL_TOL * want


@SETTINGS
@given(gamma=gammas, nu=nus, n=ns, x=xs)
def test_quadrature_over_the_domain(gamma, nu, n, x):
    try:
        spec = IntegralSpec(gamma, nu, n, x)
    except DomainError:
        assert not nu + n > -1.5  # the only draws outside the domain
        return
    want = _reference(gamma, nu, n, x)
    _judge(lambda: integral_quadrature(spec).value, want)
    try:
        got = log_integral_quadrature(spec)
    except ToleranceNotMetError:
        return
    with mpmath.workdps(30):
        assert abs(got - mpmath.log(want)) <= REL_TOL


@SETTINGS
@given(nu=nus, x=xs)
def test_closed_form_over_the_domain(nu, x):
    _judge(lambda: integral_closed_form(nu, x), _reference(0.0, nu, 0.0, x))


# -1/2 + eps is the least nu > -1/2 whose nu - 1 rounds above -3/2.
@settings(SETTINGS, max_examples=200)
@given(nu=st.floats(-0.5 + EPS, 30.0),
       x=st.floats(-3.0, math.log10(700.0)).map(lambda u: min(10.0**u, 700.0)))
def test_struve_recurrence_within_the_estimates(nu, x):
    # L_{nu-1} - L_{nu+1} = (2 nu/x) L_nu + (x/2)^nu / (sqrt(pi) Gamma(nu+3/2)),
    # every term times exp(-x)
    below, above, at = (struve_l_scaled(mu, x) for mu in (nu - 1.0, nu + 1.0, nu))
    w = 2.0 * nu / x
    head = (0.5 * x)**nu * math.exp(-x) / (math.sqrt(math.pi) * math.gamma(nu + 1.5))
    terms = (below.value, -above.value, -w * at.value, -head)
    allowance = (below.abs_error_estimate + above.abs_error_estimate
                 + abs(w) * at.abs_error_estimate + 16.0 * EPS * sum(map(abs, terms)))
    assert abs(math.fsum(terms)) <= allowance
