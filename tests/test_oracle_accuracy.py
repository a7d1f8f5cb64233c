"""The termwise series oracle against 30-digit references.

Derandomized specs over the verify ranges (gamma in [0.05, 0.95], nu in
[-0.45, 3.5], n in [0, 2.5]) with x log-uniform in [0.1, 300], plus spot
checks at large gamma x.  Each value must lie within its own error
estimate of the reference, and within 1e-14 relative of it for
x <= 31.6 and 5e-14 beyond.
"""

import math
import random
import sys
from pathlib import Path

import mpmath
import pytest

from struveint.integrals import IntegralSpec, integral_series_oracle

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.reference import integral as reference_integral  # noqa: E402

_RNG = random.Random(20261020)
SEEDED_SPECS = [
    (_RNG.uniform(0.05, 0.95), _RNG.uniform(-0.45, 3.5), _RNG.uniform(0.0, 2.5),
     10.0 ** _RNG.uniform(-1.0, math.log10(300.0)))
    for _ in range(64)
]

SPOT_SPECS = [
    # per-term incomplete gammas were off by 2.9e-13 relative here and claimed 8.7e-14
    (0.37774709557545416, 0.03522681151066992, 2.1223423162115376, 283.8824742381715),
    # and by 3.0e-13 and 6.2e-13, claiming 1.3e-13 and 3.9e-13
    (0.9, 0.0, 0.0, 800.0),
    (0.99, 0.0, 0.0, 3000.0),
]


def _errors(args):
    got = integral_series_oracle(IntegralSpec(*args))
    with mpmath.workdps(30):
        want = reference_integral(*args)
        return float(abs(got.value - want)), float(abs(want)), got.abs_error_estimate


@pytest.mark.parametrize("args", SEEDED_SPECS,
                         ids=lambda a: "g{:.3g}-nu{:.3g}-n{:.3g}-x{:.4g}".format(*a))
def test_oracle_matches_reference(args):
    err, size, estimate = _errors(args)
    assert err <= estimate
    assert err <= (1e-14 if args[3] <= 31.6 else 5e-14) * size


@pytest.mark.parametrize("args", SPOT_SPECS, ids=str)
def test_oracle_estimate_holds_at_large_gamma_x(args):
    err, _, estimate = _errors(args)
    assert err <= estimate
