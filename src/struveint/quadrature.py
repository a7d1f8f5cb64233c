"""Adaptive Gauss-Kronrod quadrature on finite intervals.

A 7-point Gauss rule embedded in a 15-point Kronrod rule drives a
worst-interval-first bisection loop that splits at powers of two, so
integrals over [0, x] for any x share their panels near 0.  Each call
owns its private workspace, so concurrent use is safe.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from .exceptions import ToleranceNotMetError

_EPS = 2.220446049250313e-16

# 15-point Kronrod abscissae (positive half) and weights; the Gauss-7
# nodes sit at indices 1, 3, 5 and the centre.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _gk15(f: Callable[[list], list], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel of f, nodes list -> values list: (integral, error)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = [center]
    for xgk in _XGK:
        dx = half * xgk
        # clamped: on a panel a few doubles wide the nodes round outside it
        nodes += (center - dx if center - dx > a else a, center + dx if center + dx < b else b)
    fc, *values = f(nodes)
    fv1, fv2 = values[0::2], values[1::2]
    resg = fc * _WG[3]
    resk = fc * _WGK[7]
    resabs = abs(resk)
    for j, (f1, f2) in enumerate(zip(fv1, fv2)):
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            resg += _WG[(j - 1) // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-290:
        err = max(err, 50.0 * _EPS * resabs)
    return result, err


def _split(lo: float, hi: float) -> float:
    """The largest power of two strictly inside (lo, hi), else the midpoint."""
    mantissa, exponent = math.frexp(hi)
    power = math.ldexp(1.0, exponent - (2 if mantissa == 0.5 else 1))
    return power if lo < power < hi else 0.5 * (lo + hi)


def adaptive_quadrature(
    panel: Callable[[float, float], tuple[float, float]],
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    max_subdivisions: int = 2000,
) -> tuple[float, float, int]:
    """Integrate over [a, b] to the requested tolerance from panel(lo, hi),
    one panel's (integral, error estimate): partial(_gk15, f) for f.

    Returns (value, error estimate, subdivisions performed).  Raises
    ToleranceNotMetError, carrying the best estimate, if the subdivision
    budget runs out first.
    """
    value, err = panel(a, b)
    # heap entries: (-error, tiebreak, a, b, value, error)
    heap = [(-err, 0, a, b, value, err)]
    total = value
    total_err = err
    count = 1
    subdivisions = 0
    while total_err > rel_tol * abs(total):
        if subdivisions >= max_subdivisions:
            raise ToleranceNotMetError(
                f"quadrature used {subdivisions} subdivisions without reaching "
                f"tolerance (estimate {total!r} +/- {total_err!r})",
                total,
                total_err,
                subdivisions,
            )
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = _split(lo, hi)
        if mid <= lo or mid >= hi:
            raise ToleranceNotMetError(
                "interval too narrow to split further "
                f"(estimate {total!r} +/- {total_err!r})",
                total,
                total_err,
                subdivisions,
            )
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total += v1 + v2 - v_old
        total_err += e1 + e2 - e_old
        count += 1
        heapq.heappush(heap, (-e1, count, lo, mid, v1, e1))
        count += 1
        heapq.heappush(heap, (-e2, count, mid, hi, v2, e2))
        subdivisions += 1
    return total, total_err, subdivisions
