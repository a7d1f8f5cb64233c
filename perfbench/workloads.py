"""Seeded inputs for the three benchmark workloads.

One seed always yields the same inputs: every stream comes from a
``random.Random`` seeded with a string naming the workload and the seed,
and ops are drawn strictly in order, so op ``i`` does not depend on how
many ops a run completes.

The point workloads draw each op kind's parameters jointly from a
low-discrepancy sequence shifted by the seed, so that every prefix of
the stream covers the parameter space evenly.  A short run then sees
nearly the same mix of cheap and costly inputs as a long one; with
plain random draws a few extreme point-hard integrals (1.8 s each) move
a run's mean and 90th percentile by several percent.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify-cli", "point-small", "point-hard")

#: The default verify grid (``GridConfig()``), fixed here so that the
#: workloads do not move if the package's defaults change.
DEFAULT_NU = (-0.4, 0.0, 1.0, 3.0)
DEFAULT_N = (0.0, 0.5, 2.0)
DEFAULT_GAMMA = (0.0, 0.25, 0.5, 0.9)
DEFAULT_X = (0.5, 1.0, 5.0, 20.0)
DEFAULT_PAIRS = tuple((nu, n) for nu in DEFAULT_NU for n in DEFAULT_N)

#: Ranges of the default grid, from which the seeded verify grids and
#: the point-hard integrals draw their parameters.
NU_RANGE = (-0.45, 3.5)
N_RANGE = (0.0, 2.5)
DAMPED_GAMMA_RANGE = (0.05, 0.95)
VERIFY_X_RANGE = (0.3, 25.0)

#: Seeded grids per verify-cli run, besides the default grid.
VERIFY_SEEDED_GRIDS = 2

POINT_SMALL_X = (0.01, 30.0)
POINT_SMALL_KINDS = ("struve_l", "quadrature", "series", "bound_report")

#: point-hard mix per block of 20 ops: 40% scaled Struve at large x,
#: 35% large-x quadrature, 15% quadrature with n near -1, 10% log form.
POINT_HARD_BLOCK = (
    ("struve_l_scaled",) * 8
    + ("quadrature",) * 7
    + ("quadrature_n_to_m1",) * 3
    + ("log_quadrature",) * 2
)
HARD_SCALED_X = (30.0, 1e4)
HARD_SCALED_NU = (-1.4, 10.0)
HARD_QUAD_X_LO = 30.0
#: (1 - gamma) x stays below this, so the integral fits in binary64.
HARD_QUAD_OFFSET_MAX = 700.0
HARD_NEAR_M1_N = (-1.0, -0.9)
HARD_NEAR_M1_X = (0.01, 30.0)
HARD_LOG_X = (700.0, 2000.0)


def lowdisc(rng: random.Random, dims: int):
    """Endless points of the R_d sequence (Roberts, 2018) in [0, 1)^dims,
    shifted by a random offset."""
    phi = 2.0
    for _ in range(50):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = [phi ** -(j + 1) for j in range(dims)]
    shift = [rng.random() for _ in range(dims)]
    i = 0
    while True:
        i += 1
        yield [(s + i * a) % 1.0 for s, a in zip(shift, alpha)]


def span(u: float, lo: float, hi: float, log: bool = False) -> float:
    if log:
        return lo * (hi / lo) ** u
    return lo + (hi - lo) * u


def damping(u: float) -> float:
    """0 for a quarter of the draws (as in the default grid, which has
    one undamped value in four), else uniform on DAMPED_GAMMA_RANGE."""
    return 0.0 if u < 0.25 else span((u - 0.25) / 0.75, *DAMPED_GAMMA_RANGE)


def pair(u: float) -> tuple[float, float]:
    """One of the default grid's (nu, n) pairs."""
    return DEFAULT_PAIRS[int(u * len(DEFAULT_PAIRS))]


def verify_grids(seed: int) -> list[dict]:
    """Seeded grid configs: the default grid with every value moved by a
    seed-drawn amount that stays inside NU_RANGE, N_RANGE, the damping
    range and VERIFY_X_RANGE.  Entries that are 0 in the default grid
    stay 0, so the closed-form and n = 0 bound checks keep their points.

    The moves are kept small (x by up to 15%, the others by up to 0.1)
    so that every config costs about as much as the default grid: a
    verify takes about 2 s, a run holds about ten of them, and freely
    drawn grids differ in cost by 10% (coefficient of variation), which
    would dominate the run-to-run spread of op_p50_ms and op_p90_ms.
    """
    rng = random.Random(f"verify-cli:{seed}")

    def moved(values, step, lo, hi, log=False):
        out = []
        for v in values:
            if v == 0.0 and lo <= 0.0:
                out.append(0.0)
            elif log:
                out.append(min(hi, max(lo, v * math.exp(rng.uniform(-step, step)))))
            else:
                out.append(min(hi, max(lo, v + rng.uniform(-step, step))))
        return out

    return [
        {
            "nu_values": moved(DEFAULT_NU, 0.1, *NU_RANGE),
            "n_values": moved(DEFAULT_N, 0.1, *N_RANGE),
            "gamma_values": moved(DEFAULT_GAMMA, 0.05, 0.0, DAMPED_GAMMA_RANGE[1]),
            "x_values": moved(DEFAULT_X, 0.15, *VERIFY_X_RANGE, log=True),
        }
        for _ in range(VERIFY_SEEDED_GRIDS)
    ]


def point_small_ops(seed: int):
    """Endless ops ``(kind, args)`` cycling through POINT_SMALL_KINDS.

    ``struve_l`` args are ``(order, x)`` with order ``nu + n``; the
    integral kinds take ``(gamma, nu, n, x)``.
    """
    rng = random.Random(f"point-small:{seed}")
    draws = {k: lowdisc(rng, 3) for k in POINT_SMALL_KINDS}
    while True:
        for kind in POINT_SMALL_KINDS:
            u_pair, u_gamma, u_x = next(draws[kind])
            nu, n = pair(u_pair)
            x = span(u_x, *POINT_SMALL_X, log=True)
            if kind == "struve_l":
                yield kind, (nu + n, x)
            else:
                yield kind, (damping(u_gamma), nu, n, x)


def point_hard_ops(seed: int):
    """Endless ops ``(kind, args)``: each block of 20 holds the
    POINT_HARD_BLOCK mix in shuffled order.  ``struve_l_scaled`` args
    are ``(nu, x)``; the rest take ``(gamma, nu, n, x)``."""
    rng = random.Random(f"point-hard:{seed}")
    draws = {k: lowdisc(rng, 4) for k in sorted(set(POINT_HARD_BLOCK))}
    while True:
        block = list(POINT_HARD_BLOCK)
        rng.shuffle(block)
        for kind in block:
            u_gamma, u_nu, u_n, u_x = next(draws[kind])
            if kind == "struve_l_scaled":
                # (lo, hi]: the order stays above -3/2 with margin.
                lo, hi = HARD_SCALED_NU
                yield kind, (span(1.0 - u_nu, lo, hi), span(u_x, *HARD_SCALED_X, log=True))
                continue
            gamma, nu, n = damping(u_gamma), span(u_nu, *NU_RANGE), span(u_n, *N_RANGE)
            if kind == "quadrature":
                x_max = HARD_QUAD_OFFSET_MAX / (1.0 - gamma)
                yield kind, (gamma, nu, n, span(u_x, HARD_QUAD_X_LO, x_max, log=True))
            elif kind == "quadrature_n_to_m1":
                lo, hi = HARD_NEAR_M1_N
                n = span(1.0 - u_n, lo, hi)
                yield "quadrature", (gamma, nu, n, span(u_x, *HARD_NEAR_M1_X, log=True))
            else:
                yield kind, (gamma, nu, n, span(u_x, *HARD_LOG_X))


def point_ops(workload: str, seed: int):
    if workload == "point-small":
        return point_small_ops(seed)
    if workload == "point-hard":
        return point_hard_ops(seed)
    raise ValueError(f"no op stream for workload {workload!r}")
