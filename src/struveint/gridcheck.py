"""Grid verification of the integral inequalities.

Each check sweeps a parameter grid, evaluates the relevant bounds and
integrals by at least two independent routes where available, and scores
each point by a signed margin (nonnegative means it holds, with the
tolerance already folded in); one tracker counts the points and keeps
the first smallest margin with its witnessing parameters.

The product-grid checks (oracle agreement, inequality ordering,
monotonicity in x) read their grids from a GridConfig; the remaining
checks run on the fixed grids their statements prescribe.  Tolerances
are overridable through GridConfig.tolerances, except at x = 300, where
rate_margin derives the tolerance from x.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import namedtuple

from . import bounds as bounds_mod
from .exceptions import DomainError
from .integrals import (
    IntegralSpec,
    integral_closed_form,
    integral_power_series,
    integral_quadrature,
    integral_series_oracle,
    log_asymptotic_integral,
    log_integral_quadrature,
    quadrature_memo,
)
from .specfun import struve_l_scaled

DEFAULT_TOLERANCES: dict[str, float] = {
    "oracle_rel": 1e-9,
    "closed_form_rel": 1e-10,
    "ordering_slack_rel": 1e-12,
    "equality_rel": 1e-10,
    "tightness_small_x": 1e-3,
    "d_scan_slack": 5e-4,
}

#: Fixed grids for the checks whose statements pin their own parameters.
EQUALITY_N = (0.0, 1.0, 2.5)
EQUALITY_X = (0.5, 2.0, 10.0)
TIGHTNESS_X_LARGE = 300.0
TIGHTNESS_NU = (0.0, 1.0)
TIGHTNESS_GAMMA = 0.5
TIGHTNESS_X_SMALL = 1e-2
TIGHTNESS_SMALL_NU = (0.0, 1.0, 3.0)
TIGHTNESS_SMALL_N = (0.0, 1.0)
ASYMPTOTE_GAMMA = (0.0, 0.5)
D_CHECK_PAIRS = ((0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (5.0, 0.0), (10.0, 0.0))
D_SCAN_CHECK_POINTS = 400
IMON_NU = (0.5, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0)
IMON_X = (0.1, 0.5, 1.0, 5.0, 20.0, 50.0, 100.0, 300.0)
# At order exactly 1/2 the gap to the order below is sqrt(2/(pi x)),
# exponentially negligible against cosh x; past x ~ 25 it falls under
# binary64 resolution, so the half-integer row is sampled below that.
IMON_HALF_ORDER_MAX_X = 20.0


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# GridConfig's default grids, copied into each config that leaves one out.
_DEFAULT_GRIDS = ((-0.4, 0.0, 1.0, 3.0), (0.0, 0.5, 2.0), (0.0, 0.25, 0.5, 0.9),
                  (0.5, 1.0, 5.0, 20.0))
# Marks a GridConfig argument left out; an explicit None is rejected.
_OMITTED = object()


class GridConfig(namedtuple("GridConfig",
                            "nu_values n_values gamma_values x_values tolerances")):
    """Parameter lists for the product-grid checks plus tolerance
    overrides for all of them.

    Every construction path (the call, from_json, _make, _replace,
    pickle, copy) runs the checks; tolerances holds every tolerance,
    the overrides merged into DEFAULT_TOLERANCES."""

    __slots__ = ()

    def __new__(cls, nu_values=_OMITTED, n_values=_OMITTED, gamma_values=_OMITTED,
                x_values=_OMITTED, tolerances=_OMITTED):
        grids = []
        for name, values, default in zip(
                cls._fields, (nu_values, n_values, gamma_values, x_values), _DEFAULT_GRIDS):
            if values is _OMITTED:
                values = list(default)
            elif not (isinstance(values, list) and all(map(_is_real, values))):
                raise DomainError(f"{name} must be a list of real numbers")
            elif not values:
                raise DomainError(f"{name} must not be empty")
            grids.append(values)
        if tolerances is _OMITTED:
            tolerances = {}
        if not isinstance(tolerances, dict):
            raise DomainError("tolerances must map names to real numbers")
        merged = dict(DEFAULT_TOLERANCES)
        for key, value in tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise DomainError(f"unknown tolerance {key!r}")
            if not (_is_real(value) and math.isfinite(value)):
                raise DomainError(f"tolerance {key!r} must be a finite real number")
            merged[key] = float(value)
        return tuple.__new__(cls, (*grids, merged))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def from_json(cls, path: str) -> "GridConfig":
        """Read a config file holding one JSON object; raises DomainError
        when it does not."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise DomainError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise DomainError(f"config {path} must hold a JSON object")
        unknown = set(raw) - set(cls._fields)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def tol(self, name: str) -> float:
        return self.tolerances[name]


CheckResult = namedtuple("CheckResult",
                         "name passed points skipped worst_margin witness note",
                         defaults=("",))


class _Worst:
    """Counts the points of one check and tracks the first smallest margin
    with its witnessing parameters; a NaN margin never becomes the worst."""

    def __init__(self):
        self.points = 0
        self.margin = math.inf
        self.witness = ""

    def update(self, margin: float, **params) -> None:
        self.points += 1
        if margin < self.margin:
            self.margin = margin
            self.witness = " ".join(
                f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in params.items())

    def result(self, name: str, note: str, skipped: int = 0,
               strict: bool = False) -> CheckResult:
        """The check passes when its worst margin is >= 0, or > 0 when
        strict."""
        passed = self.margin > 0.0 if strict else self.margin >= 0.0
        return CheckResult(name, passed, self.points, skipped, self.margin,
                           self.witness, note)


def _grid_specs(config: GridConfig) -> tuple[list[IntegralSpec], int]:
    """All valid grid points plus the count of combinations that violate
    the integral preconditions (reported as skipped, never dropped
    silently)."""
    specs = []
    invalid = 0
    for gamma in config.gamma_values:
        for nu in config.nu_values:
            for n in config.n_values:
                for x in config.x_values:
                    try:
                        specs.append(IntegralSpec(gamma, nu, n, x))
                    except DomainError:
                        invalid += 1
    return specs, invalid


def check_oracle_triangle(config: GridConfig) -> CheckResult:
    """Quadrature against the termwise series on the full grid."""
    tol = config.tol("oracle_rel")
    worst = _Worst()
    specs, skipped = _grid_specs(config)
    for spec in specs:
        quad = integral_quadrature(spec).value
        if spec.gamma > 0.0:
            ref = integral_series_oracle(spec).value
        else:
            ref = integral_power_series(spec.nu, spec.n, spec.x).value
        if ref == 0.0:
            skipped += 1
            continue
        rel = abs(quad - ref) / abs(ref)
        worst.update(tol - rel, gamma=spec.gamma, nu=spec.nu, n=spec.n, x=spec.x)
    return worst.result("oracle_triangle", f"rel tol {tol:g}", skipped)


def check_closed_form_agreement(config: GridConfig) -> CheckResult:
    """Quadrature against the 2F3 closed form where it exists."""
    tol = config.tol("closed_form_rel")
    worst = _Worst()
    specs, skipped = _grid_specs(config)
    for spec in specs:
        if spec.gamma != 0.0 or spec.n != 0.0:
            continue
        quad = integral_quadrature(spec).value
        ref = integral_closed_form(spec.nu, spec.x)
        if ref == 0.0:
            skipped += 1
            continue
        rel = abs(quad - ref) / abs(ref)
        worst.update(tol - rel, nu=spec.nu, x=spec.x)
    return worst.result("closed_form_agreement", f"rel tol {tol:g}", skipped)


def check_ordering(config: GridConfig) -> CheckResult:
    """Every applicable lower bound below the integral, every applicable
    upper bound above it, and the stated bound-vs-bound orderings."""
    slack = config.tol("ordering_slack_rel")
    worst = _Worst()
    lower_ids = ("bi1", "bi2", "bi4", "bi5")
    upper_ids = ("bi3", "bi7", "bi8")
    specs, skipped = _grid_specs(config)
    for spec in specs:
        report = bounds_mod.bound_report(spec)
        integral = report.integral
        skipped += len(report.skipped)
        got = report.applicable_bounds
        # Each comparison's gap, to be taken relative to the integral.
        gaps = {}
        for name, value in got.items():
            if name in lower_ids:
                gaps[name] = integral - value
            else:
                assert name in upper_ids
                gaps[name] = value - integral
        for below, above in (("bi5", "bi4"), ("bi7", "bi8")):
            if below in got and above in got:
                gaps[f"{below}<={above}"] = got[above] - got[below]
        if integral == 0.0:
            skipped += len(gaps)
            continue
        for name, gap in gaps.items():
            worst.update(gap / integral + slack, bound=name, gamma=spec.gamma,
                         nu=spec.nu, n=spec.n, x=spec.x)
    return worst.result("ordering", f"relative slack {slack:g}", skipped)


def check_equality_boundary(config: GridConfig) -> CheckResult:
    """At nu = -(n+1)/2 the two-sided bounds collapse onto the integral."""
    tol = config.tol("equality_rel")
    worst = _Worst()
    for n in EQUALITY_N:
        nu = -0.5 * (n + 1.0)
        for x in EQUALITY_X:
            bi2 = bounds_mod.lower_bi2(nu, n, x)
            bi3 = bounds_mod.upper_bi3(nu, n, x)
            integral = integral_quadrature(IntegralSpec(0.0, nu, n, x)).value
            worst.update(tol - abs(bi2 - bi3) / abs(bi3),
                         pair="bi2-bi3", n=n, x=x)
            worst.update(tol - abs(bi2 - integral) / abs(integral),
                         pair="bi2-integral", n=n, x=x)
    return worst.result("equality_boundary", f"rel tol {tol:g}")


def rate_margin(ratio: float, x: float, c: float) -> float:
    """(10/x)|c| - |x (1 - ratio) - c|: nonnegative when 1 - ratio = c/x +
    O(x^-2) with the O(x^-2) term within a relative 10/x of c."""
    return 10.0 / x * abs(c) - abs(x * (1.0 - ratio) - c)


def lower_bound_rates(nu: float, gamma: float) -> dict[str, float]:
    """c_B of bi1, bi2 (gamma = 0), bi4 and bi5 at order nu, n = 0."""
    p = nu + 0.5
    return {"bi1": p, "bi2": 2.0 * p, "bi4": p * gamma / (1.0 - gamma),
            "bi5": p / (1.0 - gamma)}


def check_tightness_large_x(config: GridConfig) -> CheckResult:
    """Ratios of bi1/bi2 (undamped) and bi4/bi5 (damped) to the integral at
    x = 300: at most 1, and within rate_margin of lower_bound_rates; the
    upper bound bi3 approaches 1 from above and is not checked here."""
    x = TIGHTNESS_X_LARGE
    worst = _Worst()
    for nu in TIGHTNESS_NU:
        undamped = integral_quadrature(IntegralSpec(0.0, nu, 0.0, x)).value
        damped = integral_quadrature(IntegralSpec(TIGHTNESS_GAMMA, nu, 0.0, x)).value
        ratios = {
            "bi1": bounds_mod.lower_bi1(nu, x) / undamped,
            "bi2": bounds_mod.lower_bi2(nu, 0.0, x) / undamped,
            "bi4": bounds_mod.lower_bi4(TIGHTNESS_GAMMA, nu, x) / damped,
            "bi5": bounds_mod.lower_bi5(TIGHTNESS_GAMMA, nu, x) / damped,
        }
        rates = lower_bound_rates(nu, TIGHTNESS_GAMMA)
        for name, ratio in ratios.items():
            gamma = 0.0 if name in ("bi1", "bi2") else TIGHTNESS_GAMMA
            margin = min(rate_margin(ratio, x, rates[name]), 1.0 + 1e-12 - ratio)
            worst.update(margin, bound=name, gamma=gamma, nu=nu, x=x,
                         ratio=float(f"{ratio:.8g}"))
    return worst.result("tightness_large_x",
                        "ratio <= 1 and |x(1-ratio) - c_B| <= 10|c_B|/x")


def check_tightness_small_x(config: GridConfig) -> CheckResult:
    """bi3 over the integral inside [1, 1 + tol] at x = 1e-2."""
    tol = config.tol("tightness_small_x")
    x = TIGHTNESS_X_SMALL
    worst = _Worst()
    lower_slack = 1e-12
    for nu in TIGHTNESS_SMALL_NU:
        for n in TIGHTNESS_SMALL_N:
            integral = integral_quadrature(IntegralSpec(0.0, nu, n, x)).value
            ratio = bounds_mod.upper_bi3(nu, n, x) / integral
            margin = min(tol - (ratio - 1.0), ratio - 1.0 + lower_slack)
            worst.update(margin, nu=nu, n=n, x=x, ratio=float(f"{ratio:.8g}"))
    return worst.result("tightness_small_x", f"window [1, 1+{tol:g}]")


def check_asymptote(config: GridConfig) -> CheckResult:
    """The integral over its leading large-x asymptote A, in log space, at
    its rate c_A = mu - p/(1-gamma), mu = (4 nu^2 - 1)/8, p = nu + 1/2."""
    x = TIGHTNESS_X_LARGE
    worst = _Worst()
    for gamma in ASYMPTOTE_GAMMA:
        for nu in TIGHTNESS_NU:
            spec = IntegralSpec(gamma, nu, 0.0, x)
            log_ratio = log_integral_quadrature(spec) - log_asymptotic_integral(spec)
            c = (4.0 * nu * nu - 1.0) / 8.0 - (nu + 0.5) / (1.0 - gamma)
            worst.update(rate_margin(math.exp(log_ratio), x, c), gamma=gamma, nu=nu, x=x)
    return worst.result("asymptote_large_x", "|x(1-I/A) - c_A| <= 10|c_A|/x")


def check_d_properties(config: GridConfig) -> CheckResult:
    """D below its theoretical cap, and never exceeded by the ratio on a
    dense scan."""
    slack = config.tol("d_scan_slack")
    worst = _Worst()
    log_lo = math.log(bounds_mod.D_SCAN_LO)
    step = (math.log(bounds_mod.D_SCAN_HI) - log_lo) / (D_SCAN_CHECK_POINTS - 1)
    for nu, n in D_CHECK_PAIRS:
        d = bounds_mod.d_constant(nu, n)
        worst.update(2.0 * (nu + n + 1.0) - d.value, prop="cap", nu=nu, n=n)
        xs = [math.exp(log_lo + i * step) for i in range(D_SCAN_CHECK_POINTS)]
        for x, ratio in zip(xs, bounds_mod._ratio_grid(nu, n, xs)):
            worst.update(d.value + slack - ratio, prop="scan", nu=nu, n=n, x=x)
    return worst.result("d_properties", f"scan slack {slack:g}")


def check_struve_monotonicity(config: GridConfig) -> CheckResult:
    """L_nu(x) strictly below L_{nu-1}(x) for nu >= 1/2."""
    worst = _Worst()
    for nu in IMON_NU:
        for x in IMON_X:
            if nu == 0.5 and x > IMON_HALF_ORDER_MAX_X:
                continue
            hi = struve_l_scaled(nu - 1.0, x).value
            lo = struve_l_scaled(nu, x).value
            worst.update((hi - lo) / hi, nu=nu, x=x)
    return worst.result("struve_monotonicity", "strict decrease in order",
                        strict=True)


def check_integral_monotonicity(config: GridConfig) -> CheckResult:
    """The integral strictly increases in its upper limit."""
    worst = _Worst()
    skipped = 0
    xs = sorted(config.x_values)
    for gamma in config.gamma_values:
        for nu in config.nu_values:
            for n in config.n_values:
                try:
                    specs = [IntegralSpec(gamma, nu, n, x) for x in xs]
                except DomainError:
                    skipped += 1
                    continue
                values = [integral_quadrature(s).value for s in specs]
                for x1, x2, v1, v2 in zip(xs, xs[1:], values, values[1:]):
                    if v2 == 0.0:
                        skipped += 1
                        continue
                    worst.update((v2 - v1) / v2, gamma=gamma, nu=nu, n=n,
                                 x1=x1, x2=x2)
    return worst.result("integral_monotonicity", "strict increase in x", skipped,
                        strict=True)


ALL_CHECKS = (
    check_oracle_triangle,
    check_closed_form_agreement,
    check_ordering,
    check_equality_boundary,
    check_tightness_large_x,
    check_tightness_small_x,
    check_asymptote,
    check_d_properties,
    check_struve_monotonicity,
    check_integral_monotonicity,
)


def run_verification(config: GridConfig | None = None) -> list[CheckResult]:
    """Run every check of ALL_CHECKS; each distinct GK15 panel is computed
    once per call, however many quadratures use it."""
    config = config if config is not None else GridConfig()
    with quadrature_memo():
        return [check(config) for check in ALL_CHECKS]


def verification_to_csv(results: list[CheckResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["check", "status", "points", "skipped", "worst_margin", "witness", "note"]
    )
    for r in results:
        writer.writerow(
            [r.name, "pass" if r.passed else "fail", r.points, r.skipped,
             f"{r.worst_margin:.6g}", r.witness, r.note]
        )
    return buf.getvalue()


def verification_to_json(results: list[CheckResult], config: GridConfig) -> str:
    payload = {
        "kind": "verification",
        "passed": all(r.passed for r in results),
        "checks": [
            {
                "name": r.name,
                "status": "pass" if r.passed else "fail",
                "points": r.points,
                "skipped": r.skipped,
                "worst_margin": float(f"{r.worst_margin:.6g}"),
                "witness": r.witness,
                "note": r.note,
            }
            for r in results
        ],
        "meta": {"tolerances": config.tolerances},
    }
    return json.dumps(payload, indent=2) + "\n"
