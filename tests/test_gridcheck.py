"""Tests for the grid-verification machinery.

The heavy full-grid sweeps live in the acceptance suite; here small
grids exercise the check logic itself, including skip accounting and
failure detection on deliberately corrupted bounds.
"""

import copy
import json
import math
import pickle

import pytest

import struveint.bounds as bounds_mod
import struveint.gridcheck as gridcheck_mod
import struveint.integrals as integrals_mod
from conftest import count_calls, record_indices
from struveint.bounds import BoundCoefficients, coefficients
from struveint.exceptions import DomainError
from struveint.gridcheck import (
    ALL_CHECKS,
    D_CHECK_PAIRS,
    DEFAULT_TOLERANCES,
    TIGHTNESS_NU,
    GridConfig,
    _Worst,
    check_asymptote,
    check_closed_form_agreement,
    check_d_properties,
    check_equality_boundary,
    check_integral_monotonicity,
    check_oracle_triangle,
    check_ordering,
    check_struve_monotonicity,
    check_tightness_large_x,
    check_tightness_small_x,
    run_verification,
    verification_to_csv,
    verification_to_json,
)

SMALL = GridConfig(
    nu_values=[0.0, 1.0],
    n_values=[0.0, 0.5],
    gamma_values=[0.0, 0.5],
    x_values=[0.5, 2.0],
)


def test_default_config_tolerances():
    config = GridConfig()
    assert config.tolerances == DEFAULT_TOLERANCES


def test_config_tolerance_override():
    config = GridConfig(tolerances={"oracle_rel": 1e-6})
    assert config.tol("oracle_rel") == 1e-6
    assert config.tol("equality_rel") == DEFAULT_TOLERANCES["equality_rel"]


def test_config_rejects_unknown_tolerance():
    with pytest.raises(DomainError):
        GridConfig(tolerances={"bogus": 1.0})
    with pytest.raises(DomainError):
        GridConfig(tolerances=[("oracle_rel", 1e-6)])


@pytest.mark.parametrize("key", ["tightness_low", "asymptote_rel"])
def test_config_rejects_the_large_x_windows(key):
    # the large-x checks take their tolerance 10/x from x; nothing sets it
    assert len(DEFAULT_TOLERANCES) == 6
    with pytest.raises(DomainError, match=f"unknown tolerance '{key}'"):
        GridConfig(tolerances={key: 0.99})


def test_tracker_keeps_first_smallest_margin_and_ignores_nan():
    worst = _Worst()
    for margin, at in ((0.5, 1), (0.25, 2), (float("nan"), 3), (0.25, 4), (0.75, 5)):
        worst.update(margin, at=at)
    result = worst.result("demo", "note", skipped=2)
    assert (result.points, result.skipped) == (5, 2)
    assert (result.worst_margin, result.witness) == (0.25, "at=2")
    assert result.passed


def test_tracker_strict_rejects_zero_margin():
    worst = _Worst()
    worst.update(0.0, at=1)
    assert worst.result("demo", "").passed
    assert not worst.result("demo", "", strict=True).passed


def test_config_from_json(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(
        json.dumps(
            {
                "nu_values": [0.0],
                "n_values": [0.0],
                "gamma_values": [0.0, 0.5],
                "x_values": [1.0, 2.0],
                "tolerances": {"oracle_rel": 1e-8},
            }
        )
    )
    config = GridConfig.from_json(str(path))
    assert config.nu_values == [0.0]
    assert config.tol("oracle_rel") == 1e-8


def test_config_from_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"nu_values": [0.0], "grid_type": "fine"}))
    with pytest.raises(DomainError):
        GridConfig.from_json(str(path))


@pytest.mark.parametrize("name", ["nu_values", "n_values", "gamma_values", "x_values"])
def test_config_rejects_an_empty_grid(name, tmp_path):
    # a check over no points would pass with margin inf
    with pytest.raises(DomainError, match=f"{name} must not be empty"):
        GridConfig(**{name: []})
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({name: []}))
    with pytest.raises(DomainError, match=f"{name} must not be empty"):
        GridConfig.from_json(str(path))


@pytest.mark.parametrize(
    "raw",
    [{"nu_values": None}, {"nu_values": (0.0,)}, {"x_values": None}, {"tolerances": None}],
    ids=["none", "tuple", "x-none", "tolerances-none"],
)
def test_config_rejects_what_is_not_a_list_or_dict(raw, tmp_path):
    # an explicit None is not a left-out argument: it never gives the default
    with pytest.raises(DomainError, match="must be a list|must map names"):
        GridConfig(**raw)
    if None in raw.values():
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(DomainError, match="must be a list|must map names"):
            GridConfig.from_json(str(path))


def test_config_validates_on_every_construction_path():
    config = GridConfig(x_values=[1.0, 2.0], tolerances={"oracle_rel": 1e-8})
    with pytest.raises(DomainError, match="x_values must not be empty"):
        config._replace(x_values=[])
    with pytest.raises(DomainError, match="unknown tolerance"):
        config._replace(tolerances={"bogus": 1.0})
    with pytest.raises(DomainError, match="gamma_values must be a list"):
        GridConfig._make(([0.0], [0.0], None, [1.0], {}))
    assert GridConfig._make(config) == config
    for other in (pickle.loads(pickle.dumps(config)), copy.copy(config),
                  copy.deepcopy(config)):
        assert other == config and type(other) is GridConfig
        assert other.tol("oracle_rel") == 1e-8


def test_config_defaults_are_fresh_lists():
    first = GridConfig()
    first.nu_values.append(9.0)
    assert GridConfig().nu_values == [-0.4, 0.0, 1.0, 3.0]


def test_oracle_triangle_small_grid():
    result = check_oracle_triangle(SMALL)
    assert result.passed
    assert result.points == 16
    assert result.worst_margin >= 0.0


def test_invalid_grid_combinations_are_counted():
    # nu = -2 breaks nu + n > -3/2: one skipped combination per x for the
    # oracle, one skipped x sweep for the monotonicity check
    config = GridConfig(nu_values=[-2.0, 0.0], n_values=[0.0], gamma_values=[0.5],
                        x_values=[1.0, 2.0])
    oracle = check_oracle_triangle(config)
    assert (oracle.points, oracle.skipped) == (2, 2)
    sweep = check_integral_monotonicity(config)
    assert (sweep.points, sweep.skipped) == (1, 1)


def test_closed_form_agreement_small_grid():
    result = check_closed_form_agreement(SMALL)
    assert result.passed
    assert result.points == 4  # gamma = 0 and n = 0 only


def test_ordering_small_grid():
    result = check_ordering(SMALL)
    assert result.passed
    assert result.points > 0
    assert result.skipped > 0  # informational skip reasons are counted


def test_equality_boundary_check():
    result = check_equality_boundary(GridConfig())
    assert result.passed
    assert result.points == 18


def test_tightness_small_x_check():
    result = check_tightness_small_x(GridConfig())
    assert result.passed


# where each lower bound takes its order nu
NU_ARG = {"lower_bi1": 0, "lower_bi2": 0, "lower_bi4": 1, "lower_bi5": 1}


@pytest.mark.parametrize("delta", [1e-3, -1e-3])
@pytest.mark.parametrize("nu", TIGHTNESS_NU)
@pytest.mark.parametrize("bound", list(NU_ARG))
def test_tightness_large_x_detects_a_moved_ratio(monkeypatch, bound, nu, delta):
    # moving one of the eight ratios by 1e-3 moves x(1 - ratio) by 0.3,
    # past every allowed deviation 10|c_B|/x <= 0.1
    original = getattr(bounds_mod, bound)

    def moved(*args):
        value = original(*args)
        return value * (1.0 + delta) if args[NU_ARG[bound]] == nu else value

    assert check_tightness_large_x(GridConfig()).passed
    monkeypatch.setattr(bounds_mod, bound, moved)
    result = check_tightness_large_x(GridConfig())
    assert not result.passed
    assert result.witness.startswith(f"bound={bound[-3:]} ")
    assert f" nu={nu:g} " in result.witness


@pytest.mark.parametrize("delta", [1e-3, -1e-3])
def test_asymptote_detects_a_moved_integral(monkeypatch, delta):
    original = gridcheck_mod.log_integral_quadrature
    assert check_asymptote(GridConfig()).passed
    monkeypatch.setattr(gridcheck_mod, "log_integral_quadrature",
                        lambda spec: original(spec) + math.log1p(delta))
    assert not check_asymptote(GridConfig()).passed


def test_struve_monotonicity_check():
    result = check_struve_monotonicity(GridConfig())
    assert result.passed
    assert result.worst_margin > 0.0


def test_d_properties_sums_each_dense_scan_in_one_pass(monkeypatch):
    # with D memoized, each pair's 400-point scan is one _ratio_grid call
    # and one kernel pass that sums P and L together, each d_k computed once
    for nu, n in D_CHECK_PAIRS:
        bounds_mod.d_constant(nu, n)
    grids = count_calls(monkeypatch, bounds_mod, "_ratio_grid")
    sums = count_calls(monkeypatch, bounds_mod, "_sums")
    tabulated = record_indices(monkeypatch, bounds_mod, "_struve_den")
    result = check_d_properties(GridConfig())
    assert result.passed
    assert len(grids) == len(sums) == len(tabulated) == len(D_CHECK_PAIRS)
    assert all(call[4] is not None for call in sums)
    assert all(ks == list(range(len(ks))) for ks in tabulated)


def test_corrupted_coefficients_detected(monkeypatch):
    # negating c flips the sign of bi3's subtracted polynomial term; the
    # corrupted bound stays above the integral but loses its small-x
    # tightness, which the verification suite must flag
    def corrupted(nu, n):
        coefs = coefficients(nu, n)
        return BoundCoefficients(coefs.a, coefs.b, -coefs.c)

    monkeypatch.setattr(bounds_mod, "coefficients", corrupted)
    result = check_tightness_small_x(GridConfig())
    assert not result.passed
    assert result.worst_margin < 0.0


def test_ordering_detects_corrupted_bi4(monkeypatch):
    original = bounds_mod.lower_bi4

    def corrupted(gamma, nu, x):
        return 1.5 * original(gamma, nu, x)

    monkeypatch.setattr(bounds_mod, "lower_bi4", corrupted)
    result = check_ordering(
        GridConfig(nu_values=[0.0], n_values=[0.0], gamma_values=[0.5],
                   x_values=[1.0])
    )
    assert not result.passed
    assert "bi4" in result.witness


def test_ordering_detects_corrupted_bi3(monkeypatch):
    original = bounds_mod.upper_bi3

    def corrupted(nu, n, x):
        return 0.5 * original(nu, n, x)

    monkeypatch.setattr(bounds_mod, "upper_bi3", corrupted)
    result = check_ordering(
        GridConfig(nu_values=[0.0], n_values=[0.0], gamma_values=[0.0],
                   x_values=[2.0])
    )
    assert not result.passed
    assert "bi3" in result.witness


def test_run_verification_shape_and_report_formats():
    config = GridConfig(
        nu_values=[0.0], n_values=[0.0], gamma_values=[0.0], x_values=[1.0]
    )
    results = run_verification(config)
    names = [r.name for r in results]
    assert names == [
        "oracle_triangle",
        "closed_form_agreement",
        "ordering",
        "equality_boundary",
        "tightness_large_x",
        "tightness_small_x",
        "asymptote_large_x",
        "d_properties",
        "struve_monotonicity",
        "integral_monotonicity",
    ]
    csv_text = verification_to_csv(results)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "check,status,points,skipped,worst_margin,witness,note"
    assert len(lines) == 11
    payload = json.loads(verification_to_json(results, config))
    assert payload["kind"] == "verification"
    assert len(payload["checks"]) == 10
    assert payload["meta"]["tolerances"]["oracle_rel"] == 1e-9
    # every check holds
    by_name = {c["name"]: c for c in payload["checks"]}
    assert payload["passed"] is True
    for name in names:
        assert by_name[name]["status"] == "pass", name
    assert [(r.points, r.skipped) for r in results] == [
        (1, 0), (1, 0), (3, 4), (18, 0), (8, 0), (6, 0), (4, 0), (2005, 0), (53, 0),
        (0, 0),
    ]


MEMO_GRID = dict(
    nu_values=[0.0, 1.0],
    n_values=[0.0, 0.5],
    gamma_values=[0.0, 0.5],
    x_values=[0.5, 2.0],
)


def test_run_verification_matches_each_check_run_alone():
    alone = [check(GridConfig(**MEMO_GRID)) for check in ALL_CHECKS]
    assert alone == run_verification(GridConfig(**MEMO_GRID))


def test_run_verification_shares_gk15_panels_between_upper_limits(monkeypatch):
    # the x values of a (gamma, nu, n) row share their panels near 0
    # through the memo's panel table: 1,863 GK15 panels without it
    panels = count_calls(monkeypatch, integrals_mod, "_gk15")
    run_verification(GridConfig())
    assert len(panels) <= 1100


def test_run_verification_evaluates_its_panels_through_gk15(monkeypatch):
    # the bound above also holds with no panel at all: the default grid's
    # quadratures evaluate 1,017 GK15 panels, each through integrals._gk15
    panels = count_calls(monkeypatch, integrals_mod, "_gk15")
    run_verification(GridConfig())
    assert len(panels) >= 1000


def test_run_verification_evaluates_each_distinct_panel_once(monkeypatch):
    # a repeated spec re-runs the adaptive loop, but every panel it asks
    # for after the first comes from its (gamma, nu, n) row's table
    evaluated = count_calls(monkeypatch, integrals_mod, "_gk15")
    requests = count_calls(monkeypatch, integrals_mod, "_panel_scaled")
    config = GridConfig()
    run_verification(config)
    panels = {(spec.gamma, spec.nu, spec.n, lo, hi) for spec, _, _, lo, hi in requests}
    assert len(evaluated) == len(panels)
    assert len(requests) > len(panels)
    # a second run on the same config object redoes the work: no table
    # survives the run
    run_verification(config)
    assert len(evaluated) == 2 * len(panels)


def test_run_verification_runs_each_gk15_spec_once(monkeypatch):
    # an integral asked for again in the block comes from its row's table,
    # so the adaptive loop runs once per distinct spec
    loops = count_calls(monkeypatch, integrals_mod, "adaptive_quadrature")
    run_verification(GridConfig())
    assert len(loops) == len({panel.args[0] for panel, *_ in loops})


def test_run_verification_sums_each_panel_series_once(monkeypatch):
    # the default grid evaluates 1,017 GK15 panels; their nodes' series
    # sums depend on (nu, n, lo, hi) alone, 315 distinct, and are shared
    # across gamma
    panels = count_calls(monkeypatch, integrals_mod, "_gk15")
    summed, original = [], integrals_mod._struve_series

    def counted(*args):
        summed.append(not args[-1])  # the table is empty: this pass sums
        return original(*args)

    monkeypatch.setattr(integrals_mod, "_struve_series", counted)
    run_verification(GridConfig())
    assert (len(panels), sum(summed)) == (1017, 315)
