"""Tests for the grid-verification machinery.

The heavy full-grid sweeps live in the acceptance suite; here small
grids exercise the check logic itself, including skip accounting and
failure detection on deliberately corrupted bounds.
"""

import json

import pytest

import struveint.bounds as bounds_mod
from struveint.bounds import BoundCoefficients, coefficients
from struveint.exceptions import DomainError
from struveint.gridcheck import (
    DEFAULT_TOLERANCES,
    GridConfig,
    _Worst,
    check_closed_form_agreement,
    check_equality_boundary,
    check_integral_monotonicity,
    check_oracle_triangle,
    check_ordering,
    check_struve_monotonicity,
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


def test_struve_monotonicity_check():
    result = check_struve_monotonicity(GridConfig())
    assert result.passed
    assert result.worst_margin > 0.0


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
    # the one genuine tightness shortfall is reported, everything else holds
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["tightness_large_x"]["status"] == "fail"
    assert "bi5" in by_name["tightness_large_x"]["witness"]
    assert payload["passed"] is False
    for name in names:
        if name != "tightness_large_x":
            assert by_name[name]["status"] == "pass", name
    assert [(r.points, r.skipped) for r in results] == [
        (1, 0), (1, 0), (3, 4), (18, 0), (8, 0), (6, 0), (4, 0), (2005, 0), (53, 0),
        (0, 0),
    ]
