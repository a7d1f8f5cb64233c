"""The package's public surface: exactly the names the paper's
computations and the CLI need, each resolvable."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import struveint

PUBLIC_NAMES = [
    "BoundCoefficients",
    "BoundNotApplicableError",
    "BoundReport",
    "CheckResult",
    "ConvergenceError",
    "DConstant",
    "DomainError",
    "DSolverError",
    "GridConfig",
    "IntegralSpec",
    "QuadratureResult",
    "SeriesEval",
    "TableArtifact",
    "ToleranceNotMetError",
    "bound_report",
    "coefficients",
    "corollary_bounds",
    "corollary_middle",
    "d_constant",
    "gamma_fn",
    "integral_closed_form",
    "integral_power_series",
    "integral_quadrature",
    "integral_series_oracle",
    "log_gamma",
    "lower_bi1",
    "lower_bi2",
    "lower_bi4",
    "lower_bi5",
    "make_table",
    "pfq",
    "ratio_fn",
    "run_verification",
    "struve_l",
    "struve_l_scaled",
    "upper_bi3",
    "upper_bi7",
    "upper_bi8",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 38
    assert struveint.__all__ == PUBLIC_NAMES
    assert len(set(struveint.__all__)) == len(struveint.__all__)
    for name in struveint.__all__:
        assert getattr(struveint, name) is not None


@pytest.mark.parametrize(
    "module,name",
    [
        ("specfun", "pochhammer"),
        ("specfun", "regularized_gamma_p"),
        ("specfun", "lower_incomplete_gamma"),
        ("integrals", "asymptotic_integral"),
        # the STRUVE_MAX_TERMS knob: the series term cap follows from x
        ("specfun", "term_cap"),
        ("specfun", "DEFAULT_MAX_TERMS"),
        # only a test read CSV back, and it mislabelled table2 as table1
        ("tables", "parse_table_csv"),
        # one series kernel, specfun._series, sums every power series
        ("specfun", "sum_series"),
        ("specfun", "pfq_weighted"),
        ("integrals", "integral_power_series_scaled"),
        # no caller in the package; the quadrature evaluates _panel_values
        ("integrals", "integrand"),
        # corollary_middle leaves offset form through integrals._leave
        ("integrals", "closed_form_times_power"),
        # the oracle carries Kummer weights down; lower_bi4 sums gamma_low(2, u)
        ("specfun", "log_lower_incomplete_gamma"),
        ("specfun", "_gcf_q"),
        ("specfun", "_INCGAMMA_CAP"),
    ],
)
def test_unused_functions_stay_removed(module, name):
    assert not hasattr(struveint, name)
    assert not hasattr(importlib.import_module(f"struveint.{module}"), name)


@pytest.mark.parametrize(
    "module,name,parameter",
    [
        # D follows from (nu, n); the bounds compute it themselves.
        ("bounds", "upper_bi7", "d"),
        ("bounds", "upper_bi8", "d"),
        ("bounds", "bound_report", "d"),
        ("bounds", "BoundReport", "rel_errors"),
        # the series term cap follows from x (specfun._series_cap).
        ("specfun", "pfq", "max_terms"),
        ("specfun", "struve_l", "max_terms"),
        ("specfun", "struve_l_scaled", "max_terms"),
        ("specfun", "struve_l_weighted", "max_terms"),
        ("integrals", "integral_power_series", "max_terms"),
        ("integrals", "integral_series_oracle", "max_terms"),
        # the series kernel raises instead of returning an unconverged value.
        ("specfun", "SeriesEval", "converged"),
    ],
)
def test_removed_parameters_stay_removed(module, name, parameter):
    fn = getattr(importlib.import_module(f"struveint.{module}"), name)
    assert parameter not in inspect.signature(fn).parameters


def test_import_leaves_dataclasses_unloaded():
    # dataclasses pulls in inspect: about 16 ms of a fresh `import struveint`
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import struveint, sys; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "False\n"


def test_cli_runs_on_the_standard_library():
    # click was the one runtime dependency; the CLI runs with it blocked
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    blocked = ("import sys; sys.modules['click'] = None\n"
               "from struveint.cli import main\n"
               "main(['--version'])")
    proc = subprocess.run([sys.executable, "-c", blocked], env=env,
                          capture_output=True, text=True, check=False, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "struveint, version 0.1.0\n", "")
    out = subprocess.run(
        [sys.executable, "-c", "import struveint.cli, sys; print('click' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "False\n"
