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
        # the CLI renders every CSV and JSON output itself
        ("gridcheck", "verification_to_csv"),
        ("gridcheck", "verification_to_json"),
        ("tables", "table_to_csv"),
        ("tables", "table_to_json"),
        ("tables", "_fmt_label"),
        ("tables", "_fmt_entry"),
        ("tables", "_quant6"),
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


def test_import_leaves_csv_and_json_unloaded():
    # the CLI renders every output; the library reads JSON only in GridConfig.from_json
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import struveint, sys; print('csv' in sys.modules, 'json' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "False False\n"


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


NUMERICS = {"bounds", "gridcheck", "integrals", "quadrature", "specfun", "tables"}

#: Runs the CLI on the process's arguments, whatever its exit status.
_RUN_CLI = """\
from struveint.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
"""


def _loaded_submodules(code, *args):
    """The struveint submodules that a fresh process has loaded after code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    report = ("import sys\n" + code + "print('loaded:', *sorted(m[10:] for m in sys.modules"
              " if m.startswith('struveint.')), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", report, *args], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    label, *loaded = proc.stderr.splitlines()[-1].split()
    assert label == "loaded:"
    return set(loaded)


def test_import_loads_no_submodule():
    assert _loaded_submodules("import struveint\n") == set()


@pytest.mark.parametrize("args", [["--version"], ["--help"]], ids=["version", "help"])
def test_cli_version_and_help_load_no_numerics(args):
    assert _loaded_submodules(_RUN_CLI, *args) == {"cli", "exceptions"}


def test_cli_eval_struve_l_loads_only_specfun():
    loaded = _loaded_submodules(_RUN_CLI, "eval", "struve-l", "--nu", "0", "--x", "1")
    assert loaded & NUMERICS == {"specfun"}


def test_cli_verify_loads_gridcheck_and_its_imports():
    loaded = _loaded_submodules(_RUN_CLI, "verify", "--out", os.devnull)
    assert loaded & NUMERICS == NUMERICS - {"tables"}


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_public_name_is_its_defining_modules_object(name):
    value = getattr(struveint, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("struveint.")
    assert getattr(home, name) is value


def test_dir_covers_all():
    assert set(struveint.__all__) <= set(dir(struveint))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from struveint import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        struveint.no_such_name
