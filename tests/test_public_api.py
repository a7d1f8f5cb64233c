"""The package's public surface: exactly the names the paper's
computations and the CLI need, each resolvable."""

import importlib
import inspect

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
    "integrand",
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
    assert len(PUBLIC_NAMES) == 39
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
