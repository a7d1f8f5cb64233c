"""Modified Struve function of the first kind, its damped integrals, and
two-sided bounds with a grid-verification CLI.

Each public name is loaded from its submodule on first use (PEP 562), so
``import struveint`` compiles none of them."""

__version__ = "0.1.0"

#: The reference tables that make_table builds and ``struveint table``
#: emits; defined here, so that the CLI's parser reads them without
#: loading the numerics.
TABLE_KINDS = ("table1", "table2", "dconstants")

#: Each public name -> the submodule that defines it.
_HOME = {name: module for module, names in {
    "bounds": "BoundCoefficients BoundReport DConstant bound_report coefficients "
              "corollary_bounds corollary_middle d_constant lower_bi1 lower_bi2 "
              "lower_bi4 lower_bi5 ratio_fn upper_bi3 upper_bi7 upper_bi8",
    "exceptions": "BoundNotApplicableError ConvergenceError DomainError DSolverError "
                  "ToleranceNotMetError",
    "gridcheck": "CheckResult GridConfig run_verification",
    "integrals": "IntegralSpec QuadratureResult integral_closed_form integral_power_series "
                 "integral_quadrature integral_series_oracle",
    "specfun": "SeriesEval gamma_fn log_gamma pfq struve_l struve_l_scaled",
    "tables": "TableArtifact make_table",
}.items() for name in names.split()}

#: Types first, then functions, each alphabetical.
__all__ = sorted(_HOME, key=lambda name: (name.islower(), name.lower()))


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
