"""Command-line front end.

Subcommands:
  eval    evaluate struve-l, struve-l-scaled, or the damped integral
  dconst  compute the supremum constant D for one (nu, n)
  table   emit a reference table (table1, table2, dconstants)
  verify  run the inequality-verification grid and report per check

Output is deterministic (fixed field order and formatting); CSV uses
RFC-4180-style quoting, JSON fixed key order.
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .bounds import d_constant
from .exceptions import ConvergenceError, DomainError, DSolverError, ToleranceNotMetError
from .gridcheck import (
    GridConfig,
    run_verification,
    verification_to_csv,
    verification_to_json,
)
from .integrals import IntegralSpec, integral_quadrature
from .specfun import struve_l, struve_l_scaled
from .tables import TABLE_KINDS, make_table, table_to_csv, table_to_json

EVAL_FUNCTIONS = ("struve-l", "struve-l-scaled", "integral")

#: Evaluation failures reported as "error: ..." with exit status 1.
_EVAL_ERRORS = (DomainError, ConvergenceError, ToleranceNotMetError, DSolverError,
               ArithmeticError)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


class _ReportingGroup(click.Group):
    """Reports an evaluation failure in any subcommand as "error: ..."
    with exit status 1 instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except _EVAL_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_ReportingGroup)
@click.version_option(version=__version__, prog_name="struveint")
def cli():
    """Modified Struve integrals, their bounds, and grid verification."""


@cli.command("eval")
@click.argument("function", type=click.Choice(EVAL_FUNCTIONS))
@click.option("--nu", type=float, required=True, help="Order nu.")
@click.option("--n", type=float, default=None, help="Order shift n (integral only).")
@click.option("--gamma", type=float, default=None, help="Damping gamma (integral only).")
@click.option("--x", type=float, required=True, help="Argument / upper limit x.")
@click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]),
              default="text", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write to a file instead of stdout.")
def cmd_eval(function, nu, n, gamma, x, fmt, out):
    """Evaluate one function and print its value and error estimate."""
    if function != "integral" and (n is not None or gamma is not None):
        raise click.UsageError("--n and --gamma only apply to 'integral'")
    if function == "integral":
        spec = IntegralSpec(gamma if gamma is not None else 0.0,
                            nu, n if n is not None else 0.0, x)
        q = integral_quadrature(spec)
        row = {"function": function, "gamma": spec.gamma, "nu": spec.nu,
               "n": spec.n, "x": spec.x, "value": q.value,
               "abs_error_estimate": q.abs_error_estimate,
               "subdivisions": q.subdivisions}
    else:
        fn = {"struve-l": struve_l, "struve-l-scaled": struve_l_scaled}[function]
        result = fn(nu, x)
        row = {"function": function, "nu": nu, "x": x,
               "value": result.value,
               "abs_error_estimate": result.abs_error_estimate,
               "terms_used": result.terms_used}
    _emit(_format_row(row, fmt), out)


def _format_row(row: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(row, indent=2) + "\n"
    if fmt == "csv":
        header = ",".join(row)
        values = ",".join(_csv_num(v) for v in row.values())
        return f"{header}\n{values}\n"
    lines = [f"{k} = {_csv_num(v)}" for k, v in row.items()]
    return "\n".join(lines) + "\n"


def _csv_num(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


@cli.command("dconst")
@click.option("--nu", type=float, required=True, help="Order nu.")
@click.option("--n", type=float, default=0.0, show_default=True, help="Order shift n.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_dconst(nu, n, out):
    """Compute D = sup over x of the integral-to-function ratio,
    printed as JSON with the argmax and the theoretical cap 2(nu+n+1)."""
    d = d_constant(nu, n)
    payload = {
        "nu": nu,
        "n": n,
        "value": round(d.value, 4),
        "argmax_x": float(f"{d.argmax_x:.6g}"),
        "bound": 2.0 * (nu + n + 1.0),
    }
    _emit(json.dumps(payload, indent=2) + "\n", out)


@cli.command("table")
@click.argument("kind", type=click.Choice(TABLE_KINDS))
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_table(kind, fmt, out):
    """Emit a reference table: relative errors of the corollary lower
    (table1) or upper (table2) bound, or the computed D constants."""
    artifact = make_table(kind)
    text = table_to_csv(artifact) if fmt == "csv" else table_to_json(artifact)
    _emit(text, out)


@cli.command("verify")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Grid configuration as JSON.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def cmd_verify(config_path, fmt, out):
    """Run every verification check over the configured grids.

    Exits nonzero if any check fails.
    """
    config = GridConfig.from_json(config_path) if config_path else GridConfig()
    results = run_verification(config)
    if fmt == "csv":
        text = verification_to_csv(results)
    else:
        text = verification_to_json(results, config)
    _emit(text, out)
    failures = [r.name for r in results if not r.passed]
    if failures:
        click.echo(f"FAILED checks: {', '.join(failures)}", err=True)
        sys.exit(1)


def main():
    cli()


if __name__ == "__main__":
    main()
