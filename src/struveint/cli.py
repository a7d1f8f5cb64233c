"""Command-line front end.

Subcommands:
  eval    evaluate struve-l, struve-l-scaled, or the damped integral
  dconst  compute the supremum constant D for one (nu, n)
  table   emit a reference table (table1, table2, dconstants)
  verify  run the inequality-verification grid and report per check

Output is deterministic (fixed field order and formatting); CSV uses
RFC-4180-style quoting, JSON fixed key order.  Usage errors exit 2; an evaluation
failure or a file that cannot be opened prints "error: ..." and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .bounds import d_constant
from .exceptions import ConvergenceError, DomainError, DSolverError, ToleranceNotMetError
from .gridcheck import (GridConfig, run_verification, verification_to_csv,
                        verification_to_json)
from .integrals import IntegralSpec, integral_quadrature
from .specfun import struve_l, struve_l_scaled
from .tables import TABLE_KINDS, make_table, table_to_csv, table_to_json

EVAL_FUNCTIONS = ("struve-l", "struve-l-scaled", "integral")

#: Failures reported as "error: ..." with exit status 1: evaluation
#: errors, and an OSError from a file that cannot be opened.
_EVAL_ERRORS = (DomainError, ConvergenceError, ToleranceNotMetError, DSolverError,
               ArithmeticError, OSError)

#: The options that take a value, even one that starts with "-" (``_glue``).
_VALUE_OPTIONS = {"--nu", "--n", "--gamma", "--x", "--format", "--out", "--config"}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_eval(args) -> None:
    """Evaluate one function and print its value and error estimate."""
    function, nu, n, gamma, x = args.function, args.nu, args.n, args.gamma, args.x
    if function != "integral" and (n is not None or gamma is not None):
        args.parser.error("--n and --gamma only apply to 'integral'")
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
        row = {"function": function, "nu": nu, "x": x, "value": result.value,
               "abs_error_estimate": result.abs_error_estimate,
               "terms_used": result.terms_used}
    _emit(_format_row(row, args.fmt), args.out)


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
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def cmd_dconst(args) -> None:
    """Compute D = sup over x of the integral-to-function ratio,
    printed as JSON with the argmax and the theoretical cap 2(nu+n+1)."""
    d = d_constant(args.nu, args.n)
    payload = {"nu": args.nu, "n": args.n, "value": round(d.value, 4),
               "argmax_x": float(f"{d.argmax_x:.6g}"),
               "bound": 2.0 * (args.nu + args.n + 1.0)}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)


def cmd_table(args) -> None:
    """Emit a reference table: relative errors of the corollary lower
    (table1) or upper (table2) bound, or the computed D constants."""
    artifact = make_table(args.kind)
    text = table_to_csv(artifact) if args.fmt == "csv" else table_to_json(artifact)
    _emit(text, args.out)


def cmd_verify(args) -> None:
    """Run every verification check over the configured grids; exits
    nonzero if any check fails."""
    config = GridConfig.from_json(args.config) if args.config else GridConfig()
    results = run_verification(config)
    text = (verification_to_csv(results) if args.fmt == "csv"
            else verification_to_json(results, config))
    _emit(text, args.out)
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"FAILED checks: {', '.join(failures)}", file=sys.stderr)
        sys.exit(1)


def _not_a_directory(path: str) -> str:
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


def _existing_file(path: str) -> str:
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"{path!r} does not exist")
    return _not_a_directory(path)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="struveint", allow_abbrev=False,
        description="Modified Struve integrals, their bounds, and grid verification.")
    parser.add_argument("--version", action="version",
                        version=f"struveint, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run, *formats):
        sub = commands.add_parser(name, help=" ".join(run.__doc__.split()),
                                  description=run.__doc__, allow_abbrev=False)
        sub.set_defaults(run=run, parser=sub)
        if formats:
            sub.add_argument("--format", dest="fmt", choices=formats, default=formats[0],
                             help="Output format (default: %(default)s).")
        sub.add_argument("--out", type=_not_a_directory,
                         help="Write to a file instead of stdout.")
        return sub

    ev = command("eval", cmd_eval, "text", "csv", "json")
    ev.add_argument("function", choices=EVAL_FUNCTIONS)
    ev.add_argument("--nu", type=float, required=True, help="Order nu.")
    ev.add_argument("--n", type=float, help="Order shift n (integral only).")
    ev.add_argument("--gamma", type=float, help="Damping gamma (integral only).")
    ev.add_argument("--x", type=float, required=True,
                    help="Argument / upper limit x.")
    dc = command("dconst", cmd_dconst)
    dc.add_argument("--nu", type=float, required=True, help="Order nu.")
    dc.add_argument("--n", type=float, default=0.0, help="Order shift n (default: 0).")
    command("table", cmd_table, "csv", "json").add_argument("kind", choices=TABLE_KINDS)
    command("verify", cmd_verify, "csv", "json").add_argument(
        "--config", type=_existing_file, help="Grid configuration as JSON.")
    return parser


def _glue(argv: list[str]) -> list[str]:
    """Joins each value-taking option to the token after it, so that
    argparse reads a value such as ``-1e-3`` or ``-inf`` as a value."""
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_OPTIONS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv: list[str] | None = None) -> None:
    """Run one subcommand on ``argv`` (default: ``sys.argv[1:]``)."""
    try:
        try:
            args = _parser().parse_args(_glue(sys.argv[1:] if argv is None else argv))
            args.run(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout is gone: what is still buffered goes to
        # devnull, so the flush at exit cannot fail again; exit 1, quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except _EVAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
