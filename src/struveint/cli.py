"""Command-line front end.

Subcommands:
  eval    evaluate struve-l, struve-l-scaled, or the damped integral
  dconst  compute the supremum constant D for one (nu, n)
  table   emit a reference table (table1, table2, dconstants)
  verify  run the inequality-verification grid and report per check

Every output goes through one CSV writer (the csv module: RFC-4180-style
quoting, "\n" line ends) and one JSON writer (indent 2, a trailing newline).
Emission is deterministic: fixed field order, fixed decimal formatting.  Usage
errors exit 2; an evaluation failure or a file that cannot be opened prints
"error: ..." and exits 1.  Each subcommand imports the modules it runs when
it runs, so --help and --version load none of the numerics.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys

from . import TABLE_KINDS, __version__
from .exceptions import ConvergenceError, DomainError, DSolverError, ToleranceNotMetError

EVAL_FUNCTIONS = ("struve-l", "struve-l-scaled", "integral")

#: Failures reported as "error: ..." with exit status 1: evaluation
#: errors, and an OSError from a file that cannot be opened.
_EVAL_ERRORS = (DomainError, ConvergenceError, ToleranceNotMetError, DSolverError,
               ArithmeticError, OSError)

#: The options that take a value, even one that starts with "-" (``_glue``).
_VALUE_OPTIONS = {"--nu", "--n", "--gamma", "--x", "--format", "--out", "--config"}

#: The fields of one verify check, in output order; the CSV calls "name" "check".
_VERIFY_FIELDS = ("name", "status", "points", "skipped", "worst_margin", "witness", "note")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _write_csv(rows, out: str | None) -> None:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    _emit(buf.getvalue(), out)


def _write_json(payload: dict, out: str | None) -> None:
    import json

    _emit(json.dumps(payload, indent=2) + "\n", out)


def cmd_eval(args) -> None:
    """Evaluate one function and print its value and error estimate."""
    function, nu, n, gamma, x = args.function, args.nu, args.n, args.gamma, args.x
    if function != "integral" and (n is not None or gamma is not None):
        args.parser.error("--n and --gamma only apply to 'integral'")
    if function == "integral":
        from .integrals import IntegralSpec, integral_quadrature

        spec = IntegralSpec(gamma if gamma is not None else 0.0,
                            nu, n if n is not None else 0.0, x)
        q = integral_quadrature(spec)
        row = {"function": function, "gamma": spec.gamma, "nu": spec.nu,
               "n": spec.n, "x": spec.x, "value": q.value,
               "abs_error_estimate": q.abs_error_estimate,
               "subdivisions": q.subdivisions}
    else:
        from .specfun import struve_l, struve_l_scaled

        fn = {"struve-l": struve_l, "struve-l-scaled": struve_l_scaled}[function]
        result = fn(nu, x)
        row = {"function": function, "nu": nu, "x": x, "value": result.value,
               "abs_error_estimate": result.abs_error_estimate,
               "terms_used": result.terms_used}
    if args.fmt == "json":
        _write_json(row, args.out)
    elif args.fmt == "csv":
        _write_csv([list(row), map(_num, row.values())], args.out)
    else:
        _emit("".join(f"{k} = {_num(v)}\n" for k, v in row.items()), args.out)


def _num(v) -> str:
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def cmd_dconst(args) -> None:
    """Compute D = sup over x of the integral-to-function ratio,
    printed as JSON with the argmax and the theoretical cap 2(nu+n+1)."""
    from .bounds import d_constant

    d = d_constant(args.nu, args.n)
    payload = {"nu": args.nu, "n": args.n, "value": round(d.value, 4),
               "argmax_x": float(f"{d.argmax_x:.6g}"),
               "bound": 2.0 * (args.nu + args.n + 1.0)}
    _write_json(payload, args.out)


def cmd_table(args) -> None:
    """Emit a reference table: relative errors of the corollary lower
    (table1) or upper (table2) bound, or the computed D constants."""
    from .tables import TABLE_META_TOLERANCES, make_table

    kind, rows, row_labels, col_labels = make_table(args.kind)
    if args.fmt == "json":
        _write_json({"kind": kind, "rows": rows, "row_labels": row_labels,
                     "col_labels": col_labels,
                     "meta": {"tolerances": TABLE_META_TOLERANCES[kind]}}, args.out)
        return
    entry = "{:.6g}" if kind == "dconstants" else "{:.4f}"
    _write_csv([["nu" if kind == "dconstants" else "nu\\x", *col_labels]]
               + [[f"{label:g}", *map(entry.format, row)]
                  for label, row in zip(row_labels, rows)], args.out)


def cmd_verify(args) -> None:
    """Run every verification check over the configured grids; exits
    nonzero if any check fails."""
    from .gridcheck import GridConfig, run_verification

    config = GridConfig.from_json(args.config) if args.config else GridConfig()
    results = run_verification(config)
    rows = [[r.name, "pass" if r.passed else "fail", r.points, r.skipped,
             f"{r.worst_margin:.6g}", r.witness, r.note] for r in results]
    if args.fmt == "csv":
        _write_csv([["check", *_VERIFY_FIELDS[1:]], *rows], args.out)
    else:
        checks = [dict(zip(_VERIFY_FIELDS, row), worst_margin=float(row[4])) for row in rows]
        _write_json({"kind": "verification", "passed": all(r.passed for r in results),
                     "checks": checks, "meta": {"tolerances": config.tolerances}},
                    args.out)
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


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops an OSError here; one from a closed stdout must reach main
        if file is None or file is not sys.stdout:
            return super()._print_message(message, file)
        file.write(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            if args.out is not None and not os.path.exists(os.path.dirname(args.out) or "."):
                # before the run, which may be long, not after it
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
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
