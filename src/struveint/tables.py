"""Reference-table construction and delimited output.

Builds the two relative-error tables for the corollary bounds on the 2F3
expression (5 orders by 7 arguments), and a table of the computed D
constants.  Emission is deterministic: fixed field order, fixed decimal
formatting, RFC-4180-style CSV quoting via the csv module.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple

from .bounds import corollary_bounds, corollary_middle, d_constant
from .exceptions import DomainError

TABLE_NU = (1.0, 2.5, 5.0, 7.5, 10.0)
TABLE_X = (0.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)
DCONST_NU = (0.0, 1.0, 3.0, 5.0, 10.0)

TABLE_KINDS = ("table1", "table2", "dconstants")

#: Tolerances recorded in the JSON meta block, per table kind.
TABLE_META_TOLERANCES = {
    "table1": {"entry_decimals": 4.0},
    "table2": {"entry_decimals": 4.0},
    "dconstants": {"d_abs_tol": 5e-4, "argmax_xtol": 1e-6},
}


TableArtifact = namedtuple("TableArtifact", "kind rows row_labels col_labels")


def relative_error_tables() -> tuple[TableArtifact, TableArtifact]:
    """Both corollary tables in one sweep.

    Entry convention: reference is the 2F3 expression F; the lower-bound
    table holds (F - L)/F and the upper-bound table (U - F)/F, rounded to
    the 4 decimal places the tables are printed with.
    """
    rows1: list[list[float]] = []
    rows2: list[list[float]] = []
    for nu in TABLE_NU:
        r1: list[float] = []
        r2: list[float] = []
        for x in TABLE_X:
            middle = corollary_middle(nu, x)
            lower, upper = corollary_bounds(nu, x)
            r1.append(round((middle - lower) / middle, 4))
            r2.append(round((upper - middle) / middle, 4))
        rows1.append(r1)
        rows2.append(r2)
    labels = [_fmt_label(x) for x in TABLE_X]
    t1 = TableArtifact("table1", rows1, list(TABLE_NU), labels)
    t2 = TableArtifact("table2", rows2, list(TABLE_NU), labels)
    return t1, t2


def dconstants_table() -> TableArtifact:
    rows = []
    for nu in DCONST_NU:
        d = d_constant(nu, 0.0)
        rows.append(
            [round(d.value, 4), _quant6(d.argmax_x), 2.0 * (nu + 0.0 + 1.0)]
        )
    return TableArtifact(
        "dconstants", rows, list(DCONST_NU), ["D", "argmax_x", "upper_bound"]
    )


def make_table(kind: str) -> TableArtifact:
    if kind == "table1":
        return relative_error_tables()[0]
    if kind == "table2":
        return relative_error_tables()[1]
    if kind == "dconstants":
        return dconstants_table()
    raise DomainError(f"unknown table kind {kind!r}; expected one of {TABLE_KINDS}")


def _fmt_label(v: float) -> str:
    return f"{v:g}"


def _quant6(v: float) -> float:
    # Quantize to 6 significant digits so the CSV round-trips exactly.
    return float(f"{v:.6g}")


def _fmt_entry(kind: str, value: float) -> str:
    if kind in ("table1", "table2"):
        return f"{value:.4f}"
    return f"{value:.6g}"


def table_to_csv(artifact: TableArtifact) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if artifact.kind == "dconstants":
        writer.writerow(["nu"] + artifact.col_labels)
    else:
        writer.writerow(["nu\\x"] + artifact.col_labels)
    for label, row in zip(artifact.row_labels, artifact.rows):
        writer.writerow(
            [_fmt_label(label)] + [_fmt_entry(artifact.kind, v) for v in row]
        )
    return buf.getvalue()


def table_to_json(artifact: TableArtifact) -> str:
    payload = {
        "kind": artifact.kind,
        "rows": artifact.rows,
        "row_labels": artifact.row_labels,
        "col_labels": artifact.col_labels,
        "meta": {"tolerances": TABLE_META_TOLERANCES[artifact.kind]},
    }
    return json.dumps(payload, indent=2) + "\n"
