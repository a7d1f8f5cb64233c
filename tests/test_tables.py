"""Tests for table construction and the delimited output formats."""

import csv
import io
import json

import pytest

from struveint.exceptions import DomainError
from struveint.tables import (
    TABLE_NU,
    TABLE_X,
    dconstants_table,
    make_table,
    relative_error_tables,
    table_to_csv,
    table_to_json,
)


def test_table_dimensions():
    t1, t2 = relative_error_tables()
    for t in (t1, t2):
        assert len(t.rows) == 5
        assert all(len(row) == 7 for row in t.rows)
        assert t.row_labels == list(TABLE_NU)
        assert t.col_labels == [f"{x:g}" for x in TABLE_X]


def test_table_spot_values():
    t1, t2 = relative_error_tables()
    # row/column indices: nu in (1, 2.5, 5, 7.5, 10), x in (0.5 ... 250)
    assert abs(t1.rows[2][3] - 0.3130) <= 2e-4  # nu=5,  x=25
    assert abs(t1.rows[0][0] - 0.4959) <= 2e-4  # nu=1,  x=0.5
    assert abs(t2.rows[4][3] - 4.5028) <= 2e-4  # nu=10, x=25
    assert abs(t2.rows[0][0] - 0.0041) <= 2e-4  # nu=1,  x=0.5


def test_table_entries_are_4dp_quantized():
    t1, _ = relative_error_tables()
    for row in t1.rows:
        for v in row:
            assert v == round(v, 4)


def test_csv_round_trip_exact():
    for kind in ("table1", "table2", "dconstants"):
        artifact = make_table(kind)
        _, *lines = csv.reader(io.StringIO(table_to_csv(artifact)))
        assert [[float(v) for v in line[1:]] for line in lines] == artifact.rows
        assert [float(line[0]) for line in lines] == artifact.row_labels


def test_csv_shape():
    text = table_to_csv(make_table("table1"))
    lines = text.strip().split("\n")
    assert lines[0] == "nu\\x,0.5,5,10,25,50,100,250"
    assert len(lines) == 6
    assert lines[1].startswith("1,")


def test_json_structure():
    payload = json.loads(table_to_json(make_table("table2")))
    assert list(payload) == ["kind", "rows", "row_labels", "col_labels", "meta"]
    assert payload["kind"] == "table2"
    assert len(payload["rows"]) == 5
    assert "tolerances" in payload["meta"]


def test_dconstants_table():
    artifact = dconstants_table()
    assert artifact.col_labels == ["D", "argmax_x", "upper_bound"]
    assert artifact.row_labels == [0.0, 1.0, 3.0, 5.0, 10.0]
    for (d, _, cap), nu in zip(artifact.rows, artifact.row_labels):
        assert 1.0 < d < cap
        assert cap == 2.0 * (nu + 1.0)
    # reference values hold to 1e-3
    for row, want in zip(artifact.rows, (1.109, 1.331, 1.693, 1.990, 2.584)):
        assert abs(row[0] - want) <= 1e-3


def test_make_table_rejects_unknown_kind():
    with pytest.raises(DomainError):
        make_table("table3")


def test_deterministic_output():
    first = table_to_csv(make_table("table1"))
    second = table_to_csv(make_table("table1"))
    assert first == second
    assert table_to_json(make_table("dconstants")) == table_to_json(
        make_table("dconstants")
    )
