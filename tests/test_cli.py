"""End-to-end tests of the command-line interface."""

import json

import pytest
from click.testing import CliRunner

from struveint.cli import cli


@pytest.fixture()
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# eval


def test_eval_struve_l(runner):
    result = runner.invoke(cli, ["eval", "struve-l", "--nu", "0", "--x", "1"])
    assert result.exit_code == 0
    assert "value = 0.7102431859" in result.output
    assert "abs_error_estimate" in result.output


def test_eval_struve_l_at_zero(runner):
    result = runner.invoke(cli, ["eval", "struve-l", "--nu", "0", "--x", "0"])
    assert result.exit_code == 0
    assert "value = 0" in result.output


def test_eval_struve_l_scaled(runner):
    result = runner.invoke(
        cli, ["eval", "struve-l-scaled", "--nu", "0", "--x", "400"]
    )
    assert result.exit_code == 0
    assert "value = 0.01995335628" in result.output


def test_eval_integral_undamped(runner):
    result = runner.invoke(
        cli,
        ["eval", "integral", "--gamma", "0", "--nu", "0", "--n", "0", "--x", "1"],
    )
    assert result.exit_code == 0
    assert "value = 0.3364726286" in result.output


def test_eval_integral_json(runner):
    result = runner.invoke(
        cli,
        ["eval", "integral", "--gamma", "0.5", "--nu", "0", "--n", "0",
         "--x", "1", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["value"] - 0.2419096964687127) < 1e-10
    assert payload["abs_error_estimate"] >= 0.0


def test_eval_integral_csv(runner):
    result = runner.invoke(
        cli,
        ["eval", "integral", "--nu", "0", "--x", "1", "--format", "csv"],
    )
    assert result.exit_code == 0
    header, row = result.output.strip().split("\n")
    assert header.split(",")[:2] == ["function", "gamma"]
    assert row.split(",")[5] == "0.3364726286"


def test_eval_domain_error_exit_code(runner):
    result = runner.invoke(cli, ["eval", "struve-l", "--nu", "-2", "--x", "1"])
    assert result.exit_code == 1
    assert "must exceed -3/2" in result.output


def test_eval_rejects_stray_options(runner):
    result = runner.invoke(
        cli, ["eval", "struve-l", "--nu", "0", "--x", "1", "--gamma", "0.5"]
    )
    assert result.exit_code == 2


def test_eval_unknown_function(runner):
    result = runner.invoke(cli, ["eval", "not-a-function", "--nu", "0", "--x", "1"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# dconst


def test_dconst_reference_value(runner):
    result = runner.invoke(cli, ["dconst", "--nu", "0", "--n", "0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["value"] - 1.109) <= 1e-3
    assert payload["bound"] == 2.0
    assert 5.0 < payload["argmax_x"] < 5.5


def test_dconst_other_orders(runner):
    for nu, want in (("3", 1.693), ("1", 1.331)):
        result = runner.invoke(cli, ["dconst", "--nu", nu, "--n", "0"])
        payload = json.loads(result.output)
        assert abs(payload["value"] - want) <= 1e-3


def test_dconst_domain_error(runner):
    result = runner.invoke(cli, ["dconst", "--nu", "-0.5", "--n", "0"])
    assert result.exit_code == 1
    assert "nu > -(n+1)/2" in result.output


# ---------------------------------------------------------------------------
# table


def test_table_csv_to_file(runner, tmp_path):
    out = tmp_path / "t1.csv"
    result = runner.invoke(cli, ["table", "table1", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "nu\\x,0.5,5,10,25,50,100,250"
    assert lines[1].split(",")[1] == "0.4959"


def test_table_json(runner):
    result = runner.invoke(cli, ["table", "table2", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "table2"
    assert abs(payload["rows"][0][0] - 0.0041) <= 2e-4


def test_table_dconstants(runner):
    result = runner.invoke(cli, ["table", "dconstants"])
    assert result.exit_code == 0
    assert result.output.startswith("nu,D,argmax_x,upper_bound\n")


def test_table_byte_identical_across_runs(runner):
    first = runner.invoke(cli, ["table", "table1"])
    second = runner.invoke(cli, ["table", "table1"])
    assert first.output == second.output
    jf = runner.invoke(cli, ["table", "dconstants", "--format", "json"])
    js = runner.invoke(cli, ["table", "dconstants", "--format", "json"])
    assert jf.output == js.output


# ---------------------------------------------------------------------------
# verify


def test_verify_reports_and_exit_code(runner, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {
                "nu_values": [0.0],
                "n_values": [0.0],
                "gamma_values": [0.0, 0.5],
                "x_values": [0.5, 1.0],
            }
        )
    )
    result = runner.invoke(cli, ["verify", "--config", str(config)])
    # the large-x tightness check records its one genuine shortfall
    # (bi5 at nu=1), so the run reports failure honestly
    assert result.exit_code == 1
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("check,status")
    by_name = {line.split(",")[0]: line for line in lines[1:] if "," in line}
    assert ",pass," in by_name["oracle_triangle"]
    assert ",pass," in by_name["ordering"]
    assert ",fail," in by_name["tightness_large_x"]
    assert "FAILED checks: tightness_large_x" in result.output


def test_verify_json_format(runner, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(
        json.dumps(
            {
                "nu_values": [0.0],
                "n_values": [0.0],
                "gamma_values": [0.95],
                "x_values": [1.0],
            }
        )
    )
    result = runner.invoke(cli, ["verify", "--config", str(config), "--format", "json"])
    start = result.output.index("{")
    payload = json.loads(result.output[start : result.output.rindex("}") + 1])
    checks = {c["name"]: c for c in payload["checks"]}
    # gamma = 0.95 exceeds 1/D for nu = 0, so bi7/bi8 are skip-reported
    assert checks["ordering"]["skipped"] > 0
    assert checks["ordering"]["status"] == "pass"


def test_verify_bad_config(runner, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"nu_values": [0.0], "mystery": 1}))
    result = runner.invoke(cli, ["verify", "--config", str(config)])
    assert result.exit_code == 1
    assert "unknown config keys" in result.output


@pytest.mark.parametrize(
    "raw",
    [
        {"x_values": 5},
        {"x_values": ["a"]},
        {"tolerances": {"oracle_rel": "abc"}},
        {"tolerances": {"oracle_rel": float("nan")}},
    ],
    ids=["values-not-a-list", "value-not-a-number", "tolerance-not-a-number",
         "tolerance-nan"],
)
def test_verify_malformed_config_values(runner, tmp_path, raw):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps(raw))
    result = runner.invoke(cli, ["verify", "--config", str(config)])
    assert result.exit_code == 1
    assert "error:" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "x_values",
    [[800.0], [1e-170, 1e-160]],
    ids=["quadrature-overflow", "oracle-underflow"],
)
def test_verify_evaluation_error_exits_cleanly(runner, tmp_path, x_values):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"x_values": x_values}))
    result = runner.invoke(cli, ["verify", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


_BAD_CAP_COMMANDS = {
    "eval": ["eval", "struve-l", "--nu", "0", "--x", "1"],
    # d_constant is memoized per (nu, n): no other test uses nu = 0.123, so
    # every invocation reads the cap.
    "dconst": ["dconst", "--nu", "0.123"],
    "table": ["table", "table1"],
    "verify": ["verify"],
}


@pytest.mark.parametrize(
    "cap,command",
    [(cap, command) for cap in ("abc", "0") for command in _BAD_CAP_COMMANDS]
    + [("5", "dconst"), ("5", "table")],
)
def test_bad_term_cap_exits_cleanly(cap, command):
    runner = CliRunner(env={"STRUVE_MAX_TERMS": cap})
    result = runner.invoke(cli, _BAD_CAP_COMMANDS[command])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
