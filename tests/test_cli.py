"""End-to-end tests of the command-line interface."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from struveint.bounds import _d_constant_cached
from struveint.cli import main


class _Tee(io.StringIO):
    """Captures one stream and copies it to the interleaved output."""

    def __init__(self, output):
        super().__init__()
        self.output = output

    def write(self, text):
        self.output.write(text)
        return super().write(text)


class Runner:
    """Calls ``main(args)`` in-process with stdout and stderr captured and
    the environment changed by ``env`` (a value of None unsets a variable)."""

    def __init__(self, env=None):
        self.env = env or {}

    def invoke(self, args):
        output = io.StringIO()
        stdout, stderr = _Tee(output), _Tee(output)
        exit_code, exception = 0, None
        with mock.patch.dict(os.environ), redirect_stdout(stdout), redirect_stderr(stderr):
            for name, value in self.env.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
            try:
                main(args)
            except SystemExit as exc:
                exit_code = exc.code or 0
                exception = exc if exit_code else None
        return SimpleNamespace(exit_code=exit_code, exception=exception,
                               stdout=stdout.getvalue(), stderr=stderr.getvalue(),
                               output=output.getvalue())


@pytest.fixture()
def runner():
    return Runner()


# ---------------------------------------------------------------------------
# eval


def test_eval_struve_l(runner):
    result = runner.invoke(["eval", "struve-l", "--nu", "0", "--x", "1"])
    assert result.exit_code == 0
    assert "value = 0.7102431859" in result.output
    assert "abs_error_estimate" in result.output


def test_eval_struve_l_at_zero(runner):
    result = runner.invoke(["eval", "struve-l", "--nu", "0", "--x", "0"])
    assert result.exit_code == 0
    assert "value = 0" in result.output


def test_eval_struve_l_scaled(runner):
    result = runner.invoke(
        ["eval", "struve-l-scaled", "--nu", "0", "--x", "400"]
    )
    assert result.exit_code == 0
    assert "value = 0.01995335628" in result.output


def test_eval_integral_undamped(runner):
    result = runner.invoke(
        ["eval", "integral", "--gamma", "0", "--nu", "0", "--n", "0", "--x", "1"],
    )
    assert result.exit_code == 0
    assert "value = 0.3364726286" in result.output


def test_eval_integral_json(runner):
    result = runner.invoke(
        ["eval", "integral", "--gamma", "0.5", "--nu", "0", "--n", "0",
         "--x", "1", "--format", "json"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["value"] - 0.2419096964687127) < 1e-10
    assert payload["abs_error_estimate"] >= 0.0


def test_eval_integral_csv(runner):
    result = runner.invoke(
        ["eval", "integral", "--nu", "0", "--x", "1", "--format", "csv"],
    )
    assert result.exit_code == 0
    header, row = result.output.strip().split("\n")
    assert header.split(",")[:2] == ["function", "gamma"]
    assert row.split(",")[5] == "0.3364726286"


def test_eval_domain_error_exit_code(runner):
    result = runner.invoke(["eval", "struve-l", "--nu", "-2", "--x", "1"])
    assert result.exit_code == 1
    assert "must exceed -3/2" in result.output


def test_eval_rejects_stray_options(runner):
    result = runner.invoke(
        ["eval", "struve-l", "--nu", "0", "--x", "1", "--gamma", "0.5"]
    )
    assert result.exit_code == 2


def test_eval_unknown_function(runner):
    result = runner.invoke(["eval", "not-a-function", "--nu", "0", "--x", "1"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# dconst


def test_dconst_reference_value(runner):
    result = runner.invoke(["dconst", "--nu", "0", "--n", "0"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert abs(payload["value"] - 1.109) <= 1e-3
    assert payload["bound"] == 2.0
    assert 5.0 < payload["argmax_x"] < 5.5


def test_dconst_other_orders(runner):
    for nu, want in (("3", 1.693), ("1", 1.331)):
        result = runner.invoke(["dconst", "--nu", nu, "--n", "0"])
        payload = json.loads(result.output)
        assert abs(payload["value"] - want) <= 1e-3


def test_dconst_domain_error(runner):
    result = runner.invoke(["dconst", "--nu", "-0.5", "--n", "0"])
    assert result.exit_code == 1
    assert "nu > -(n+1)/2" in result.output


# ---------------------------------------------------------------------------
# table


def test_table_csv_to_file(runner, tmp_path):
    out = tmp_path / "t1.csv"
    result = runner.invoke(["table", "table1", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "nu\\x,0.5,5,10,25,50,100,250"
    assert lines[1].split(",")[1] == "0.4959"


def test_table_json(runner):
    result = runner.invoke(["table", "table2", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["kind"] == "table2"
    assert abs(payload["rows"][0][0] - 0.0041) <= 2e-4


def test_table_dconstants(runner):
    result = runner.invoke(["table", "dconstants"])
    assert result.exit_code == 0
    assert result.output.startswith("nu,D,argmax_x,upper_bound\n")


def test_table_byte_identical_across_runs(runner):
    first = runner.invoke(["table", "table1"])
    second = runner.invoke(["table", "table1"])
    assert first.output == second.output
    jf = runner.invoke(["table", "dconstants", "--format", "json"])
    js = runner.invoke(["table", "dconstants", "--format", "json"])
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
    result = runner.invoke(["verify", "--config", str(config)])
    # every check holds, so the run exits 0
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("check,status")
    by_name = {line.split(",")[0]: line for line in lines[1:] if "," in line}
    assert ",pass," in by_name["oracle_triangle"]
    assert ",pass," in by_name["ordering"]
    assert ",pass," in by_name["tightness_large_x"]
    assert "FAILED checks" not in result.output


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
    result = runner.invoke(["verify", "--config", str(config), "--format", "json"])
    start = result.output.index("{")
    payload = json.loads(result.output[start : result.output.rindex("}") + 1])
    checks = {c["name"]: c for c in payload["checks"]}
    # gamma = 0.95 exceeds 1/D for nu = 0, so bi7/bi8 are skip-reported
    assert checks["ordering"]["skipped"] > 0
    assert checks["ordering"]["status"] == "pass"


def test_verify_bad_config(runner, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"nu_values": [0.0], "mystery": 1}))
    result = runner.invoke(["verify", "--config", str(config)])
    assert result.exit_code == 1
    assert "unknown config keys" in result.output


@pytest.mark.parametrize(
    "text,message",
    [
        (json.dumps({"x_values": 5}), "x_values must be a list"),
        (json.dumps({"x_values": ["a"]}), "x_values must be a list"),
        (json.dumps({"tolerances": {"oracle_rel": "abc"}}), "must be a finite real"),
        (json.dumps({"tolerances": {"oracle_rel": float("nan")}}),
         "must be a finite real"),
        ("[1, 2]", "must hold a JSON object"),
        ("3", "must hold a JSON object"),
        ("{x_values: [1]", "is not valid JSON"),
    ],
    ids=["values-not-a-list", "value-not-a-number", "tolerance-not-a-number",
         "tolerance-nan", "json-list", "json-number", "not-json"],
)
def test_verify_malformed_config_values(runner, tmp_path, text, message):
    config = tmp_path / "grid.json"
    config.write_text(text)
    result = runner.invoke(["verify", "--config", str(config)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert message in result.stderr
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("name", ["nu_values", "n_values", "gamma_values", "x_values"])
def test_verify_rejects_an_empty_grid(runner, tmp_path, name):
    # an empty list used to certify four checks over 0 points, exit 0
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({name: []}))
    result = runner.invoke(["verify", "--config", str(config)])
    assert result.exit_code == 1
    assert result.stderr == f"error: {name} must not be empty\n"
    assert result.stdout == ""


@pytest.mark.parametrize(
    "x_values",
    [[800.0]],
    ids=["quadrature-overflow"],
)
def test_verify_evaluation_error_exits_cleanly(runner, tmp_path, x_values):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"x_values": x_values}))
    result = runner.invoke(["verify", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


def test_verify_reports_where_the_d_scan_fails(runner, tmp_path):
    # D has no interior maximum at n = 30, so bi7 and bi8 are skipped
    # there instead of ending the run with an error
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"n_values": [0.0, 30.0]}))
    result = runner.invoke(["verify", "--config", str(config)])
    assert result.exit_code == 0
    assert result.stderr == ""
    rows = {line.split(",")[0]: line.split(",") for line in result.stdout.splitlines()}
    assert rows["ordering"][1] == "pass" and int(rows["ordering"][3]) > 0


def test_verify_skips_zero_references(runner, tmp_path):
    # Every integral at x = 1e-170, and all but the n = 0 ones at 1e-160,
    # underflow to exactly 0; no relative error is taken against them.
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"x_values": [1e-170, 1e-160]}))
    result = runner.invoke(["verify", "--config", str(config), "--format", "json"])
    assert not result.stderr.startswith("error: ")
    checks = {c["name"]: c for c in json.loads(result.stdout)["checks"]}
    got = {name: (checks[name]["points"], checks[name]["skipped"])
           for name in ("oracle_triangle", "closed_form_agreement", "ordering",
                        "integral_monotonicity")}
    assert got == {
        "oracle_triangle": (16, 80),
        "closed_form_agreement": (4, 4),
        "ordering": (78, 678),
        "integral_monotonicity": (16, 32),
    }
    for name in ("oracle_triangle", "closed_form_agreement", "integral_monotonicity"):
        assert checks[name]["status"] == "pass"


_IGNORED_VARIABLE_COMMANDS = {
    "eval": ["eval", "struve-l", "--nu", "0", "--x", "1"],
    "dconst": ["dconst", "--nu", "0.123"],
    "table": ["table", "table1"],
    "verify": ["verify", "--config"],
}


@pytest.mark.parametrize("command", list(_IGNORED_VARIABLE_COMMANDS))
@pytest.mark.parametrize("value", ["abc", "0", "5"])
def test_term_cap_variable_is_ignored(value, command, tmp_path):
    # The series term cap follows from x alone: STRUVE_MAX_TERMS, valid
    # or not, must change no output.
    args = list(_IGNORED_VARIABLE_COMMANDS[command])
    if command == "verify":
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"nu_values": [0.0], "n_values": [0.0, 0.5],
                                      "gamma_values": [0.5], "x_values": [1.0, 20.0]}))
        args.append(str(config))
    # d_constant is memoized per (nu, n); the run with the variable set
    # must do its own D scans
    _d_constant_cached.cache_clear()
    with_variable = Runner(env={"STRUVE_MAX_TERMS": value}).invoke(args)
    without = Runner(env={"STRUVE_MAX_TERMS": None}).invoke(args)
    assert not with_variable.stderr.startswith("error: ")
    assert with_variable.stdout == without.stdout
    assert with_variable.exit_code == without.exit_code


# ---------------------------------------------------------------------------
# arguments, closed pipes and files that cannot be opened


def _child(args, env=(), **kwargs):
    """Runs the CLI in a fresh process, with ``env`` added to the environment."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "struveint.cli", *args],
        env={**os.environ, "PYTHONPATH": str(src), **dict(env)},
        stderr=subprocess.PIPE, text=True, check=False, timeout=120, **kwargs,
    )


@pytest.mark.parametrize("spelled,plain", [("-1e-3", "-0.001"), ("-2E-1", "-0.2")])
def test_option_value_may_start_with_a_dash(runner, spelled, plain):
    # argparse alone reads "-1e-3" as an option and rejects --nu
    got = runner.invoke(["eval", "struve-l", "--nu", spelled, "--x", "1"])
    want = runner.invoke(["eval", "struve-l", "--nu", plain, "--x", "1"])
    assert (got.exit_code, got.stdout) == (0, want.stdout)
    assert f"\nnu = {plain}\n" in got.stdout


@pytest.mark.parametrize("nu", ["-inf", "-nan"])
def test_eval_non_finite_order_is_an_error(runner, nu):
    result = runner.invoke(["eval", "struve-l", "--nu", nu, "--x", "1"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: modified Struve order must exceed -3/2")
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "struve-l", "--nu", "0", "--x", "1", "--for", "json"],
        ["verify", "--config", "{tmp}/missing.json"],
        ["verify", "--config", "{tmp}"],
        ["table", "table1", "--out", "{tmp}"],
        [],
    ],
    ids=["abbreviated-option", "missing-config", "config-is-a-directory",
         "out-is-a-directory", "no-subcommand"],
)
def test_usage_errors_exit_2(runner, tmp_path, args):
    result = runner.invoke([arg.format(tmp=tmp_path) for arg in args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_quietly(unbuffered):
    # `struveint ... | true`: the reader is gone before the child writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child(["eval", "struve-l", "--nu", "0", "--x", "1"],
                      env={"PYTHONUNBUFFERED": unbuffered}, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.parametrize("command", ["eval", "table", "verify"])
def test_out_that_cannot_be_opened_is_an_error(command, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"nu_values": [0.0], "n_values": [0.0],
                                  "gamma_values": [0.5], "x_values": [1.0]}))
    args = {"eval": ["eval", "struve-l", "--nu", "0", "--x", "1"],
            "table": ["table", "table1"],
            "verify": ["verify", "--config", str(config)]}[command]
    proc = _child([*args, "--out", str(tmp_path / "missing" / "out.csv")],
                  stdout=subprocess.PIPE)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: [Errno 2] No such file or directory")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# default output, byte for byte: a change that moves a printed cell
# updates the literal here and names the move in CHANGES.md

VERIFY_CSV = r"""check,status,points,skipped,worst_margin,witness,note
oracle_triangle,pass,192,0,9.99995e-10,gamma=0.9 nu=-0.4 n=0 x=20,rel tol 1e-09
closed_form_agreement,pass,16,0,9.99964e-11,nu=-0.4 x=0.5,rel tol 1e-10
ordering,pass,616,896,0.000146805,bound=bi7 gamma=0.25 nu=-0.4 n=2 x=20,relative slack 1e-12
equality_boundary,pass,18,0,9.99962e-11,pair=bi2-integral n=2.5 x=0.5,rel tol 1e-10
tightness_large_x,pass,8,0,0.00167367,bound=bi1 gamma=0 nu=0 x=300 ratio=0.998326,ratio <= 1 and |x(1-ratio) - c_B| <= 10|c_B|/x
tightness_small_x,pass,6,0,8.57142e-07,nu=0 n=1 x=0.01 ratio=1,"window [1, 1+0.001]"
asymptote_large_x,pass,4,0,0.0174448,gamma=0 nu=0 x=300,|x(1-I/A) - c_A| <= 10|c_A|/x
d_properties,pass,2005,0,0.00050991,prop=scan nu=0 n=0 x=5.17148,scan slack 0.0005
struve_monotonicity,pass,53,0,4.12231e-09,nu=0.5 x=20,strict decrease in order
integral_monotonicity,pass,144,0,0.274739,gamma=0.9 nu=3 n=0 x1=5 x2=20,strict increase in x
"""

TABLE1_CSV = r"""nu\x,0.5,5,10,25,50,100,250
1,0.4959,0.2540,0.1089,0.0409,0.0202,0.0101,0.0040
2.5,0.7979,0.6225,0.3708,0.1539,0.0784,0.0396,0.0159
5,0.8992,0.8229,0.6374,0.3130,0.1678,0.0869,0.0355
7.5,0.9329,0.8923,0.7741,0.4407,0.2482,0.1318,0.0547
10,0.9498,0.9249,0.8472,0.5426,0.3205,0.1745,0.0735
"""

TABLE2_CSV = r"""nu\x,0.5,5,10,25,50,100,250
1,0.0041,0.1939,0.1981,0.1034,0.0558,0.0290,0.0118
2.5,0.0069,0.5184,0.9270,0.6847,0.4073,0.2213,0.0930
5,0.0062,0.5679,1.6268,2.0626,1.4411,0.8462,0.3721
7.5,0.0051,0.4985,1.7368,3.4231,2.7983,1.7750,0.8169
10,0.0043,0.4285,1.6301,4.5028,4.2818,2.9312,1.4119
"""

DCONSTANTS_CSV = r"""nu,D,argmax_x,upper_bound
0,1.1083,5.20441,2
1,1.3302,5.31094,4
3,1.6926,6.21714,8
5,1.9891,7.08623,12
10,2.5838,8.93042,22
"""


@pytest.mark.parametrize(
    "args,want",
    [
        (["verify", "--format", "csv"], VERIFY_CSV),
        (["table", "table1", "--format", "csv"], TABLE1_CSV),
        (["table", "table2", "--format", "csv"], TABLE2_CSV),
        (["table", "dconstants", "--format", "csv"], DCONSTANTS_CSV),
    ],
    ids=["verify", "table1", "table2", "dconstants"],
)
def test_default_csv_output_is_pinned(runner, args, want):
    result = runner.invoke(args)
    assert (result.exit_code, result.stdout) == (0, want)
