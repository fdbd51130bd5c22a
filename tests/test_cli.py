import json
import math

import jsonschema
import numpy as np
import pytest

from felogit import cli_report_schema_path
from felogit.cli import main


@pytest.fixture(scope="module")
def schema():
    return json.loads(cli_report_schema_path().read_text())


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TRIPLE_CSV = (
    "id,t,y,x1\n"
    "1,1,0,0.0\n1,2,1,1.0\n"
    "2,1,0,1.0\n2,2,1,0.0\n"
    "3,1,0,1.0\n3,2,1,0.0\n"
)

SYMMETRIC_CSV = (
    "id,t,y,x1\n"
    "1,1,0,0.0\n1,2,1,1.0\n"
    "2,1,0,1.0\n2,2,1,0.0\n"
)

XOR_CSV = (
    "id,t,y,x1\n"
    "1,1,0,0.0\n1,2,1,1.0\n"
    "2,1,1,0.0\n2,2,0,1.0\n"
)

SINGLE_CLASS_CSV = "id,t,y,x1\n1,1,1,0.3\n1,2,1,0.9\n"


def test_check_fixture_exits_2(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "check", str(fixture_path))
    assert code == 2
    assert "SEPARATED" in out
    assert "separating direction" in out


def test_check_symmetric_exits_0(capsys, tmp_path):
    path = _write(tmp_path, SYMMETRIC_CSV)
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert "EXISTS" in out


def test_check_rank_deficient_exits_3(capsys, tmp_path):
    path = _write(tmp_path, "id,t,y,x1\n1,1,0,0.5\n1,2,1,0.5\n")
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 3
    assert "RANK-DEFICIENT" in out


def _time_constant_csv(values):
    # T = 7, y = (1, 1, 1, 1, 1, 0, 0), each individual's x1 fixed over time
    y = [1, 1, 1, 1, 1, 0, 0]
    rows = [f"{i},{t + 1},{y[t]},{v}" for i, v in enumerate(values, start=1) for t in range(7)]
    return "id,t,y,x1\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("values", [(0.7,), (0.7, 2.7)])
def test_time_constant_covariate_exits_3_and_fit_refuses(capsys, tmp_path, values):
    path = _write(tmp_path, _time_constant_csv(values))
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 3
    assert "RANK-DEFICIENT" in out
    code, out, _ = run_cli(capsys, "fit", path)
    assert code == 3
    assert "refusing to estimate" in out
    assert "coef" not in out


def test_check_long_panel_is_decided(capsys, tmp_path):
    # T = 30 with k = 15: C(30, 15) ~ 1.6e8 alternatives per individual
    rng = np.random.default_rng(83)
    rows = []
    for i in range(1, 21):
        ones = set(rng.permutation(30)[:15].tolist())
        rows += [f"{i},{t + 1},{int(t in ones)},{rng.standard_normal():.6f}" for t in range(30)]
    path = _write(tmp_path, "id,t,y,x1\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(capsys, "check", path, "--output", "json")
    assert code == 0, err
    assert json.loads(out)["existence"]["status"] == "exists_unique"
    # the Hessian comes from the recursion, so fit has no limit on C(T, k)
    code, out, err = run_cli(capsys, "fit", path, "--output", "json")
    assert code == 0, err
    assert err == ""
    payload = json.loads(out)
    assert payload["fit"]["converged"] is True


def test_seed_is_a_simulate_option_only(capsys, fixture_path):
    code, _, err = run_cli(capsys, "check", str(fixture_path), "--seed", "1")
    assert code == 1
    assert "--seed" in err


def test_check_malformed_csv_exits_1(capsys, tmp_path):
    path = _write(tmp_path, "id,t,y,x1\n1,1,0,zzz\n")
    code, _, err = run_cli(capsys, "check", path)
    assert code == 1
    assert "parse error" in err


@pytest.mark.parametrize("rows, column", [
    ("99999999999999999999,1,0,0.1\n99999999999999999999,2,1,0.2\n", "id"),
    ("-9223372036854775809,1,0,0.1\n-9223372036854775809,2,1,0.2\n", "id"),
    ("1,9223372036854775808,0,0.1\n1,2,1,0.2\n", "t"),
])
def test_check_integer_outside_int64_exits_1(capsys, tmp_path, rows, column):
    path = _write(tmp_path, "id,t,y,x1\n" + rows)
    code, _, err = run_cli(capsys, "check", path)
    assert code == 1
    assert f"row 2, column '{column}': integer out of range" in err
    assert "Traceback" not in err


def test_check_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "absent.csv"))
    assert code == 1
    assert err


def test_fit_fixture_refuses_without_force(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "fit", str(fixture_path))
    assert code == 2
    assert "refusing to estimate" in out
    assert "estimate" in out
    assert "coef" not in out  # no point estimate printed


def test_fit_fixture_forced_is_spurious(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "fit", str(fixture_path), "--force")
    assert code == 4
    assert "SPURIOUS: separated data" in out
    assert "converged: False" in out


@pytest.mark.parametrize("status,banner", [
    ("separated", "SPURIOUS: separated data"),
    ("rank_deficient", "SPURIOUS: rank condition failed"),
])
def test_forced_fit_banner_names_the_gate_status(capsys, tmp_path, fixture_path, status, banner):
    # the separated fixture, or x1 fixed at 0.7 and 2.7 within two individuals
    path = str(fixture_path) if status == "separated" else _write(
        tmp_path, _time_constant_csv((0.7, 2.7)))
    code, out, _ = run_cli(capsys, "fit", path, "--force")
    assert code == 4
    first = out.splitlines()[0]
    assert first == banner
    assert f"existence gate reported {status}" in out
    # x1 never changes within an individual, so the information is zero
    assert ("standard errors are ridged" in out) == (status == "rank_deficient")
    code, out, _ = run_cli(capsys, "fit", path, "--force", "--output", "json")
    assert json.loads(out)["fit"]["gate"]["status"] == status


def test_fit_triple_closed_form(capsys, tmp_path):
    path = _write(tmp_path, TRIPLE_CSV)
    code, out, _ = run_cli(capsys, "fit", path)
    assert code == 0
    payload_code, json_out, _ = run_cli(capsys, "fit", path, "--output", "json")
    assert payload_code == 0
    payload = json.loads(json_out)
    assert payload["fit"]["beta_hat"][0] == pytest.approx(math.log(0.5), abs=1e-8)
    assert payload["fit"]["converged"] is True


def test_pooled_check_fixture_exits_2(capsys, fixture_path):
    code, out, _ = run_cli(capsys, "pooled-check", str(fixture_path))
    assert code == 2
    assert "SEPARATED" in out


def test_pooled_check_xor_exits_0(capsys, tmp_path):
    path = _write(tmp_path, XOR_CSV)
    code, out, _ = run_cli(capsys, "pooled-check", path)
    assert code == 0


def test_pooled_check_single_class(capsys, tmp_path):
    path = _write(tmp_path, SINGLE_CLASS_CSV)
    code, out, _ = run_cli(capsys, "pooled-check", path)
    assert code == 2
    assert "degenerate: one outcome class" in out


def test_simulate_basic(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "5", "--T", "3", "--p", "1",
        "--beta0", "1.0", "--reps", "3", "--seed", "11",
    )
    assert code == 0
    assert "exists fraction" in out


def test_simulate_single_rep_reports_booleans(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "4", "--T", "3", "--p", "1",
        "--beta0", "0.5", "--reps", "1", "--seed", "3",
    )
    assert code == 0
    assert "panel exists:" in out
    assert "pooled exists:" in out


def test_simulate_usage_error_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "0", "--T", "3", "--p", "1", "--beta0", "1.0"
    )
    assert code == 1
    assert "error" in err


def test_simulate_bad_beta0_exits_1(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "3", "--T", "3", "--p", "1", "--beta0", "a,b"
    )
    assert code == 1


SIM_ARGS = ("simulate", "--n", "10", "--T", "4", "--p", "2", "--beta0", "2,-1")


@pytest.mark.parametrize("args", [
    ("fit", "FIXTURE", "--tol", "inf"),
    ("fit", "FIXTURE", "--force", "--tol", "inf"),
    ("check", "FIXTURE", "--tol", "nan"),
    ("check", "FIXTURE", "--tol", "-1"),
    ("pooled-check", "FIXTURE", "--tol", "0"),
    SIM_ARGS + ("--tol", "nan"),
    # a one-swap separated panel has a QP minimum of exactly 1
    ("check", "FIXTURE", "--tol", "1"),
    ("check", "FIXTURE", "--tol", "1000"),
    ("fit", "FIXTURE", "--tol", "1"),
    ("fit", "FIXTURE", "--force", "--tol", "1000"),
    SIM_ARGS + ("--tol", "1"),
    SIM_ARGS + ("--tol", "1000"),
    ("fit", "FIXTURE", "--max-iter", "-3"),
    ("check", "FIXTURE", "--max-iter", "-1"),
], ids=" ".join)
def test_invalid_tol_or_max_iter_is_a_usage_error(capsys, fixture_path, args):
    argv = [str(fixture_path) if a == "FIXTURE" else a for a in args]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("usage: felogit ")
    option = "--tol" if "--tol" in args else "--max-iter"
    assert f"error: argument {option}: must be " in err


def test_json_round_trip_and_stability(capsys, fixture_path):
    _, out1, _ = run_cli(capsys, "check", str(fixture_path), "--output", "json")
    _, out2, _ = run_cli(capsys, "check", str(fixture_path), "--output", "json")
    assert out1 == out2  # byte-identical across runs
    payload = json.loads(out1)
    from felogit.cli import dumps_payload

    assert json.loads(dumps_payload(payload)) == payload


def test_json_floats_use_17_significant_digits():
    from felogit.cli import dumps_payload

    text = dumps_payload({"v": 0.1, "w": 196.0, "z": 1e-6})
    assert '"v": 0.10000000000000001' in text
    assert '"w": 196.0' in text
    parsed = json.loads(text)
    assert parsed["v"] == 0.1 and parsed["w"] == 196.0 and parsed["z"] == 1e-6


@pytest.mark.parametrize(
    "args",
    [
        ("check", "FIXTURE"),
        ("pooled-check", "FIXTURE"),
        ("fit", "FIXTURE"),
        ("fit", "FIXTURE", "--force"),
        ("fit", "TRIPLE"),
        ("simulate", "--n", "4", "--T", "3", "--p", "1", "--beta0", "1.0",
         "--reps", "2", "--seed", "1"),
    ],
)
def test_json_payloads_validate_against_schema(capsys, tmp_path, fixture_path, schema, args):
    resolved = []
    for a in args:
        if a == "FIXTURE":
            resolved.append(str(fixture_path))
        elif a == "TRIPLE":
            resolved.append(_write(tmp_path, TRIPLE_CSV))
        else:
            resolved.append(a)
    _, out, _ = run_cli(capsys, *resolved, "--output", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
