import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import felogit.cli as cli
from felogit import (
    SimConfig,
    cli_report_schema_path,
    detect_panel_separation,
    detect_pooled_separation,
    existence_rate,
    fit,
    load_csv,
)
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


def test_check_not_utf8_file_exits_1(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(b"id,t,y,x1\n1,1,0,\xff\n1,2,1,2\n")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert err == f"felogit: error: {path}: not UTF-8 text (invalid start byte)\n"


def test_check_directory_exits_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path))
    assert code == 1
    assert err.startswith("felogit: error: ") and err.count("\n") == 1


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


def test_fit_capped_at_max_iter_exits_4_unforced(capsys, tmp_path):
    # the estimate exists, so nothing is forced; one Newton step does not converge
    path = _write(tmp_path, TRIPLE_CSV)
    code, out, _ = run_cli(capsys, "fit", path, "--max-iter", "1")
    assert code == 4
    assert out.splitlines()[0] == "FIT: conditional maximum likelihood estimate"
    assert "converged: False" in out


# x2 never changes within an individual, while x1 does
X2_CONSTANT_CSV = (
    "id,t,y,x1,x2\n"
    "1,1,0,0.5,1.0\n1,2,1,1.5,1.0\n"
    "2,1,1,0.2,2.0\n2,2,0,0.9,2.0\n"
    "3,1,0,0.1,-1.0\n3,2,1,0.4,-1.0\n"
)

# no covariate changes within an individual: every swap vector is zero
NO_VARIATION_CSV = "id,t,y,x1\n1,1,0,0.5\n1,2,1,0.5\n2,1,1,1.5\n2,2,0,1.5\n"

_INLINE_CSV = {
    "SYMMETRIC": SYMMETRIC_CSV,
    "XOR": XOR_CSV,
    "TRIPLE": TRIPLE_CSV,
    "CONSTANT_X": _time_constant_csv((0.7, 2.7)),
    "X2_CONSTANT": X2_CONSTANT_CSV,
    "NO_VARIATION": NO_VARIATION_CSV,
}


def _resolve_args(tmp_path, fixture_path, args):
    """``args`` with FIXTURE and the names of ``_INLINE_CSV`` replaced by paths."""
    return [str(fixture_path) if a == "FIXTURE"
            else _write(tmp_path, _INLINE_CSV[a], f"{a}.csv") if a in _INLINE_CSV else a
            for a in args]


_SEPARATED_PANEL = "SEPARATED: the data are separated; no finite conditional ML estimate exists"


@pytest.mark.parametrize("args, code, lines", [
    pytest.param(("check", "FIXTURE"), 2, [_SEPARATED_PANEL], id="check-separated"),
    pytest.param(("fit", "FIXTURE"), 2, [_SEPARATED_PANEL], id="fit-refused"),
    pytest.param(("pooled-check", "FIXTURE"), 2,
                 ["SEPARATED: the data are separated; no finite pooled logit ML estimate exists"],
                 id="pooled-check-separated"),
    pytest.param(("check", "SYMMETRIC"), 0,
                 ["EXISTS: a unique finite conditional ML estimate exists"], id="check-exists"),
    pytest.param(("pooled-check", "XOR"), 0,
                 ["EXISTS: a unique finite pooled logit ML estimate exists"],
                 id="pooled-check-exists"),
    pytest.param(("check", "CONSTANT_X"), 3,
                 ["RANK-DEFICIENT: the rank condition failed;"
                  " the conditional ML estimate is not identified"], id="check-rank-deficient"),
    pytest.param(("fit", "FIXTURE", "--force"), 4, ["SPURIOUS: separated data"],
                 id="fit-forced-separated"),
    pytest.param(("fit", "CONSTANT_X", "--force"), 4, ["SPURIOUS: rank condition failed"],
                 id="fit-forced-rank-deficient"),
    # no replication reaches the panel QP, so its mean qp_min is left out
    pytest.param(("simulate", "--n", "1", "--T", "1", "--p", "1", "--beta0", "1",
                  "--reps", "3", "--seed", "1"), 0,
                 ["SIMULATION: existence frequencies",
                  "  panel detector: exists fraction 0",
                  "  pooled detector: exists fraction 0, mean qp_min 1"],
                 id="simulate-no-panel-qp"),
])
def test_text_headings_and_exit_codes(capsys, tmp_path, fixture_path, args, code, lines):
    got, out, err = run_cli(capsys, *_resolve_args(tmp_path, fixture_path, args))
    assert (got, err) == (code, "")
    out_lines = out.splitlines()
    assert out_lines[0] == lines[0]
    assert set(lines) <= set(out_lines)


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


@pytest.mark.parametrize("option, value", [("--beta0", "nan"), ("--effect-scale", "inf")])
def test_simulate_nonfinite_design_exits_1(capsys, option, value):
    # a NaN or Infinity token in the payload would not be JSON
    argv = ["simulate", "--n", "5", "--T", "3", "--p", "1", "--beta0", "1.0"]
    code, out, err = run_cli(capsys, *argv, option, value, "--output", "json")
    assert code == 1
    assert out == ""
    assert "must be finite" in err


def test_fit_with_overflowing_hessian_exits_1(capsys, tmp_path):
    # the check decides this panel, but x'x overflows in the Hessian
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 4))
    y = (x + rng.logistic(size=(60, 4)) > 0).astype(int)
    rows = [f"{i + 1},{t + 1},{y[i, t]},{math.ldexp(x[i, t], 660)!r}"
            for i in range(60) for t in range(4)]
    path = _write(tmp_path, "id,t,y,x1\n" + "\n".join(rows) + "\n")
    assert run_cli(capsys, "check", path)[0] == 0
    code, out, err = run_cli(capsys, "fit", path)
    assert code == 1
    assert out == ""
    assert err == ("felogit: error: the score or Hessian is not finite: the covariates"
                   " are too large to evaluate the likelihood; rescale them\n")


SIM_ARGS = ("simulate", "--n", "10", "--T", "4", "--p", "2", "--beta0", "2,-1")


@pytest.mark.parametrize("args, target", [
    (SIM_ARGS, "existence_rate"),
    (("check", "data.csv"), "load_csv"),
    (("fit", "data.csv"), "load_csv"),
])
def test_out_of_memory_exits_1(capsys, monkeypatch, args, target):
    # raised, never allocated: whether a real attempt fails fast or gets the
    # process killed depends on the host's overcommit policy
    message = "Unable to allocate 1.46 TiB for an array with shape (100000000, 2000, 1)"

    def exhausted(*_args, **_kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, exhausted)
    code, out, err = run_cli(capsys, *args)
    assert code == 1
    assert out == ""
    assert err == f"felogit: error: out of memory: {message}\n"


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


def test_json_floats_round_trip_exactly():
    from felogit.cli import dumps_payload

    values = [0.1, 196.0, 1e-6, 5e-324, 1.7976931348623157e308, -0.0]
    text = dumps_payload({"v": values})
    parsed = json.loads(text)["v"]
    assert [v.hex() for v in parsed] == [v.hex() for v in values]  # -0.0 keeps its sign
    assert json.dumps(json.loads(text), indent=2) == text


def _reject_constant(token):
    raise ValueError(f"not JSON: {token}")


_JSON_CALLS = [
    ("check", "FIXTURE"),
    ("pooled-check", "FIXTURE"),
    ("fit", "FIXTURE"),
    ("fit", "FIXTURE", "--force"),
    ("fit", "TRIPLE"),
    ("simulate", "--n", "4", "--T", "3", "--p", "1", "--beta0", "1.0",
     "--reps", "2", "--seed", "1"),
    # rank-deficient panels: checked, refused, and forced (exit 3, 3, 4)
    ("check", "CONSTANT_X"),
    ("fit", "CONSTANT_X"),
    ("fit", "CONSTANT_X", "--force"),
    ("check", "X2_CONSTANT"),
    ("fit", "X2_CONSTANT"),
    ("fit", "X2_CONSTANT", "--force"),
    ("check", "NO_VARIATION"),
    ("fit", "NO_VARIATION"),
    ("fit", "NO_VARIATION", "--force"),
]


def _json_payload(capsys, tmp_path, fixture_path, args):
    _, out, _ = run_cli(capsys, *_resolve_args(tmp_path, fixture_path, args), "--output", "json")
    return json.loads(out, parse_constant=_reject_constant)  # no NaN or Infinity


@pytest.mark.parametrize("args", _JSON_CALLS)
def test_json_payloads_validate_against_schema(capsys, tmp_path, fixture_path, schema, args):
    jsonschema.validate(_json_payload(capsys, tmp_path, fixture_path, args), schema)


def _schema_node(node, schema, value):
    """``node`` with ``$ref`` resolved, and of a ``oneOf`` the branch that
    is not null when ``value`` is not None."""
    while True:
        if "$ref" in node:
            node = schema["definitions"][node["$ref"].rsplit("/", 1)[1]]
        elif "oneOf" in node:
            node = next(n for n in node["oneOf"] if (n.get("type") == "null") == (value is None))
        else:
            return node


def _assert_schema_key_order(value, node, schema, path="payload"):
    node = _schema_node(node, schema, value)
    if isinstance(value, dict) and "properties" in node:
        props = node["properties"]
        assert list(value) == [k for k in props if k in value], path
        for key, item in value.items():
            _assert_schema_key_order(item, props[key], schema, f"{path}.{key}")
    elif isinstance(value, list) and "items" in node:
        for i, item in enumerate(value):
            _assert_schema_key_order(item, node["items"], schema, f"{path}[{i}]")


@pytest.mark.parametrize("args", _JSON_CALLS)
def test_json_keys_follow_the_schema_order(capsys, tmp_path, fixture_path, schema, args):
    # every block is its record's fields in declared order, so reordering a
    # record's fields reorders the JSON, and this test fails
    _assert_schema_key_order(_json_payload(capsys, tmp_path, fixture_path, args), schema, schema)


def _records(obj):
    """``obj`` and every record nested in it through fields, lists and tuples."""
    if dataclasses.is_dataclass(obj):
        yield obj
        for value in vars(obj).values():
            yield from _records(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _records(value)


def _dicts(payload):
    if isinstance(payload, dict):
        yield payload
        for value in payload.values():
            yield from _dicts(value)
    elif isinstance(payload, list):
        for value in payload:
            yield from _dicts(value)


@pytest.mark.parametrize("case", ["check", "pooled-check", "fit", "fit-forced", "simulate"])
def test_payload_builders_neither_alias_nor_change_a_record(tmp_path, fixture_path, case):
    data = load_csv(fixture_path)
    record, build = {
        "check": lambda: (detect_panel_separation(data), cli._existence_payload),
        "pooled-check": lambda: (detect_pooled_separation(data), cli._existence_payload),
        "fit": lambda: (fit(load_csv(_write(tmp_path, TRIPLE_CSV))), cli._fit_payload),
        "fit-forced": lambda: (fit(data, force=True), cli._fit_payload),
        "simulate": lambda: (existence_rate(SimConfig(n=4, T=3, p=1, beta0=[1.0],
                                                      replications=3, seed=1)),
                             cli._simulate_payload),
    }[case]()
    records = list(_records(record))
    fields = [dict(vars(r)) for r in records]
    pickled = pickle.dumps(record)
    payload = build(record)
    cli.dumps_payload(payload)
    for r, before in zip(records, fields):
        assert list(vars(r)) == list(before)
        assert all(vars(r)[k] is v for k, v in before.items())
    assert pickle.dumps(record) == pickled
    record_dicts = {id(vars(r)) for r in records}
    assert not any(id(d) in record_dicts for d in _dicts(payload))


# x_2 - x_1 = -2e308 in individual 1 is not a float
OVERFLOW_CSV = (
    "id,t,y,x1\n"
    "1,1,1,1e308\n1,2,0,-1e308\n1,3,0,0\n"
    "2,1,1,0\n2,2,0,1\n2,3,1,2\n"
    "3,1,0,1\n3,2,1,0\n3,3,0,3\n"
)


# every difference is finite, but the largest singular value of the stacked
# differences, about 1.8e308, is not: a rank of 0 from it would be a wrong
# verdict, and "singular_values": [Infinity] is not JSON
OVERFLOW_NORM_CSV = (
    "id,t,y,x1\n"
    "1,1,0,0\n1,2,1,1e308\n1,3,1,1.5e308\n"
    "2,1,1,0\n2,2,0,1\n2,3,1,2\n"
    "3,1,0,1\n3,2,1,0\n3,3,0,3\n"
)
_OVERFLOWS = {
    "difference": (OVERFLOW_CSV, "covariates of individual 1 differ by more than the largest"
                                 " float between two periods; rescale them"),
    "singular value": (OVERFLOW_NORM_CSV, "the period differences of the covariates are too"
                                          " large to decide their rank; rescale them"),
}


@pytest.mark.parametrize("args", [
    ("check",), ("check", "--output", "json"), ("fit",), ("fit", "--force"),
])
@pytest.mark.parametrize("overflow", _OVERFLOWS)
def test_overflowing_differences_exit_1_with_one_error_line(capsys, tmp_path, args, overflow):
    # warnings are errors under pytest
    text, message = _OVERFLOWS[overflow]
    code, out, err = run_cli(capsys, args[0], _write(tmp_path, text), *args[1:])
    assert (code, out) == (1, "")
    assert err == f"felogit: error: {message}\n"


@pytest.mark.parametrize("overflow", _OVERFLOWS)
def test_pooled_check_decides_the_overflowing_panel(capsys, tmp_path, overflow):
    code, out, err = run_cli(capsys, "pooled-check", _write(tmp_path, _OVERFLOWS[overflow][0]))
    assert (code, err) == (0, "")
    assert out.startswith("EXISTS: ")


def test_one_parser_serves_every_call_with_no_option_carried_over(capsys, fixture_path):
    path = str(fixture_path)
    assert cli._parser() is cli._parser()
    code, out, _ = run_cli(capsys, "fit", path, "--force", "--output", "json")
    assert code == 4 and json.loads(out)["options"]["force"] is True
    code, out, _ = run_cli(capsys, "fit", path, "--output", "json")
    assert code == 2 and json.loads(out)["options"]["force"] is False
    code, out, _ = run_cli(capsys, "check", path, "--tol", "1e-3", "--output", "json")
    assert code == 2 and json.loads(out)["existence"]["tolerance"] == 1e-3
    code, out, _ = run_cli(capsys, "check", path, "--output", "json")
    assert code == 2 and json.loads(out)["existence"]["tolerance"] == 1e-8


def test_check_and_fit_json_do_not_depend_on_row_order(capsys, tmp_path):
    # a panel of the wide benchmark design (n=20 000, T=5, p=2), written
    # grouped by id and ascending t, which the loader takes without a sort,
    # and with its rows shuffled, which it sorts
    rng = np.random.default_rng(0)
    n, T = 20_000, 5
    x = rng.standard_normal((n, T, 2))
    effects = rng.standard_normal(n)
    y = (x @ np.array([1.0, -0.5]) + effects[:, None] + rng.logistic(size=(n, T)) > 0)
    ids, periods = np.indices((n, T)) + 1
    cells = np.column_stack([ids.ravel(), periods.ravel(), y.ravel(), x.reshape(-1, 2)])
    lines = [f"{int(i)},{int(t)},{int(v)},{a!r},{b!r}" for i, t, v, a, b in cells.tolist()]
    grouped = _write(tmp_path, "\n".join(["id,t,y,x1,x2"] + lines) + "\n", "grouped.csv")
    rng.shuffle(lines)
    shuffled = _write(tmp_path, "\n".join(["id,t,y,x1,x2"] + lines) + "\n", "shuffled.csv")
    for command in ("check", "fit"):
        results = []
        for path in (grouped, shuffled):
            code, out, err = run_cli(capsys, command, path, "--output", "json")
            payload = json.loads(out)
            assert payload.pop("input") == path
            results.append((code, payload, err))
        assert results[0] == results[1]
        assert results[0][0] == 0


@pytest.mark.parametrize("args, code", [
    (("check", "FIXTURE", "--output", "json"), 2),
    (("simulate", "--n", "4", "--T", "3", "--p", "1", "--beta0", "1.0", "--reps", "2"), 0),
])
def test_closed_stdout_keeps_the_exit_code_and_writes_no_error(fixture_path, args, code):
    # the pipe's read end is closed before felogit starts, so every write fails
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [str(fixture_path) if a == "FIXTURE" else a for a in args]
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "felogit", *argv], stdout=write,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (code, b"")
