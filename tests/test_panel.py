import random
import warnings

import numpy as np
import pytest

from felogit import (
    NoInformativeIndividualsError,
    PanelDataError,
    PanelDataset,
    informative_subset,
    load_csv,
    panel,
)


def _write(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_fixture_dimensions(fixture_panel):
    assert (fixture_panel.n, fixture_panel.T, fixture_panel.p) == (10, 3, 1)
    assert fixture_panel.ids.tolist() == list(range(1, 11))


def test_fixture_values_spot_checks(fixture_panel):
    # id 7 has the tiny covariate; id 10 period 3 has x = 1 and y = 1
    i7 = fixture_panel.ids.tolist().index(7)
    assert fixture_panel.covariates[i7, 0, 0] == 0.001
    i10 = fixture_panel.ids.tolist().index(10)
    assert fixture_panel.covariates[i10, 2, 0] == 1.0
    assert fixture_panel.outcomes[i10].tolist() == [0, 0, 1]


def test_minimal_two_period_csv(tmp_path):
    path = _write(tmp_path, "id,t,y,x1\n1,1,0,0.0\n1,2,1,1.0\n")
    data = load_csv(path)
    assert (data.n, data.T, data.p) == (1, 2, 1)
    assert data.outcomes.tolist() == [[0, 1]]


def test_unbalanced_panel_rejected(tmp_path):
    rows = ["id,t,y,x1"]
    for ident in (1, 2, 3):
        periods = (1, 2) if ident == 3 else (1, 2, 3)
        rows += [f"{ident},{t},0,0.5" for t in periods]
    # keep individual 1 informative so balance is the only problem
    rows[1] = "1,1,1,0.5"
    path = _write(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(PanelDataError, match="unbalanced or duplicated panel"):
        load_csv(path)


def test_duplicate_id_period_rejected(tmp_path):
    path = _write(tmp_path, "id,t,y,x1\n1,1,0,0.1\n1,1,1,0.2\n")
    with pytest.raises(PanelDataError, match="unbalanced or duplicated panel"):
        load_csv(path)


def test_invalid_outcome_rejected(tmp_path):
    path = _write(tmp_path, "id,t,y,x1\n1,1,2,0.1\n1,2,0,0.2\n")
    with pytest.raises(PanelDataError, match="invalid outcome"):
        load_csv(path)


def test_parse_error_reports_row_and_column(tmp_path):
    path = _write(tmp_path, "id,t,y,x1\n1,1,0,0.1\n1,2,0,oops\n")
    with pytest.raises(PanelDataError, match=r"row 3, column 'x1'"):
        load_csv(path)


def test_missing_cell_is_a_hard_error(tmp_path):
    path = _write(tmp_path, "id,t,y,x1\n1,1,0,\n1,2,1,0.2\n")
    with pytest.raises(PanelDataError, match="parse error"):
        load_csv(path)


def test_malformed_header_rejected(tmp_path):
    path = _write(tmp_path, "id,time,y,x1\n1,1,0,0.1\n")
    with pytest.raises(PanelDataError, match="header"):
        load_csv(path)


def test_row_order_does_not_matter(tmp_path, fixture_path):
    lines = fixture_path.read_text().strip().splitlines()
    header, body = lines[0], lines[1:]
    random.Random(3).shuffle(body)
    shuffled = _write(tmp_path, "\n".join([header] + body) + "\n")
    a = load_csv(fixture_path)
    b = load_csv(shuffled)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.periods, b.periods)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.outcomes, b.outcomes)


def test_period_labels_need_not_be_consecutive(tmp_path):
    path = _write(tmp_path, "id,t,y,x1\n5,30,1,0.3\n5,10,0,0.1\n5,20,0,0.2\n")
    data = load_csv(path)
    assert data.periods.tolist() == [[10, 20, 30]]
    assert data.covariates[0, :, 0].tolist() == [0.1, 0.2, 0.3]
    assert data.outcomes[0].tolist() == [0, 0, 1]


def test_informative_subset_drops_constant_sequences(fixture_panel):
    sub, dropped = informative_subset(fixture_panel)
    assert dropped == 3
    assert sub.ids.tolist() == [2, 3, 4, 6, 7, 9, 10]


def test_informative_subset_identity_when_all_informative():
    data = PanelDataset.from_arrays(
        np.zeros((3, 2, 1)), np.array([[0, 1], [1, 0], [0, 1]])
    )
    sub, dropped = informative_subset(data)
    assert dropped == 0
    assert sub is data


def test_informative_subset_idempotent(fixture_panel):
    sub, _ = informative_subset(fixture_panel)
    again, dropped = informative_subset(sub)
    assert dropped == 0
    assert np.array_equal(again.outcomes, sub.outcomes)


def test_no_informative_individuals_is_an_error():
    data = PanelDataset.from_arrays(np.zeros((2, 3, 1)), np.zeros((2, 3), dtype=int))
    with pytest.raises(NoInformativeIndividualsError, match="no informative individuals"):
        informative_subset(data)


def test_dataset_is_immutable(fixture_panel):
    with pytest.raises(ValueError):
        fixture_panel.covariates[0, 0, 0] = 9.9
    with pytest.raises(ValueError):
        fixture_panel.outcomes[0, 0] = 1


def test_duplicate_ids_rejected():
    with pytest.raises(PanelDataError, match="unique"):
        PanelDataset.from_arrays(
            np.zeros((2, 2, 1)), np.array([[0, 1], [0, 1]]), ids=np.array([7, 7])
        )


def test_nonfinite_covariates_rejected():
    x = np.zeros((1, 2, 1))
    x[0, 0, 0] = np.nan
    with pytest.raises(PanelDataError, match="finite"):
        PanelDataset.from_arrays(x, np.array([[0, 1]]))


@pytest.mark.parametrize("text, message", [
    # a duplicate before a bad cell, and a bad cell before a duplicate: the
    # first fault in file order is the one reported
    ("id,t,y,x1\n1,1,0,0.1\n1,1,1,0.2\n1,2,0,oops\n",
     "unbalanced or duplicated panel: duplicate (id,t)=(1,1) at row 3"),
    ("id,t,y,x1\n1,1,0,0.1\n1,2,0,oops\n1,1,1,0.2\n",
     "parse error at row 3, column 'x1': not a number: 'oops'"),
    ("id,t,y,x1\n3,1,0,0.1\n2,1,0,0.2\n3,2,1,0.3\n1,1,1,0.4\n3,3,0,0.5\n2,2,1,0.6\n",
     "unbalanced or duplicated panel: individuals have differing row counts [1, 2, 3]"),
    ("id,t,y,x1\n1,1,0,0.1\n1,2,nan,0.2\n", "parse error at row 3, column 'y': value is not finite"),
    ("id,t,y,x1\n1,1,0,inf\n", "parse error at row 2, column 'x1': value is not finite"),
    ("id,t,y,x1\n1,1,0.5,0.1\n", "invalid outcome at row 2: y must be 0 or 1, got '0.5'"),
    ("id,t,y,x1\n1,x,0,0.1\n", "parse error at row 2, column 't': not an integer: 'x'"),
    ("id,t,y,x1\n1,1,0\n", "parse error at row 2: expected 4 fields, found 3"),
    ("id,t,y,x1\n", "no data rows"),
    ("id,t,y,x1\n\n  \n", "no data rows"),
])
def test_malformed_csv_messages_are_exact(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(PanelDataError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, ids, periods, covariates, outcomes", [
    # whitespace around header names and cells
    ("id , t , y , x1\n 2 , 1 , 0 , 0.5 \n2,2, 1 ,-1.25\n",
     [2], [[1, 2]], [[[0.5], [-1.25]]], [[0, 1]]),
    # outcomes written as floats
    ("id,t,y,x1\n1,1,1.0,0.1\n1,2,0.0,0.2\n",
     [1], [[1, 2]], [[[0.1], [0.2]]], [[1, 0]]),
    # negative and unsorted ids, periods out of order
    ("id,t,y,x1\n3,2,1,0.6\n-7,1,0,0.1\n3,1,0,0.5\n-7,2,1,0.2\n0,2,0,0.4\n0,1,1,0.3\n",
     [-7, 0, 3], [[1, 2]] * 3, [[[0.1], [0.2]], [[0.3], [0.4]], [[0.5], [0.6]]],
     [[0, 1], [1, 0], [0, 1]]),
    # the ends of the int64 range
    ("id,t,y,x1\n9223372036854775807,-9223372036854775808,0,0.5\n"
     "9223372036854775807,9223372036854775807,1,0.25\n",
     [2**63 - 1], [[-2**63, 2**63 - 1]], [[[0.5], [0.25]]], [[0, 1]]),
    # one period per individual
    ("id,t,y,x1,x2\n2,5,1,1.5,2.5\n1,9,0,-0.5,0.25\n",
     [1, 2], [[9], [5]], [[[-0.5, 0.25]], [[1.5, 2.5]]], [[0], [1]]),
    # a leading UTF-8 byte-order mark, as spreadsheet programs write it
    ("\ufeffid,t,y,x1\n1,1,0,0.1\n1,2,1,0.2\n",
     [1], [[1, 2]], [[[0.1], [0.2]]], [[0, 1]]),
])
def test_load_csv_exact_arrays(tmp_path, text, ids, periods, covariates, outcomes):
    data = load_csv(_write(tmp_path, text))
    expected = {
        "ids": np.array(ids, dtype=np.int64),
        "periods": np.array(periods, dtype=np.int64),
        "covariates": np.array(covariates, dtype=np.float64),
        "outcomes": np.array(outcomes, dtype=np.int8),
    }
    for name, want in expected.items():
        got = getattr(data, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("seed", range(20))
def test_shuffled_random_panel_loads_to_its_arrays(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n, T, p = (int(v) for v in rng.integers(1, [7, 6, 4]))
    ids = rng.choice(np.arange(-50, 50), size=n, replace=False)
    periods = np.sort(
        np.stack([rng.choice(np.arange(-10, 30), size=T, replace=False) for _ in range(n)]),
        axis=1,
    )
    x = rng.standard_normal((n, T, p)) * 10.0 ** rng.integers(-6, 7, size=(n, T, p))
    y = rng.integers(0, 2, size=(n, T))
    rows = [
        ",".join([str(ids[i]), str(periods[i, t]), str(y[i, t])] + [repr(float(v)) for v in x[i, t]])
        for i in range(n) for t in range(T)
    ]
    rng.shuffle(rows)
    header = "id,t,y," + ",".join(f"x{j}" for j in range(1, p + 1))
    data = load_csv(_write(tmp_path, "\n".join([header] + rows) + "\n"))
    order = np.argsort(ids)
    assert np.array_equal(data.ids, ids[order])
    assert np.array_equal(data.periods, periods[order])
    assert np.array_equal(data.covariates, x[order])
    assert np.array_equal(data.outcomes, y[order])


# The bulk pass of load_csv against the row-wise reader. A file is written as
# rows of cell texts, respelled in ways the contract allows, and read by both;
# the two must give the same arrays (bit for bit, dtypes included) or the same
# PanelDataError text.

def _outcome(reader, path):
    try:
        data = reader(path)
    except PanelDataError as err:
        return str(err)
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (data.ids, data.periods, data.covariates, data.outcomes)]


def _fuzz_rows(rng):
    """Header and shuffled body cells of a valid panel with n >= 2 and T >= 2."""
    n, T, p = (int(v) for v in rng.integers([2, 2, 1], [6, 5, 4]))
    rows = []
    for ident in rng.choice(np.arange(-60, 60), size=n, replace=False):
        for t in rng.choice(np.arange(-20, 40), size=T, replace=False):
            x = rng.standard_normal(p) * 10.0 ** rng.integers(-5, 6, size=p)
            rows.append([str(ident), str(t), str(rng.integers(0, 2))] + [repr(float(v)) for v in x])
    rng.shuffle(rows)
    return ["id", "t", "y"] + [f"x{j}" for j in range(1, p + 1)], rows


def _respell(rows, rng):
    """Spellings both passes accept: signs, y as a float, -0, padding."""
    for row in rows:
        for col, cell in enumerate(row):
            roll = rng.integers(8)
            if roll == 0 and col < 2 and not cell.startswith("-"):
                cell = "+" + cell
            elif roll == 1 and col == 2:
                cell = {"0": "-0", "1": "1e0"}[cell]
            elif roll == 2 and col == 2:
                cell += ".0"
            elif roll == 3 and col > 2:
                cell = "-0"
            pad = ["", " ", "\t", " \t "]
            row[col] = pad[rng.integers(4)] + cell + pad[rng.integers(4)]


_ROW_WISE_ONLY = {
    "quoted cell": lambda row: row.__setitem__(3, f'"{row[3].strip()}"'),
    "underscore in an integer": lambda row: row.__setitem__(
        1, ("-0_" if "-" in row[1] else "0_") + row[1].strip().lstrip("+-")),
    "non-ASCII digits": lambda row: row.__setitem__(
        0, row[0].translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                        "\u0665\u0666\u0667\u0668\u0669"))),
}


def _render(header, rows, rng, blank_lines=("",)):
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(rng.integers(3)):
        lines.insert(rng.integers(1, len(lines) + 1), blank_lines[rng.integers(len(blank_lines))])
    eol = "\r\n" if rng.integers(2) else "\n"
    bom = "\ufeff" if rng.integers(2) else ""
    return bom + eol.join(lines) + eol


@pytest.mark.parametrize("seed", range(40))
def test_bulk_pass_equals_row_wise_reader_on_valid_files(tmp_path, seed):
    rng = np.random.default_rng(seed)
    header, rows = _fuzz_rows(rng)
    _respell(rows, rng)
    blank_lines = ("",)
    if seed % 2:  # something only the row-wise reader accepts
        blank_lines = ("", "  ", "\t")
        for spell in _ROW_WISE_ONLY.values():
            if rng.integers(2):
                spell(rows[rng.integers(len(rows))])
        if rng.integers(2):
            header = [f'"{h}"' for h in header]
    path = tmp_path / "panel.csv"
    path.write_bytes(_render(header, rows, rng, blank_lines).encode("utf-8"))
    rows_outcome = _outcome(panel._load_rows, path)
    assert not isinstance(rows_outcome, str), rows_outcome
    assert _outcome(load_csv, path) == rows_outcome


def _set_cell(col, text):
    def fault(rows, rng):
        rows[rng.integers(len(rows))][col] = text
    return fault


_FAULTS = {
    "# inside a cell": _set_cell(3, "0.5 # note"),
    "1.0 in id": _set_cell(0, "1.0"),
    "1e3 in t": _set_cell(1, "1e3"),
    "1e400 in x": _set_cell(3, "1e400"),
    "nan in y": _set_cell(2, "nan"),
    "0.5 in y": _set_cell(2, "0.5"),
    "extra field": lambda rows, rng: rows[rng.integers(len(rows))].append("0"),
    "missing field": lambda rows, rng: rows[rng.integers(len(rows))].pop(),
    "duplicate (id,t)": lambda rows, rng: rows.insert(
        rng.integers(len(rows) + 1), list(rows[rng.integers(len(rows))])),
    "unbalanced": lambda rows, rng: rows.pop(rng.integers(len(rows))),
    "id beyond int64": _set_cell(0, "9223372036854775808"),
    "t below int64": _set_cell(1, "-9223372036854775809"),
    "header only": lambda rows, rng: rows.clear(),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("fault", list(_FAULTS))
def test_bulk_pass_equals_row_wise_reader_on_faulty_files(tmp_path, fault, seed):
    rng = np.random.default_rng([seed, len(fault)])
    header, rows = _fuzz_rows(rng)
    _respell(rows, rng)
    _FAULTS[fault](rows, rng)
    path = tmp_path / "panel.csv"
    path.write_bytes(_render(header, rows, rng).encode("utf-8"))
    rows_outcome = _outcome(panel._load_rows, path)
    assert isinstance(rows_outcome, str), fault
    assert _outcome(load_csv, path) == rows_outcome


def test_clean_files_take_the_bulk_pass(tmp_path, fixture_path, monkeypatch):
    rng = np.random.default_rng(11)
    header, rows = _fuzz_rows(rng)
    _respell(rows, rng)
    path = tmp_path / "panel.csv"
    path.write_bytes(_render(header, rows, rng).encode("utf-8"))
    expected = [_outcome(panel._load_rows, f) for f in (fixture_path, path)]

    def row_wise(path):
        raise AssertionError(f"{path} was read row by row")

    monkeypatch.setattr(panel, "_load_rows", row_wise)
    assert [_outcome(load_csv, f) for f in (fixture_path, path)] == expected


def test_a_loadtxt_warning_sends_the_file_row_wise(fixture_path, monkeypatch):
    # numpy < 2 reads "1.0" as an int64 with only a DeprecationWarning
    expected = _outcome(panel._load_rows, fixture_path)
    loadtxt, row_wise, calls = np.loadtxt, panel._load_rows, []

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    def counted(path):
        calls.append(path)
        return row_wise(path)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    monkeypatch.setattr(panel, "_load_rows", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # load_csv must raise it itself
        assert _outcome(load_csv, fixture_path) == expected
    assert calls == [fixture_path]
