import csv
import json

import numpy as np
import pytest

from cyclica import PolySeries, TailModel, VectorSeries, scalar_series
from cyclica.cli import dispatch
from cyclica.io import (
    InputError,
    dump_report,
    format_float,
    load_series,
    series_from_dict,
    series_to_dict,
)


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _dyadic_file(tmp_path, name="f.json", K=10, dim=1):
    terms = [
        {"exp": 2**k, "coeff": [[2.0**-k, 0.0]] * dim} for k in range(1, K + 1)
    ]
    return _write(tmp_path / name, {"dim": dim, "kind": "disc", "terms": terms})


# -- formats ------------------------------------------------------------------


def test_format_float_round_trip():
    x = 1 / 3
    assert float(format(format_float(x), ".17g")) == x


def test_series_round_trip_disc():
    f = VectorSeries(2, [1, 4], np.array([[1.0, 2j], [0.5, 0.0]]))
    g, model = series_from_dict(series_to_dict(f))
    assert model is None
    assert list(g.exponents) == [1, 4]
    assert np.allclose(g.coeffs, f.coeffs)


def test_series_round_trip_polydisc():
    f = PolySeries(2, 1, [((1, 2), [1.0 + 1j]), ((4, 9), [0.25])])
    g, _ = series_from_dict(series_to_dict(f))
    assert g == f


def test_series_round_trip_tail_model():
    f = VectorSeries(2, [2, 4], np.eye(2) + 0j)
    tm = TailModel(2, list(np.eye(2) + 0j), [(0, np.array([1.0, 0.0]))])
    g, model = series_from_dict(series_to_dict(f, tm))
    assert model is not None
    assert model.transient[0][0] == 0
    assert np.allclose(model.recurrent[0], [1.0, 0.0])


@pytest.mark.parametrize(
    "mutant",
    [
        {"terms": []},  # missing dim
        {"dim": 0, "terms": []},
        {"dim": 1, "kind": "annulus", "terms": []},
        {"dim": 1, "terms": [{"exp": -1, "coeff": [[1, 0]]}]},
        {"dim": 1, "terms": [{"exp": 2, "coeff": [[1, 0]]}, {"exp": 1, "coeff": [[1, 0]]}]},
        {"dim": 2, "terms": [{"exp": 1, "coeff": [[1, 0]]}]},  # short coeff
    ],
)
def test_malformed_series_rejected(mutant):
    with pytest.raises(InputError):
        series_from_dict(mutant)


def test_load_series_missing_file(tmp_path):
    with pytest.raises(InputError, match="no such file"):
        load_series(str(tmp_path / "absent.json"))


def test_dump_report_deterministic_floats():
    text = dump_report({"x": 1 / 3, "z": 1 + 2j})
    # byte-identical on repetition and exact value round trip
    assert text == dump_report({"x": 1 / 3, "z": 1 + 2j})
    data = json.loads(text)
    assert data["x"] == 1 / 3
    assert data["z"] == [1.0, 2.0]


def test_dump_report_numpy_scalars_are_json_scalars():
    # numpy booleans and integers become JSON literals, not their str()
    text = dump_report({"x": np.True_, "n": np.int64(3)})
    assert text == '{\n  "n": 3,\n  "x": true\n}'


# -- CLI ----------------------------------------------------------------------


def test_analyze_happy_path(tmp_path, capsys):
    path = _dyadic_file(tmp_path)
    out = tmp_path / "report.json"
    assert dispatch(["analyze", "--input", path, "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"]["status"] == "Cyclic"
    assert "version" in report["config"] or "version" in report


def test_missing_file_exits_2(capsys):
    assert dispatch(["analyze", "--input", "/nonexistent.json"]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert dispatch(["analyze", "--input", str(bad)]) == 2


def test_strict_noncyclic_exits_1(tmp_path, capsys):
    terms = [
        {"exp": 2**k, "coeff": [[2.0**-k, 0.0], [0.0, 0.0]]} for k in range(1, 11)
    ]
    path = _write(tmp_path / "nc.json", {"dim": 2, "terms": terms})
    assert dispatch(["analyze", "--input", path]) == 0
    assert dispatch(["analyze", "--input", path, "--strict"]) == 1


def test_report_determinism(tmp_path, capsys):
    path = _dyadic_file(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert dispatch(["analyze", "--input", path, "--report", str(a)]) == 0
    assert dispatch(["analyze", "--input", path, "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    path = _dyadic_file(tmp_path)
    out = tmp_path / "r.json"
    monkeypatch.setenv("CYCLICA_SEED", "777")
    assert dispatch(["analyze", "--input", path, "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 777


def test_spectrum_subcommand(tmp_path, capsys):
    path = _dyadic_file(tmp_path)
    out = tmp_path / "s.json"
    code = dispatch([
        "spectrum", "--input", path, "--lacunarity", "--diff-mult",
        "--residues", "2", "--report", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["lacunarity_ratio"] == pytest.approx(2.0)
    assert report["difference_multiplicity"] == 1


def test_construct_subcommand_csv(tmp_path, capsys):
    out = tmp_path / "seq.csv"
    code = dispatch(["construct", "factorial", "--count", "6", "--out", str(out)])
    assert code == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7  # header + 6 terms
    assert int(rows[1][1]) == 3


def test_construct_rejects_report(tmp_path, capsys):
    report = tmp_path / "seq.json"
    code = dispatch(["construct", "factorial", "--count", "3",
                     "--report", str(report)])
    assert code == 2
    assert "--out" in capsys.readouterr().err
    assert not report.exists()


def test_multishift_subcommand(tmp_path, capsys):
    path = _dyadic_file(tmp_path)
    out = tmp_path / "m.json"
    assert dispatch(["multishift", "--input", path, "--power", "2",
                     "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"]["status"] == "NonCyclic"


def test_orbit_subcommand_csv_rows(tmp_path, capsys):
    f = _dyadic_file(tmp_path)
    g = _write(tmp_path / "g.json",
               {"dim": 1, "terms": [{"exp": 0, "coeff": [[1.0, 0.0]]}]})
    out = tmp_path / "curve.csv"
    code = dispatch(["orbit", "--input", f, "--target", g,
                     "--max-shift", "64", "--csv", str(out)])
    assert code == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 66  # header + budgets 0..64
    residuals = [float(r[1]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_polydisc_subcommand(tmp_path, capsys):
    terms = [{"exp": [2**k, 3**k], "coeff": [[2.0**-k, 0.0]]} for k in range(1, 9)]
    path = _write(tmp_path / "p.json",
                  {"dim": 1, "kind": "polydisc", "poly_dim": 2, "terms": terms})
    out = tmp_path / "p_report.json"
    assert dispatch(["polydisc", "--input", path, "--check-c1c2", "--analyze",
                     "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["c1_multiplicity"] <= 1
    assert report["verdict"]["status"] == "Cyclic"


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit):
        dispatch(["frobnicate"])
