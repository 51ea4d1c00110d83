import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cyclica import PolySeries, TailModel, VectorSeries, scalar_series
from cyclica.cli import dispatch
from cyclica.io import (
    InputError,
    dump_report,
    format_float,
    load_blocks,
    load_series,
    load_spectrum,
    series_from_dict,
    series_to_dict,
)


GOLDEN = Path(__file__).parent / "data" / "golden"


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
        # a bool or a float is not a JSON integer, and is not read as one
        {"dim": True, "terms": [{"exp": 1, "coeff": [[1, 0]]}]},
        {"dim": 1, "terms": [{"exp": True, "coeff": [[1, 0]]}]},
        {"dim": 1, "kind": "polydisc", "poly_dim": 2,
         "terms": [{"exp": [2.5, 3], "coeff": [[1, 0]]}]},
    ],
)
def test_malformed_series_rejected(mutant):
    with pytest.raises(InputError):
        series_from_dict(mutant)


def test_load_series_missing_file(tmp_path):
    with pytest.raises(InputError, match="no such file"):
        load_series(str(tmp_path / "absent.json"))


@pytest.mark.parametrize(
    "data, kind, terms",
    [
        ({"kind": "explicit", "values": [1, 3, 9]}, "explicit", [1, 3, 9]),
        ({"kind": "geometric", "base": 3}, "geometric", [3, 9, 27]),
        ({"kind": "factorial_plus_k"}, "factorial_plus_k", [3, 8, 27]),
        ({"kind": "crt", "generators": [2, 3]}, "crt", None),
    ],
)
def test_load_spectrum_kinds(tmp_path, data, kind, terms):
    s = load_spectrum(_write(tmp_path / "s.json", data))
    assert s.kind == kind
    if terms is not None:
        assert s.terms(3) == terms
    else:
        assert s.crt_spec.divisor_set.closure == {1, 2, 3}


def test_load_spectrum_from_disc_series(tmp_path):
    s = load_spectrum(_dyadic_file(tmp_path, K=4))
    assert s.kind == "explicit"
    assert list(s.values) == [2, 4, 8, 16]


@pytest.mark.parametrize(
    "data, match",
    [
        ([1, 2], "must contain a JSON object"),
        ({"kind": "geometric"}, "bad spectrum file"),
        ({"kind": "lacunary"}, "unknown spectrum kind"),
        ({"dim": 1, "kind": "polydisc", "poly_dim": 2, "terms": []}, "no 1-D spectrum"),
        # a number that is not a JSON integer is never truncated to one
        ({"kind": "explicit", "values": [1.5, 3, 9.9]}, "'values' must hold integers"),
        ({"kind": "geometric", "base": 2.9}, "'base' must hold integers"),
        ({"kind": "geometric", "base": True}, "'base' must hold integers"),
        ({"kind": "crt", "generators": [4.5, 6]}, "'generators' must hold integers"),
    ],
)
def test_load_spectrum_rejects(tmp_path, data, match):
    with pytest.raises(InputError, match=match):
        load_spectrum(_write(tmp_path / "s.json", data))


def test_load_blocks_golden():
    bs, model = load_blocks(GOLDEN / "blocks.json", GOLDEN / "blocks_model.json")
    data = json.loads((GOLDEN / "blocks.json").read_text())
    assert (bs.dim, bs.block_degree) == (2, 1)
    assert [n for n, _ in bs.blocks] == [b["n"] for b in data["blocks"]]
    n, p = bs.blocks[0]
    assert n == 3
    assert np.array_equal(p, [[1.0, 2.0], [0.0, 1.0]])
    assert [q.shape for q in model.recurrent_polys] == [(2, 2), (2, 2)]
    assert np.array_equal(model.recurrent_polys[1], [[0.0, 1.0], [0.0, 0.0]])
    assert model.transient_indices == ()


def test_load_blocks_rejects_short_row(tmp_path):
    blocks = _write(tmp_path / "b.json", {"dim": 2, "block_degree": 0,
                                          "blocks": [{"n": 1, "poly": [[[1, 0]]]}]})
    model = str(GOLDEN / "blocks_model.json")
    with pytest.raises(InputError, match=r"blocks\[0\]\.poly\[0\]"):
        load_blocks(blocks, model)


@pytest.mark.parametrize("index, code", [(-1, 2), (5, 0)])
def test_blocks_transient_index_exit_codes(index, code, tmp_path, capsys):
    # constant blocks: a negative index is bad input, one past the last
    # block is not checked and leaves the verdict Cyclic under --strict
    blocks = _write(tmp_path / "b.json", {"dim": 2, "block_degree": 0, "blocks": [
        {"n": 1, "poly": [[[1, 0], [0, 0]]]}, {"n": 4, "poly": [[[0, 0], [1, 0]]]},
        {"n": 16, "poly": [[[1, 0], [0, 0]]]}]})
    model = _write(tmp_path / "m.json", {
        "recurrent_polys": [[[[1, 0], [0, 0]]], [[[0, 0], [1, 0]]]],
        "transient_indices": [index]})
    assert dispatch(["blocks", "--strict", "--input", blocks, "--model", model]) == code


_BLOCKS = {"dim": 2, "block_degree": 0, "blocks": [
    {"n": 1, "poly": [[[1, 0], [0, 0]]]}, {"n": 4, "poly": [[[0, 0], [1, 0]]]}]}
_BLOCKS_MODEL = {"recurrent_polys": [[[[1, 0], [0, 0]]], [[[0, 0], [1, 0]]]],
                 "transient_indices": []}
# field -> (series file, None) or (blocks file, model file), with that field
# holding a number that is not a JSON integer
NOT_INTEGER = {
    "truncation_degree": ({"dim": 1, "truncation_degree": 4.7,
                           "terms": [{"exp": 1, "coeff": [[1, 0]]}]}, None),
    "index": ({"dim": 1, "terms": [{"exp": 1, "coeff": [[1, 0]]}],
               "tail_model": {"recurrent": [[[1, 0]]],
                              "transient": [{"index": 0.9, "coeff": [[1, 0]]}]}}, None),
    "dim": ({**_BLOCKS, "dim": 2.5}, _BLOCKS_MODEL),
    "block_degree": ({**_BLOCKS, "block_degree": 1.5}, _BLOCKS_MODEL),
    "n": ({**_BLOCKS, "blocks": [{"n": 4.7, "poly": [[[1, 0], [0, 0]]]}]},
          _BLOCKS_MODEL),
    "transient_indices": (_BLOCKS, {**_BLOCKS_MODEL, "transient_indices": [0.5]}),
}


@pytest.mark.parametrize("field", sorted(NOT_INTEGER))
def test_non_integer_field_exits_2(field, tmp_path, capsys):
    # truncated by int(), each of these numbers ran as the integer below it
    data, model = NOT_INTEGER[field]
    path = _write(tmp_path / "in.json", data)
    if model is None:
        argv = ["analyze", "--input", path]
    else:
        argv = ["blocks", "--input", path, "--model", _write(tmp_path / "m.json", model)]
    assert dispatch(argv) == 2
    assert f"'{field}' must hold integers" in capsys.readouterr().err


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


def test_spectrum_residues_stream_once(tmp_path, capsys, monkeypatch):
    from cyclica import IntegerSpectrum

    calls = []
    residues = IntegerSpectrum.residues
    monkeypatch.setattr(IntegerSpectrum, "residues",
                        lambda self, *a: calls.append(a) or residues(self, *a))
    path = _write(tmp_path / "crt.json", {"kind": "crt", "generators": [4, 6]})
    assert dispatch(["spectrum", "--input", path, "--residues", "5"]) == 0
    assert len(calls) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["residues_hit"] == [0, 3, 4]
    assert out["admits_SstarN"]["witness"] == 1
    assert out["admits_SstarN"]["detail"]["missing_residues"] == [1, 2]


def test_construct_subcommand_csv(tmp_path, capsys):
    out = tmp_path / "seq.csv"
    code = dispatch(["construct", "factorial", "--count", "6", "--out", str(out)])
    assert code == 0
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7  # header + 6 terms
    assert int(rows[1][1]) == 3


def test_construct_factorial_prints_exact_values_past_64_bits(capsys):
    # (k+1)! + k leaves the 64-bit range at k = 20; the values stay exact
    assert dispatch(["construct", "factorial", "--count", "25"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 26
    assert lines[-1] == f"25,{math.factorial(26) + 25}"


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


def test_polydisc_c1_above_int64(tmp_path, capsys):
    # the 2x2 grid at 2^64 has the differences (1, 0) and (0, 1) twice each
    terms = [{"exp": [2**64 + i, j], "coeff": [[2.0 ** -(2 * i + j), 0.0]]}
             for j in (0, 1) for i in (0, 1)]
    path = _write(tmp_path / "big.json",
                  {"dim": 1, "kind": "polydisc", "poly_dim": 2, "terms": terms})
    assert dispatch(["polydisc", "--input", path, "--check-c1c2"]) == 0
    assert json.loads(capsys.readouterr().out)["c1_multiplicity"] == 2


def test_unknown_subcommand_fails(capsys):
    with pytest.raises(SystemExit):
        dispatch(["frobnicate"])


_SERIES = {"dim": 1, "terms": [{"exp": 1, "coeff": [[1, 0]]}]}
REJECTED = {
    "max_shift_negative": ["orbit", "--input", "{series}", "--target", "{series}",
                           "--max-shift", "-1"],
    "power_zero": ["multishift", "--input", "{series}", "--power", "0"],
    "mod_zero": ["construct", "factorial", "--count", "3", "--mod", "0"],
    "residues_zero": ["spectrum", "--input", "{series}", "--residues", "0"],
    "crt_count_past_prime_table": ["construct", "crt", "--count", "300",
                                   "--set", "2,3"],
    "crc_dim_zero": ["construct", "crc", "--count", "3", "--dim", "0"],
    "term_not_object": ["analyze", "--input", "{term_not_object}"],
    "transient_without_index": ["analyze", "--input", "{transient_without_index}"],
    "spectrum_file_list": ["spectrum", "--input", "{json_list}"],
    "spectrum_generator_not_integer": ["spectrum", "--input", "{crt_float}",
                                       "--residues", "3"],
    "transient_not_finite": ["analyze", "--strict", "--input", "{transient_nan}"],
    "truncation_degree_list": ["analyze", "--input", "{truncation_list}"],
    "unions_check_without_input": ["unions", "check"],
    # a tail model that the stored series contradicts is bad input, not an
    # exact NonCyclic verdict (exit 1 under --strict)
    "unions_check_contradicting_model": ["unions", "check", "--strict",
                                         "--input", "{contradicting_model}"],
    "unions_construct_without_spectra": ["unions", "construct"],
    "tolerance_out_of_range": ["analyze", "--input", "{series}", "--tol-rank", "2"],
    "count_zero": ["construct", "factorial", "--count", "0"],
    "count_negative": ["construct", "factorial", "--count", "-2"],
    "af_nmax_zero": ["multishift", "--input", "{series}", "--af", "--nmax", "0"],
    "report_dir_missing": ["analyze", "--input", "{series}",
                           "--report", "{missing_dir}/r.json"],
    "csv_dir_missing": ["orbit", "--input", "{series}", "--target", "{series}",
                        "--csv", "{missing_dir}/curve.csv"],
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_input_exits_2(name, tmp_path, capsys):
    files = {
        "series": _SERIES,
        "term_not_object": {"dim": 1, "terms": [3]},
        "transient_without_index": {
            **_SERIES,
            "tail_model": {"recurrent": [[[1, 0]]], "transient": [{"coeff": [[1, 0]]}]},
        },
        "json_list": [1, 2],
        "crt_float": {"kind": "crt", "generators": [4.5, 6]},
        "truncation_list": {**_SERIES, "truncation_degree": [5]},
        "transient_nan": {
            "dim": 2,
            "terms": [{"exp": 2, "coeff": [[1, 0], [0, 0]]},
                      {"exp": 4, "coeff": [[0, 0], [1, 0]]}],
            "tail_model": {"recurrent": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                           "transient": [{"index": 0, "coeff": [[np.nan, 0], [0, 0]]}]},
        },
        "contradicting_model": {
            "dim": 2,
            "terms": [{"exp": 2, "coeff": [[1, 0], [0, 0]]},
                      {"exp": 4, "coeff": [[0, 0], [1, 0]]}],
            "tail_model": {"recurrent": [[[1, 0], [0, 0]]]},
        },
    }
    paths = {k: _write(tmp_path / f"{k}.json", v) for k, v in files.items()}
    argv = [a.format(**paths, missing_dir=tmp_path / "missing") for a in REJECTED[name]]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


# every subcommand that reads a series, with a file of the other kind; under
# --strict a wrong-kind file must not read as a non-cyclic verdict (exit 1)
WRONG_KIND = {
    "analyze": ["analyze", "--strict", "--input", "{polydisc}"],
    "multishift_power": ["multishift", "--strict", "--input", "{polydisc}", "--power", "2"],
    "multishift_af": ["multishift", "--input", "{polydisc}", "--af"],
    "unions_check": ["unions", "check", "--strict", "--input", "{polydisc}"],
    "unions_construct": ["unions", "construct", "--spectra", "{polydisc}"],
    "spectrum": ["spectrum", "--input", "{polydisc}", "--residues", "3"],
    "factorize": ["factorize", "--poly", "{polydisc}"],
    "orbit_input": ["orbit", "--input", "{polydisc}", "--target", "{disc}"],
    "orbit_target": ["orbit", "--input", "{disc}", "--target", "{polydisc}"],
    "polydisc": ["polydisc", "--strict", "--input", "{disc}", "--analyze"],
}


@pytest.mark.parametrize("name", sorted(WRONG_KIND))
def test_wrong_kind_series_file_exits_2(name, capsys):
    paths = {"polydisc": str(GOLDEN / "polydisc.json"),
             "disc": str(GOLDEN / "power_cyclic.json")}
    argv = [a.format(**paths) for a in WRONG_KIND[name]]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""


def test_spectrum_of_a_large_crt_generator(tmp_path, capsys):
    # membership divides the generator 10^9; no divisor list is built
    path = _write(tmp_path / "crt.json", {"kind": "crt", "generators": [10**9]})
    for N, status in ((5, "Proven"), (3, "No-witness")):
        assert dispatch(["spectrum", "--input", path, "--residues", str(N)]) == 0
        assert json.loads(capsys.readouterr().out)["admits_SstarN"]["status"] == status


# -- one parser per process ---------------------------------------------------


def test_parser_is_built_once_and_holds_no_result(tmp_path, capsys, monkeypatch):
    from cyclica.cli import _build_parser

    monkeypatch.delenv("CYCLICA_SEED", raising=False)
    noncyclic = str(GOLDEN / "tail_model.json")
    dispatch(["analyze", "--input", noncyclic])
    builds = _build_parser.cache_info().misses
    # --strict in one call does not carry over to the next
    assert dispatch(["analyze", "--strict", "--input", noncyclic]) == 1
    assert dispatch(["analyze", "--input", noncyclic]) == 0
    # nor does a --report path
    report = tmp_path / "r.json"
    assert dispatch(["analyze", "--input", noncyclic, "--report", str(report)]) == 0
    report.unlink()
    assert dispatch(["analyze", "--input", noncyclic]) == 0
    assert not report.exists()
    # a rejected argv leaves the parser usable
    with pytest.raises(SystemExit) as exc:
        dispatch(["analyze", "--horizon", "many", "--input", noncyclic])
    assert exc.value.code == 2
    assert dispatch(["analyze", "--strict", "--input", noncyclic]) == 1
    assert _build_parser.cache_info().misses == builds


def test_seed_env_is_read_on_every_call(tmp_path, capsys, monkeypatch):
    argv = ["spectrum", "--input", str(GOLDEN / "geometric2.json"), "--seed", "3"]
    seeds = []
    for env in ("5", "9", None):
        if env is None:
            monkeypatch.delenv("CYCLICA_SEED", raising=False)
        else:
            monkeypatch.setenv("CYCLICA_SEED", env)
        capsys.readouterr()
        assert dispatch(argv) == 0
        seeds.append(json.loads(capsys.readouterr().out)["config"]["seed"])
    assert seeds == [5, 9, 3]
