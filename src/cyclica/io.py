"""File formats: every file the CLI reads, plus reports and CSV.

The series format:

    {"dim": d, "kind": "disc" | "polydisc", "poly_dim": n,
     "terms": [{"exp": int | [int, ...], "coeff": [[re, im], ...]}],
     "tail_model": {"recurrent": [coeff, ...],
                    "transient": [{"index": k, "coeff": coeff}, ...]}}

Exponent lists must be strictly increasing (disc) or duplicate-free
(polydisc).
A reader of one kind of series rejects a file of the other kind.

A spectrum file is either a disc series file (its exponents are the
spectrum) or one of

    {"kind": "explicit", "values": [n_1, n_2, ...]}
    {"kind": "geometric", "base": b}
    {"kind": "factorial_plus_k"}
    {"kind": "crt", "generators": [g, ...]}

A blocks file and its model file:

    {"dim": d, "block_degree": N,
     "blocks": [{"n": n_k, "poly": [coeff, ...]}, ...]}
    {"recurrent_polys": [[coeff, ...], ...], "transient_indices": [k, ...]}

where each polynomial lists its N + 1 coefficients, constant term first.
Every integer field is checked by the value type that it builds: a float
or a bool is not truncated to an integer, and a disc exponent or a block
position at or above 2^63 is rejected.
A malformed file raises :class:`InputError`.  All floating-point output
uses 17 significant digits so that reports are byte-identical across runs.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .blocks import BlockSeries, PolyDirectionModel
from .coefspace import TailModel
from .constructions import CrtSequenceSpec, DivisorClosedSet
from .core import VectorSeries, _index
from .polydisc import PolySeries
from .spectrum import IntegerSpectrum

__all__ = [
    "InputError",
    "load_series",
    "load_spectrum",
    "load_blocks",
    "series_to_dict",
    "series_from_dict",
    "dump_report",
    "write_csv",
    "format_float",
]


class InputError(ValueError):
    """Malformed input file or field; maps to exit code 2 in the CLI."""


def format_float(x) -> float:
    """Round-trip a float through 17-significant-digit text."""
    return float(format(float(x), ".17g"))


def _coeff_from_pairs(pairs, dim, where):
    try:
        arr = np.array([complex(float(re), float(im)) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: coefficient must be a list of [re, im] pairs") from exc
    if arr.shape != (dim,):
        raise InputError(f"{where}: coefficient has length {arr.shape[0]}, expected {dim}")
    return arr


def series_to_dict(f, tail_model: TailModel = None) -> dict:
    """The series file of f (and its tail model): every coefficient row is
    complex, so ``_jsonable`` writes it as [re, im] pairs."""
    if isinstance(f, PolySeries):
        terms = [
            {"exp": list(e), "coeff": _jsonable(c)}
            for e, c in zip(f.multi_exponents, f.coeffs)
        ]
        out = {"dim": f.dim, "kind": "polydisc", "poly_dim": f.poly_dim,
               "terms": terms}
    else:
        terms = [
            {"exp": int(e), "coeff": _jsonable(c)}
            for e, c in zip(f.exponents, f.coeffs)
        ]
        out = {"dim": f.dim, "kind": "disc", "terms": terms,
               "truncation_degree": int(f.truncation_degree)}
    if tail_model is not None:
        out["tail_model"] = {
            "recurrent": [_jsonable(v) for v in tail_model.recurrent],
            "transient": [
                {"index": k, "coeff": _jsonable(v)}
                for k, v in tail_model.transient
            ],
        }
    return out


def series_from_dict(data: dict):
    """Parse a series file; returns (series, tail_model or None)."""
    if not isinstance(data, dict):
        raise InputError("series file must contain a JSON object")
    for key in ("dim", "terms"):
        if key not in data:
            raise InputError(f"series file is missing the {key!r} field")
    kind = data.get("kind", "disc")
    if kind not in ("disc", "polydisc"):
        raise InputError(f"'kind' must be 'disc' or 'polydisc', got {kind!r}")
    terms = data["terms"]
    if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
        raise InputError("'terms' must be a list of objects")
    try:
        dim = _index(data["dim"], "dim", 1)  # the coefficients are read at length dim
        exps = [t.get("exp") for t in terms]
        coeffs = [_coeff_from_pairs(t.get("coeff", []), dim, f"terms[{i}]")
                  for i, t in enumerate(terms)]
        if kind == "polydisc":
            series = PolySeries(data.get("poly_dim"), dim, zip(exps, coeffs))
        else:
            series = VectorSeries(dim, exps, np.reshape(coeffs, (len(exps), dim)),
                                  data.get("truncation_degree"))
            # VectorSeries sorts, so an unsorted file would pass unseen
            if any(b <= a for a, b in zip(exps, exps[1:])):
                raise ValueError("'terms' exponents must be strictly increasing")
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from exc
    model = None
    if "tail_model" in data and data["tail_model"] is not None:
        tm = data["tail_model"]
        if not isinstance(tm, dict) or "recurrent" not in tm:
            raise InputError("'tail_model' must be an object with a 'recurrent' list")
        try:
            rec = [_coeff_from_pairs(v, dim, "tail_model.recurrent") for v in tm["recurrent"]]
            tra = [
                (t["index"], _coeff_from_pairs(t["coeff"], dim, "tail_model.transient"))
                for t in tm.get("transient", [])
            ]
            model = TailModel(dim, rec, tra)
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad tail_model: {exc}") from exc
    return series, model


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def load_series(path):
    return series_from_dict(_read_json(path))


def _load_series(path, kind):
    """:func:`load_series` for a reader of one ``kind`` of series."""
    series, model = load_series(path)
    if isinstance(series, PolySeries) != (kind == "polydisc"):
        raise InputError(f"{path}: expected a {kind} series file")
    return series, model


def load_spectrum(path) -> IntegerSpectrum:
    """A spectrum file, or the exponents of a disc series file."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: spectrum file must contain a JSON object")
    if "terms" in data:
        series, _ = series_from_dict(data)
        if not isinstance(series, VectorSeries):
            raise InputError("polydisc series have no 1-D spectrum; pass a spectrum file")
        return IntegerSpectrum.explicit(series.exponents)
    kind = data.get("kind")
    try:
        if kind == "explicit":
            return IntegerSpectrum.explicit(data["values"])
        if kind == "geometric":
            return IntegerSpectrum.geometric(data["base"])
        if kind == "factorial_plus_k":
            return IntegerSpectrum.factorial_plus_k()
        if kind == "crt":
            return IntegerSpectrum.crt(CrtSequenceSpec(DivisorClosedSet(data["generators"])))
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad spectrum file: {exc}") from exc
    raise InputError(f"unknown spectrum kind {kind!r}")


def _poly_from_rows(rows, dim, where):
    return np.array([_coeff_from_pairs(row, dim, f"{where}[{j}]")
                     for j, row in enumerate(rows)]).reshape(-1, dim)


def load_blocks(path, model_path):
    """Parse a blocks file and its model file; returns (BlockSeries, model)."""
    data, mdata = _read_json(path), _read_json(model_path)
    try:
        dim = _index(data["dim"], "dim", 1)  # the polynomials are read at width dim
        bs = BlockSeries(dim, data["block_degree"], [
            (b["n"], _poly_from_rows(b["poly"], dim, f"blocks[{i}].poly"))
            for i, b in enumerate(data["blocks"])
        ])
        model = PolyDirectionModel(
            [_poly_from_rows(p, dim, f"recurrent_polys[{i}]")
             for i, p in enumerate(mdata["recurrent_polys"])],
            mdata.get("transient_indices", []),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad blocks input: {exc}") from exc
    return bs, model


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return format_float(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [format_float(obj.real), format_float(obj.imag)]
    if isinstance(obj, (np.integer, np.bool_, int, str, bool)) or obj is None:
        return obj.item() if isinstance(obj, np.generic) else obj
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    return str(obj)


def dump_report(report: dict, path=None) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([
                format(v, ".17g") if isinstance(v, float) else v for v in row
            ])
