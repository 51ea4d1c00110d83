"""File formats: JSON series (disc and polydisc), tail models, reports, CSV.

The series format:

    {"dim": d, "kind": "disc" | "polydisc", "poly_dim": n,
     "terms": [{"exp": int | [int, ...], "coeff": [[re, im], ...]}],
     "tail_model": {"recurrent": [coeff, ...],
                    "transient": [{"index": k, "coeff": coeff}, ...]}}

Exponent lists must be strictly increasing (disc) or duplicate-free
(polydisc).  All floating-point output uses 17 significant digits so that
reports are byte-identical across runs.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .coefspace import TailModel
from .core import VectorSeries
from .polydisc import PolySeries

__all__ = [
    "InputError",
    "load_series",
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


def _coeff_to_pairs(v):
    return [[format_float(c.real), format_float(c.imag)] for c in np.atleast_1d(v)]


def _coeff_from_pairs(pairs, dim, where):
    try:
        arr = np.array([complex(float(re), float(im)) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: coefficient must be a list of [re, im] pairs") from exc
    if arr.shape != (dim,):
        raise InputError(f"{where}: coefficient has length {arr.shape[0]}, expected {dim}")
    return arr


def series_to_dict(f, tail_model: TailModel = None) -> dict:
    if isinstance(f, PolySeries):
        terms = [
            {"exp": list(e), "coeff": _coeff_to_pairs(c)}
            for e, c in zip(f.multi_exponents, f.coeffs)
        ]
        out = {"dim": f.dim, "kind": "polydisc", "poly_dim": f.poly_dim,
               "terms": terms}
    else:
        terms = [
            {"exp": int(e), "coeff": _coeff_to_pairs(c)}
            for e, c in zip(f.exponents, f.coeffs)
        ]
        out = {"dim": f.dim, "kind": "disc", "terms": terms,
               "truncation_degree": int(f.truncation_degree)}
    if tail_model is not None:
        out["tail_model"] = {
            "recurrent": [_coeff_to_pairs(v) for v in tail_model.recurrent],
            "transient": [
                {"index": k, "coeff": _coeff_to_pairs(v)}
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
    dim = data["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise InputError(f"'dim' must be a positive integer, got {dim!r}")
    kind = data.get("kind", "disc")
    if kind not in ("disc", "polydisc"):
        raise InputError(f"'kind' must be 'disc' or 'polydisc', got {kind!r}")
    terms = data["terms"]
    if not isinstance(terms, list):
        raise InputError("'terms' must be a list")
    if kind == "polydisc":
        poly_dim = data.get("poly_dim")
        if not isinstance(poly_dim, int) or poly_dim < 1:
            raise InputError("'poly_dim' must be a positive integer for polydisc series")
        parsed = []
        for i, t in enumerate(terms):
            e = t.get("exp")
            if not isinstance(e, list) or len(e) != poly_dim:
                raise InputError(f"terms[{i}]: 'exp' must be a list of {poly_dim} integers")
            parsed.append((tuple(e), _coeff_from_pairs(t.get("coeff", []), dim, f"terms[{i}]")))
        try:
            series = PolySeries(poly_dim, dim, parsed)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    else:
        exps, coeffs = [], []
        for i, t in enumerate(terms):
            e = t.get("exp")
            if not isinstance(e, int) or e < 0:
                raise InputError(f"terms[{i}]: 'exp' must be a nonnegative integer")
            exps.append(e)
            coeffs.append(_coeff_from_pairs(t.get("coeff", []), dim, f"terms[{i}]"))
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise InputError("'terms' exponents must be strictly increasing")
        try:
            series = VectorSeries(
                dim, exps,
                np.array(coeffs).reshape(len(exps), dim),
                data.get("truncation_degree"),
            )
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    model = None
    if "tail_model" in data and data["tail_model"] is not None:
        tm = data["tail_model"]
        if not isinstance(tm, dict) or "recurrent" not in tm:
            raise InputError("'tail_model' must be an object with a 'recurrent' list")
        rec = [_coeff_from_pairs(v, dim, "tail_model.recurrent") for v in tm["recurrent"]]
        tra = [
            (t["index"], _coeff_from_pairs(t["coeff"], dim, "tail_model.transient"))
            for t in tm.get("transient", [])
        ]
        try:
            model = TailModel(dim, rec, tra)
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"bad tail_model: {exc}") from exc
    return series, model


def load_series(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return series_from_dict(data)


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
