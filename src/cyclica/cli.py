"""Command-line front door.

Subcommands: analyze, spectrum, construct, multishift, unions, blocks,
factorize, orbit, polydisc.  All randomness is seeded (flag --seed, env var
CYCLICA_SEED takes precedence, read on every call); reports are
deterministic JSON with the configuration echoed.  The argument parser
depends on no input, so it is built once per process and reused by every
:func:`dispatch`; it holds no results.  Each subcommand handler returns its
report and verdict, and :func:`dispatch` alone echoes the configuration,
writes and prints every report and sets every exit code: 0 success, 1 when
--strict is set and the verdict is non-cyclic, 2 on input errors: a
malformed file, a series file of the wrong kind, an out-of-range flag or
an output path that cannot be written, reported as one ``error:`` line.
File formats are read by :mod:`cyclica.io`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import cache

import numpy as np

from . import __version__
from .blocks import blocks_cyclicity
from .coefspace import cyclicity_single, decompose
from .constructions import (
    CrcPointSet,
    CrtSequenceSpec,
    DivisorClosedSet,
    crc_sequence,
)
from .core import Tolerances
from .io import (
    InputError,
    _load_series,
    dump_report,
    load_blocks,
    load_spectrum,
    series_to_dict,
    write_csv,
)
from .multishift import af_membership, sstarN_cyclicity
from .polydisc import check_c1_c2, polydisc_cyclicity
from .spectrum import (
    IntegerSpectrum,
    _admits_SstarN,
    difference_multiplicity,
    lacunarity_ratio,
)
from .verdicts import STATUS_CLASSES

NONCYCLIC_STATUSES = frozenset(STATUS_CLASSES["negative"])


@dataclass(frozen=True)
class RunConfig:
    tolerances: Tolerances
    seed: int
    horizon: int
    strict: bool = False

    def __post_init__(self):
        if self.horizon < 8:
            raise InputError("horizon must be at least 8")

    def echo(self):
        return {"version": __version__, **asdict(self)}


def _config(args) -> RunConfig:
    seed = args.seed
    env = os.environ.get("CYCLICA_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise InputError(f"CYCLICA_SEED must be an integer, got {env!r}")
    tol = Tolerances(**{f.name: getattr(args, f.name) for f in fields(Tolerances)})
    return RunConfig(tol, seed, args.horizon, getattr(args, "strict", False))


def _verdict_exit(verdict, config) -> int:
    strict = config.strict and verdict is not None
    return 1 if strict and verdict.status in NONCYCLIC_STATUSES else 0


# -- subcommand handlers ----------------------------------------------------
# each returns (report, verdict), verdict None where there is none; construct
# writes CSV and returns None

def _cmd_analyze(args, config):
    series, model = _load_series(args.input, "disc")
    tol = config.tolerances
    if model is not None:
        rep = decompose(series, model, tol)
        out = {
            "verdict": rep.verdict.to_dict(),
            "mode": rep.mode,
            "x_star_basis": rep.x_star.basis.T,
            "n_of_f": rep.n_of_f,
            "deg_p_exponent": rep.deg_p_exponent,
            "deg_p_index": rep.deg_p_index,
            "p_terms": series_to_dict(rep.p)["terms"],
        }
        verdict = rep.verdict
    else:
        verdict = cyclicity_single(series, tol)
        out = {"verdict": verdict.to_dict(), "mode": verdict.mode,
               "at_horizon": True}
    return out, verdict


def _cmd_spectrum(args, config):
    s = load_spectrum(args.input)
    out = {"kind": s.kind}
    K = config.horizon
    if args.lacunarity:
        out["lacunarity_ratio"] = lacunarity_ratio(s, K)
    if args.diff_mult:
        out["difference_multiplicity"] = difference_multiplicity(s, K)
    if args.residues is not None:
        N = args.residues
        res = s.residues(N, K)
        out["residues_hit"] = sorted(set(res))
        out["admits_SstarN"] = _admits_SstarN(s, N, K, lambda: res).to_dict()
    return out, None


def _cmd_construct(args, config):
    if args.report:
        raise InputError("construct writes CSV, not a JSON report; use --out")
    if args.count < 1:
        raise InputError("--count must be at least 1")
    ks = range(1, args.count + 1)
    if args.generator == "crc":
        if args.dim is None:
            raise InputError("construct crc requires --dim")
        points = CrcPointSet(list(np.eye(args.dim)))
        header = ("index",) + tuple(f"coeff_{j}" for j in range(args.dim))
        rows = [(k,) + tuple(f"{c.real:.17g}{c.imag:+.17g}j"
                             for c in crc_sequence(points, k)) for k in ks]
    else:
        if args.generator == "factorial":
            s = IntegerSpectrum.factorial_plus_k()
        else:
            if not args.set:
                raise InputError("construct crt requires --set")
            try:
                gens = [int(x) for x in args.set.split(",")]
            except ValueError:
                raise InputError(f"--set must be comma-separated integers, got {args.set!r}")
            s = IntegerSpectrum.crt(CrtSequenceSpec(DivisorClosedSet(gens)))
        header = ("index", "value" if args.mod is None else "residue")
        if args.mod is not None:
            column = s.residues(args.mod, args.count)
        else:
            column = s.terms(args.count)
        rows = list(zip(ks, column))
    if args.out:
        write_csv(args.out, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))


def _cmd_multishift(args, config):
    tol = config.tolerances
    if args.af:
        if args.nmax < 1:
            raise InputError("--nmax must be at least 1")
        s = load_spectrum(args.input)
        members = sorted(af_membership(s, args.nmax, config.horizon))
        return {"af_membership": members, "nmax": args.nmax}, None
    if args.power is None:
        raise InputError("multishift requires --power N or --af")
    series, _ = _load_series(args.input, "disc")
    verdict = sstarN_cyclicity(series, args.power, tol, horizon=config.horizon)
    return {"power": args.power, "verdict": verdict.to_dict()}, verdict


def _cmd_unions(args, config):
    from .unions import construct_prescribed_spectra

    tol = config.tolerances
    if args.action == "construct":
        if not args.spectra:
            raise InputError("unions construct requires --spectra")
        spectra = [load_spectrum(p) for p in args.spectra.split(",")]
        stacked, comps, verdict = construct_prescribed_spectra(
            spectra, seed=config.seed, horizon=min(config.horizon, 16), tol=tol
        )
        out = {
            "verdict": verdict.to_dict(),
            "stacked": series_to_dict(stacked),
            "components": [series_to_dict(c) for c in comps],
        }
        return out, verdict
    # check: a stacked family series with a tail model
    if not args.input:
        raise InputError("unions check requires --input")
    series, model = _load_series(args.input, "disc")
    verdict = cyclicity_single(series, tol, model=model)
    return {"verdict": verdict.to_dict()}, verdict


def _cmd_blocks(args, config):
    bs, model = load_blocks(args.input, args.model)
    verdict = blocks_cyclicity(bs, model, config.tolerances, seed=config.seed)
    return {"verdict": verdict.to_dict()}, verdict


def _cmd_factorize(args, config):
    from .modelspace import factorize_Ep, verify_potapov

    series, _ = _load_series(args.poly, "disc")
    tol = config.tolerances
    pp = factorize_Ep(series, tol)
    report = verify_potapov(pp, seed=config.seed, tol=tol, generator=series)
    out = {
        "dim": pp.dim,
        "factors": [x for x in pp.factors],
        "theta_coeffs": pp.assembled.coeffs,
        "verification": report,
    }
    if args.out:
        dump_report(out, args.out)
    return {"n_factors": pp.n_factors, "verification": report}, None


def _cmd_orbit(args, config):
    from .orbit import orbit_project

    f, _ = _load_series(args.input, "disc")
    g, _ = _load_series(args.target, "disc")
    rep = orbit_project(f, g, args.max_shift, config.tolerances)
    if args.csv:
        rows = [
            (int(n), float(rep.residuals[n]), float(rep.gram_condition))
            for n in range(args.max_shift + 1)
        ]
        write_csv(args.csv, ("budget", "residual", "gram_condition"), rows)
    return {
        "residual_final": rep.residual_final,
        "target_norm": rep.target_norm,
        "gram_condition": rep.gram_condition,
        "truncation_degree": rep.truncation_degree,
    }, None


def _cmd_polydisc(args, config):
    series, model = _load_series(args.input, "polydisc")
    out = {}
    if args.check_c1c2:
        c1, c2, note = check_c1_c2(series)
        out["c1_multiplicity"] = c1
        out["c2_verdict"] = c2.to_dict()
        out["c1_certificate"] = note
    verdict = None
    if args.analyze:
        verdict = polydisc_cyclicity(series, config.tolerances, model)
        out["verdict"] = verdict.to_dict()
    return out, verdict


# -- parser -----------------------------------------------------------------

@cache
def _build_parser():
    p = argparse.ArgumentParser(
        prog="cyclica",
        description="Decide and certify backward-shift cyclicity of lacunary series.",
    )
    p.add_argument("--version", action="version", version=f"cyclica {__version__}")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--horizon", type=int, default=64)
    for f in fields(Tolerances):
        shared.add_argument("--" + f.name.replace("_", "-"), type=float,
                            default=f.default)
    shared.add_argument("--report", default=None, help="write the JSON report here")
    strict = argparse.ArgumentParser(add_help=False, parents=[shared])
    strict.add_argument("--strict", action="store_true",
                        help="exit 1 on a non-cyclic verdict")

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="tail-span cyclicity analysis",
                        parents=[strict])
    sp.add_argument("--input", required=True)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("spectrum", help="exponent sequence diagnostics",
                        parents=[shared])
    sp.add_argument("--input", required=True)
    sp.add_argument("--lacunarity", action="store_true")
    sp.add_argument("--diff-mult", action="store_true")
    sp.add_argument("--residues", type=int, default=None, metavar="N")
    sp.set_defaults(func=_cmd_spectrum)

    sp = sub.add_parser("construct", help="sequence generators", parents=[shared])
    sp.add_argument("generator", choices=("factorial", "crt", "crc"))
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--mod", type=int, default=None)
    sp.add_argument("--set", default=None, help="comma-separated generators for crt")
    sp.add_argument("--dim", type=int, default=None, help="dimension for crc")
    sp.add_argument("--out", default=None, help="CSV output path")
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("multishift", help="N-th power shift cyclicity",
                        parents=[strict])
    sp.add_argument("--input", required=True)
    sp.add_argument("--power", type=int, default=None, metavar="N")
    sp.add_argument("--af", action="store_true",
                    help="report the set of certified powers")
    sp.add_argument("--nmax", type=int, default=12)
    sp.set_defaults(func=_cmd_multishift)

    sp = sub.add_parser("unions", help="shifted-spectrum families", parents=[strict])
    sp.add_argument("action", choices=("construct", "check"))
    sp.add_argument("--spectra", default=None,
                    help="comma-separated spectrum files (construct)")
    sp.add_argument("--input", default=None, help="family file (check)")
    sp.set_defaults(func=_cmd_unions)

    sp = sub.add_parser("blocks", help="bounded-block cyclicity", parents=[strict])
    sp.add_argument("--input", required=True)
    sp.add_argument("--model", required=True)
    sp.set_defaults(func=_cmd_blocks)

    sp = sub.add_parser("factorize", help="model-space factorization", parents=[shared])
    sp.add_argument("--poly", required=True)
    sp.add_argument("--out", default=None, help="write factors + matrix here")
    sp.set_defaults(func=_cmd_factorize)

    sp = sub.add_parser("orbit", help="orbit least-squares residual curves",
                        parents=[shared])
    sp.add_argument("--input", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--max-shift", type=int, default=256)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=_cmd_orbit)

    sp = sub.add_parser("polydisc", help="polydisc series analysis", parents=[strict])
    sp.add_argument("--input", required=True)
    sp.add_argument("--check-c1c2", action="store_true")
    sp.add_argument("--analyze", action="store_true")
    sp.set_defaults(func=_cmd_polydisc)

    return p


def dispatch(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
        out = args.func(args, config)
        if out is None:  # construct's CSV
            return 0
        report, verdict = out
        print(dump_report({"config": config.echo(), **report}, args.report))
    # InputError, every library argument check, and a report or CSV path
    # that cannot be written
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _verdict_exit(verdict, config)


def main():
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
