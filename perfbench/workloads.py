"""Seeded inputs, library calls and output checks for the three workloads.

Each workload builds one *cycle*: a fixed list of jobs whose composition
(kinds, sizes, budgets) does not depend on the seed, so every seed costs
about the same.  The seed draws the coefficients, phases, targets and
the order of jobs in the cycle.  The timed phase repeats whole cycles; the
library keeps no cache between calls, so a repeated job costs what the
first one did.

A workload builder returns a :class:`Workload`.  A job is
``run()`` returning the library output and ``check(output)`` returning True
when the output matches the generator's known answer.
Library functions are looked up on their module at call time, so the
tracer's wrappers are the ones that run in a traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import lsmr

from cyclica import (blocks, cli, coefspace, core, modelspace, multishift,
                     orbit, polydisc, spectrum, unions)

TWO_PI = 2.0 * np.pi


@dataclass
class Workload:
    cycle: list  # jobs in composition order; the runner shuffles them
    warmup: list  # one cheap job per kind, run during set-up
    digest: object = None  # () -> SHA-256 of the CLI reports, or None


@dataclass
class Job:
    kind: str
    run: object  # () -> output
    check: object  # output -> bool
    # orbit-disc only: output -> (endpoint differs from the oracle,
    #                             curve differs from the oracle)
    mismatch: object = None


def _phases(rng, n):
    return np.exp(TWO_PI * 1j * rng.uniform(size=n))


def _gauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- orbit-disc ---------------------------------------------------------------

# (series, base, budget): mostly 64-256 with two large budgets per cycle.
# An odd number of jobs puts the median latency inside one job's spread
# rather than on the gap between two.
# Bases 4 and 16 are the ill-conditioned orbits where the reported endpoint
# disagrees with the true optimum; base 2 is well conditioned.
ORBIT_CYCLE = {
    "full": [("dyadic", 2, 64), ("dyadic", 4, 96), ("dyadic", 16, 128),
             ("pair", 2, 128), ("dyadic", 2, 160), ("pair", 4, 192),
             ("dyadic", 4, 256), ("dyadic", 16, 256), ("pair", 16, 64),
             ("dyadic", 16, 192), ("pair", 2, 256), ("dyadic", 2, 128),
             ("dyadic", 4, 1024), ("pair", 16, 512), ("pair", 4, 96)],
    "smoke": [("dyadic", 2, 32), ("dyadic", 16, 48), ("pair", 4, 40)],
}
ORBIT_TERMS = 20
ORBIT_TOL = 1e-6  # agreement with the oracle, relative to ||g||


def dyadic_series(base, phases):
    """Criterion 1: sum_k base^-k e^(i theta_k) z^(2^k)."""
    K = len(phases)
    return core.scalar_series([2**k for k in range(1, K + 1)],
                              [base**-k * phases[k - 1] for k in range(1, K + 1)])


def merged_pair(base, phases):
    """Criterion 5: (f, S*f) as one C^2 series, a_k e1 at 2^k, a_k e2 at 2^k - 1."""
    exps, coeffs = [], []
    for k in range(1, len(phases) + 1):
        a = base**-k * phases[k - 1]
        exps += [2**k - 1, 2**k]
        coeffs += [[0.0, a], [a, 0.0]]
    return core.VectorSeries(2, exps, np.array(coeffs))


def orbit_oracle(f, g, budget):
    """min ||g - sum_n x_n S*^n f|| by column-scaled LSMR on the explicit
    sparse orbit matrix (rows: exponent x component)."""
    E, A, d = f.exponents, f.coeffs, f.dim
    ti, ni = np.nonzero(E[:, None] >= np.arange(budget + 1)[None, :])
    keys = ((E[ti] - ni) * d)[:, None] + np.arange(d)
    vals = A[ti]
    cols = np.repeat(ni[:, None], d, axis=1)
    nz = vals != 0
    keys, vals, cols = keys[nz], vals[nz], cols[nz]
    gkeys = (g.exponents * d)[:, None] + np.arange(d)
    gnz = g.coeffs != 0
    uniq, inv = np.unique(np.concatenate([keys, gkeys[gnz]]), return_inverse=True)
    M = scipy.sparse.csc_matrix((vals, (inv[: keys.size], cols)),
                                shape=(uniq.size, budget + 1))
    b = np.zeros(uniq.size, dtype=complex)
    b[inv[keys.size:]] = g.coeffs[gnz]
    scale = 1.0 / np.sqrt(np.asarray(abs(M).power(2).sum(axis=0)).ravel())
    Ms = M @ scipy.sparse.diags(scale)
    x = lsmr(Ms, b, atol=1e-15, btol=1e-15, maxiter=20 * (budget + 1))[0]
    return float(np.linalg.norm(Ms @ x - b))


def _orbit_job(series, base, budget, rng):
    phases = _phases(rng, ORBIT_TERMS)
    j = int(rng.integers(0, 4))  # the constant or a low monomial z^j
    if series == "dyadic":
        f = dyadic_series(base, phases)
        g = core.scalar_series([j], [1.0])
    else:
        f = merged_pair(base, phases)
        c = np.zeros((1, 2))
        c[0, rng.integers(0, 2)] = 1.0
        g = core.VectorSeries(2, [j], c)
    ref = orbit_oracle(f, g, budget)
    tol = ORBIT_TOL * g.norm()

    def check(rep):
        curve = np.asarray(rep.residuals)
        return bool(
            curve.shape == (budget + 1,)
            and np.all(np.isfinite(curve))
            and np.all(np.diff(curve) <= 0.0)
            and curve[0] <= g.norm() * (1 + 1e-12)
            # the curve is the residual of an actual combination, so it can
            # never undercut the true optimum the oracle approximates
            and curve[-1] >= ref - tol
        )

    def mismatch(rep):
        return (abs(rep.residual_final - ref) > tol,
                abs(rep.residuals[-1] - ref) > tol)

    size_class = "large" if budget >= 512 else "small"
    return Job(f"orbit_{series}_{size_class}",
               lambda: orbit.orbit_project(f, g, budget), check, mismatch)


def orbit_disc(rng, size, workdir):
    cycle = [_orbit_job(*spec, rng) for spec in ORBIT_CYCLE[size]]
    # warm up on one job per series and budget class: the first large
    # budget also pays the process's one-off cost of large allocations
    warmup = list({job.kind: job for job in reversed(cycle)}.values())
    return Workload(cycle, warmup)


# -- orbit-polydisc -----------------------------------------------------------

# full: the criterion-8 series with a (2^8, 3^4) box; the check threshold
# 3e-3 sits above the measured full-box residual 2.48e-3, so the three
# monomial replays always run.
POLY_SIZES = {
    "full": dict(terms=10, sub_boxes=((2**5, 3**3), (2**6, 3**4)),
                 box=(2**8, 3**4), threshold=3e-3),
    "smoke": dict(terms=10, sub_boxes=((2**3, 3**2),),
                  box=(2**5, 3**3), threshold=1e-2),
}


def orbit_polydisc(rng, size, workdir):
    # the warm-up job runs the same pipeline on the smoke-size box
    warm = _polydisc_job(np.random.default_rng(0), POLY_SIZES["smoke"])
    return Workload([_polydisc_job(rng, POLY_SIZES[size])], [warm])


def _polydisc_job(rng, p):
    K = p["terms"]
    phases = _phases(rng, K)
    f = polydisc.PolySeries(2, 1, [((2**k, 3**k), [16.0**-k * phases[k - 1]])
                                   for k in range(1, K + 1)])
    eta = [(0, 0), (1, 0), (0, 1), (1, 1)][int(rng.integers(0, 4))]
    g = polydisc.PolySeries(2, 1, [(eta, [1.0])])

    def run():
        c1, c2, _ = polydisc.check_c1_c2(f)
        verdict = polydisc.polydisc_cyclicity(f)
        reps = [orbit.orbit_project_polydisc(f, g, box) for box in p["sub_boxes"]]
        in_orbit = orbit.one_in_orbit_check(f, p["box"], threshold=p["threshold"])
        return in_orbit, verdict, c1, c2, reps

    def check(out):
        in_orbit, verdict, c1, c2, reps = out
        curves_ok = all(
            np.all(np.diff(r.residuals) <= 0.0)
            and 0.0 <= r.residual_final <= g.norm() * (1 + 1e-9)
            for r in reps
        )
        return bool(in_orbit) and (verdict.status == "Cyclic"
                                   and c1 <= 1 and bool(c2) and curves_ok)

    return Job("polydisc_pipeline", run, check)


# -- certify-mix --------------------------------------------------------------

def lacunary_exponents(n, ratio=1.25):
    """n strictly increasing exponents growing like ratio^k."""
    out, e = [], 1
    for k in range(n):
        e = max(e + 1, int(np.ceil(ratio**k)))
        out.append(e)
    return out


def raw_series(rng, d, n, witness=None):
    """Generic C^d coefficients; with a witness m0, every coefficient from
    position m0 on lies in a fixed hyperplane, so the first proper tail
    span starts at m0."""
    coeffs = _gauss(rng, n, d)
    if witness is not None:
        H = _gauss(rng, d, d - 1)  # hyperplane basis
        coeffs[witness:] = _gauss(rng, n - witness, d - 1) @ H.T
    return core.VectorSeries(d, lacunary_exponents(n), coeffs)


def tail_model_instance(rng, d, r, K=14):
    """Criterion 3's generator: cyclic iff the recurrent rank r equals d."""
    rec = list(_gauss(rng, r, d))
    n_tr = int(rng.integers(0, 3))
    positions = sorted(rng.choice(6, size=n_tr, replace=False)) if n_tr else []
    tmap = {int(k): _gauss(rng, d) for k in positions}
    basis = np.array(rec).T
    coeffs = np.array([tmap[j] if j in tmap else 2.0**-j * (basis @ _gauss(rng, r))
                       for j in range(K)])
    f = core.VectorSeries(d, [2**k for k in range(1, K + 1)], coeffs)
    return f, coefspace.TailModel(d, rec, sorted(tmap.items()))


def power_series(rng, d, N, n, cyclic):
    """n_k = N 2^(k+1) + r_k, one exponent per reshaped block; the residues
    r_k cycle through all classes mod N (cyclic for S*^N) or miss N - 1."""
    period = N if cyclic else N - 1
    exps = [N * 2 ** (k + 1) + k % period for k in range(n)]
    return core.VectorSeries(d, exps, _gauss(rng, n, d))


def crosscheck_spectrum(rng, kind):
    """Criterion 6's spectrum generator, with the kind chosen by the caller."""
    if kind == "geometric":
        return spectrum.IntegerSpectrum.geometric(int(rng.integers(2, 6)))
    if kind == "factorial":
        return spectrum.IntegerSpectrum.factorial_plus_k()
    from cyclica.constructions import CrtSequenceSpec, DivisorClosedSet

    # the generator set is fixed: its size sets the cost of every term
    return spectrum.IntegerSpectrum.crt(CrtSequenceSpec(DivisorClosedSet({4, 6})))


def block_series(rng, K, polys, weights):
    """Blocks sum_j w_kj P_j at n_k = 2^(k+1) - 1."""
    bl = [(2 ** (k + 1) - 1, sum(w * P for w, P in zip(weights[k], polys)))
          for k in range(K)]
    return blocks.BlockSeries(polys[0].shape[1], polys[0].shape[0] - 1, bl)


def _status(expected):
    return lambda v: v.status == expected


def certify_jobs(rng, size):
    small = size == "smoke"
    jobs = []
    for d, n in ((2, 60), (4, 120), (8, 170)) if not small else ((2, 16),):
        f = raw_series(rng, d, n)
        jobs.append(Job(f"necessary_full_d{d}",
                        lambda f=f: coefspace.necessary_condition(f),
                        _status("PossiblyCyclic")))
        m0 = int(rng.integers(1, 4))
        f = raw_series(rng, d, n, witness=m0)
        jobs.append(Job(f"necessary_witness_d{d}",
                        lambda f=f: coefspace.necessary_condition(f),
                        lambda v, m0=m0: v.status == "NotCyclic" and v.witness == m0))
    # sizes are fixed per slot so that every seed costs the same
    for cyclic, d, r, N in ((True, 3, 3, 3), (False, 4, 2, 4)):
        f, model = tail_model_instance(rng, d, r)
        jobs.append(Job(f"decompose_{'cyclic' if cyclic else 'deficient'}",
                        lambda f=f, m=model: coefspace.decompose(f, m),
                        lambda rep, c=cyclic: rep.verdict.status
                        == ("Cyclic" if c else "NonCyclic")))
        f = power_series(rng, 2, N, 12 if small else 30, cyclic)
        jobs.append(Job(f"sstarN_{'cyclic' if cyclic else 'noncyclic'}",
                        lambda f=f, N=N: multishift.sstarN_cyclicity(f, N),
                        _status("Cyclic" if cyclic else "NonCyclic")))
        K = 12 if small else 40
        a = _gauss(rng, K, 2)
        b = _gauss(rng, K, 2) if cyclic else complex(_gauss(rng)) * a
        terms = [2**k for k in range(1, K + 1)]
        phis = [core.VectorSeries(2, terms, a),
                core.VectorSeries(2, [t + 1 for t in terms], b)]
        jobs.append(Job(f"stacked_{'cyclic' if cyclic else 'collinear'}",
                        lambda p=phis: unions.stacked_sufficient(p),
                        _status("CyclicSufficient" if cyclic else "Inconclusive")))
    # a full-rank model in a larger dimension; it also makes the cycle's
    # job count odd (see ORBIT_CYCLE)
    f, model = tail_model_instance(rng, 6, 6)
    jobs.append(Job("decompose_cyclic_d6", lambda f=f, m=model: coefspace.decompose(f, m),
                    lambda rep: rep.verdict.status == "Cyclic"))
    for kind, N in (("geometric", 3), ("factorial", 4), ("crt", 6)):
        s = crosscheck_spectrum(rng, kind)
        seed = int(rng.integers(0, 2**31))
        jobs.append(Job(f"residue_crosscheck_{kind}",
                        lambda s=s, N=N, seed=seed: multishift.residue_crosscheck(
                            s, N, horizon=32, seed=seed),
                        lambda ok: bool(ok)))
    # blocks: criterion 5's swap direction (local rank 1) and a full pair
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    first = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    ident = np.eye(2, dtype=complex)
    upper = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    K = 10 if small else 40
    bs = block_series(rng, 20, [swap], 2.0 ** -np.arange(1, 21)[:, None]
                      * _phases(rng, 20)[:, None])
    jobs.append(Job("blocks_criterion5",
                    lambda bs=bs: blocks.blocks_cyclicity(
                        bs, blocks.PolyDirectionModel([swap])),
                    lambda v: v.status == "NonCyclic" and v.detail["local_rank"] == 1))
    bs = block_series(rng, 20, [ident, upper], _gauss(rng, 20, 2))
    jobs.append(Job("blocks_full_rank",
                    lambda bs=bs: blocks.blocks_cyclicity(
                        bs, blocks.PolyDirectionModel([ident, upper])),
                    lambda v: v.status == "Cyclic" and v.detail["local_rank"] == 2))
    bs = block_series(rng, K, [swap], _gauss(rng, K, 1))
    jobs.append(Job("blocks_necessary_full",
                    lambda bs=bs: blocks.blocks_necessary(bs),
                    _status("PossiblyCyclic")))
    bs = block_series(rng, K, [first], _gauss(rng, K, 1))
    jobs.append(Job("blocks_necessary_witness",
                    lambda bs=bs: blocks.blocks_necessary(bs),
                    lambda v: v.status == "NotCyclic" and v.witness == 0))
    for d, N in ((2, 4), (4, 12)) if not small else ((2, 2),):
        p = core.VectorSeries(d, list(range(N + 1)), _gauss(rng, N + 1, d))
        seed = int(rng.integers(0, 2**31))

        def run(p=p, seed=seed):
            pp = modelspace.factorize_Ep(p)
            return pp.n_factors, modelspace.verify_potapov(pp, seed=seed, generator=p)

        jobs.append(Job(f"factorize_d{d}_N{N}", run,
                        lambda out, N=N: out[0] == N + 1 and out[1]["all_ok"] is True))
    return jobs


# -- CLI jobs ------------------------------------------------------------------

def _series_file(path, f, model=None):
    from cyclica.io import series_to_dict

    with open(path, "w") as fh:
        json.dump(series_to_dict(f, model), fh)
    return path


class CliJobs:
    """CLI subcommands run in process through ``cli.dispatch`` on files
    written during set-up.  Each report must be byte-identical every time
    its job runs; the digest covers the first report of each job."""

    def __init__(self, rng, size, workdir):
        self.reports = {}
        self.workdir = workdir
        self.jobs = []
        small = size == "smoke"

        def w(name):
            return os.path.join(workdir, name)

        d, n = (2, 16) if small else (4, 120)
        f = raw_series(rng, d, n)
        self._add("analyze", ["analyze", "--input", _series_file(w("raw.json"), f)],
                  lambda r: r["verdict"]["status"] == "Cyclic")
        f, model = tail_model_instance(rng, 3, 2)
        self._add("analyze_tail_model",
                  ["analyze", "--input", _series_file(w("model.json"), f, model)],
                  lambda r: r["verdict"]["status"] == "NonCyclic"
                  and r["mode"] == "exact")
        N = 3
        f = power_series(rng, 2, N, 12 if small else 30, cyclic=True)
        self._add("multishift_power",
                  ["multishift", "--input", _series_file(w("power.json"), f),
                   "--power", str(N)],
                  lambda r: r["verdict"]["status"] == "Cyclic")
        # the CRT sequence of {4, 6} covers exactly the divisor closure
        # {1, 2, 3, 4, 6}, so N = 5 has no witness (criterion 2)
        with open(w("spectrum.json"), "w") as fh:
            json.dump({"kind": "crt", "generators": [4, 6]}, fh)
        self._add("spectrum_residues",
                  ["spectrum", "--input", w("spectrum.json"), "--residues", "5"],
                  lambda r: r["admits_SstarN"]["status"] == "No-witness")
        d, N = (2, 2) if small else (3, 6)
        p = core.VectorSeries(d, list(range(N + 1)), _gauss(rng, N + 1, d))
        self._add("factorize",
                  ["factorize", "--poly", _series_file(w("poly.json"), p)],
                  lambda r: r["n_factors"] == N + 1
                  and r["verification"]["all_ok"] is True)

    def _add(self, name, argv, check_report):
        report = os.path.join(self.workdir, f"report_{name}.json")
        argv = argv + ["--report", report]

        def run():
            with contextlib.redirect_stdout(_stdio.StringIO()):
                code = cli.dispatch(argv)
            with open(report, "rb") as fh:
                return code, fh.read()

        def check(out):
            code, data = out
            first = self.reports.setdefault(name, data)
            return code == 0 and data == first and check_report(json.loads(data))

        self.jobs.append(Job(f"cli_{name}", run, check))

    def digest(self):
        """SHA-256 over the default reports, in job-name order."""
        h = hashlib.sha256()
        for name in sorted(self.reports):
            h.update(name.encode() + b"\0" + self.reports[name] + b"\0")
        return h.hexdigest()


def certify_mix(rng, size, workdir):
    cli_jobs = CliJobs(rng, size, workdir)
    cycle = certify_jobs(rng, size) + cli_jobs.jobs
    warmup = list({job.kind: job for job in reversed(cycle)}.values())
    return Workload(cycle, warmup, cli_jobs.digest)


WORKLOADS = {"orbit-disc": orbit_disc, "orbit-polydisc": orbit_polydisc,
             "certify-mix": certify_mix}
