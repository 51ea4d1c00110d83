"""Least-squares projection of targets onto truncated backward-shift orbits.

The orbit of f under the backward shift spans the whole space exactly when f
is cyclic; numerically we certify this at truncation by projecting a target g
onto span{S*^n f : n <= budget} and reporting the residual curve.  All inner
products are computed exactly on the stored coefficients through the Gram
matrix of the orbit, which for a lacunary series is built by band filling
over term pairs rather than by materializing the shifted series.

Disc orbits use a dense Gram system (incremental Cholesky for the curve, a
spectral pseudo-inverse for the authoritative endpoint).  Polydisc orbits over
large shift boxes use a sparse least-squares solve (LSMR) on a matrix
assembled in one vectorized pass; ``one_in_orbit_check`` thresholds the
residual of the constant 1 at the full box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import solve_triangular

from .core import Tolerances, VectorSeries, backward_shift
from .polydisc import PolySeries

__all__ = [
    "OrbitReport",
    "TailDiagnostics",
    "orbit_project",
    "orbit_project_polydisc",
    "one_in_orbit_check",
    "tail_diagnostics",
]


@dataclass(frozen=True)
class OrbitReport:
    shifts_used: tuple
    residuals: np.ndarray  # nonincreasing, indexed by budget
    coefficients: np.ndarray  # best approximation at the largest budget
    gram_condition: float
    truncation_degree: int
    target_norm: float
    residual_final: float  # endpoint recomputed via the spectral pseudo-inverse
    detail: dict = field(default_factory=dict)


def _orbit_gram(f: VectorSeries, n_max: int) -> np.ndarray:
    """G[m, n] = <S*^n f, S*^m f>, filled along diagonals d = n - m.

    A term pair (e_i, a_i), (e_j, a_j) contributes <a_i, a_j> to every (m, n)
    with e_i - n = e_j - m >= 0, i.e. along the band n - m = e_i - e_j.
    """
    B = n_max + 1
    G = np.zeros((B, B), dtype=complex)
    E = f.exponents
    A = f.coeffs
    for i in range(len(E)):
        for j in range(len(E)):
            d = int(E[i] - E[j])
            v = complex(np.vdot(A[j], A[i]))  # <a_i, a_j>
            mlo = max(0, -d)
            mhi = min(int(E[j]), n_max, n_max - d)
            if mhi >= mlo:
                idx = np.arange(mlo, mhi + 1)
                G[idx, idx + d] += v
    return G


def _orbit_beta(f: VectorSeries, g: VectorSeries, n_max: int) -> np.ndarray:
    """beta[n] = <g, S*^n f>."""
    beta = np.zeros(n_max + 1, dtype=complex)
    for ei, ai in zip(f.exponents, f.coeffs):
        for eg, bg in zip(g.exponents, g.coeffs):
            n = int(ei - eg)
            if 0 <= n <= n_max:
                beta[n] += np.vdot(ai, bg)  # <b_g, a_i> conj-linear in a_i
    return beta


def _curve_incremental(G, beta, g_norm2, cut):
    """Residual curve by incremental Cholesky with near-dependent skipping.

    Exactly nonincreasing: each accepted orbit direction removes a
    nonnegative amount |y_n|^2 from the squared residual, and skipped
    directions change nothing.
    """
    B = G.shape[0]
    L = np.zeros((B, B), dtype=complex)
    y = np.zeros(B, dtype=complex)
    acc = []
    res2 = g_norm2
    curve = np.empty(B)
    diag_max = max(float(G[0, 0].real), 1e-300)
    for n in range(B):
        gnn = float(G[n, n].real)
        diag_max = max(diag_max, gnn)
        k = len(acc)
        if k:
            col = G[acc, n]
            w = solve_triangular(L[:k, :k], col, lower=True, check_finite=False)
        else:
            w = np.zeros(0, dtype=complex)
        d2 = gnn - float(np.vdot(w, w).real)
        if d2 > cut * diag_max:
            d = np.sqrt(d2)
            L[k, :k] = w.conj()
            L[k, k] = d
            yn = (beta[n] - np.vdot(w, y[:k])) / d
            y[k] = yn
            acc.append(n)
            res2 = max(res2 - abs(yn) ** 2, 0.0)
        curve[n] = np.sqrt(res2)
    return curve, acc


def orbit_project(f: VectorSeries, g: VectorSeries, n_max: int,
                  tol: Tolerances = Tolerances()) -> OrbitReport:
    """Project g onto span{S*^n f : 0 <= n <= n_max}, exactly on truncations.

    Returns the full residual curve for budgets 0..n_max plus the endpoint
    solved by spectral decomposition of the Gram system with relative cutoff
    ``tol_rank``.
    """
    if f.is_zero:
        raise ValueError("cannot project onto the orbit of the zero series")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    G = _orbit_gram(f, n_max)
    beta = _orbit_beta(f, g, n_max)
    g_norm2 = g.norm() ** 2
    curve, acc = _curve_incremental(G, beta, g_norm2, cut=tol.tol_rank**2)
    # authoritative endpoint: spectral pseudo-inverse of the full Gram system
    w, V = np.linalg.eigh(G)
    w = np.maximum(w, 0.0)
    keep = w > tol.tol_rank * (w[-1] if w[-1] > 0 else 1.0)
    Vb = V[:, keep].conj().T @ beta
    proj2 = float(np.sum(np.abs(Vb) ** 2 / w[keep])) if np.any(keep) else 0.0
    res_final = float(np.sqrt(max(g_norm2 - proj2, 0.0)))
    coeffs = V[:, keep] @ (Vb / w[keep]) if np.any(keep) else np.zeros_like(beta)
    cond = float(w[-1] / w[keep].min()) if np.any(keep) else np.inf
    return OrbitReport(
        shifts_used=tuple(range(n_max + 1)),
        residuals=curve,
        coefficients=coeffs,
        gram_condition=cond,
        truncation_degree=f.truncation_degree,
        target_norm=float(np.sqrt(g_norm2)),
        residual_final=res_final,
        detail={"accepted_directions": len(acc)},
    )


def _box_columns(box):
    """All multi-indices alpha with 0 <= alpha <= box componentwise."""
    ranges = [np.arange(b + 1) for b in box]
    grid = np.meshgrid(*ranges, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def _polydisc_lstsq(f: PolySeries, g: PolySeries, box):
    """Sparse least squares over the shift box.

    Rows are the (multi-index, component) pairs reached by an orbit column or
    by g, numbered in order of first occurrence: columns in box order, then
    f's terms, then g's terms.  Returns (residual, x, ncols, istop, itn) with
    LSMR's stop reason and iteration count.
    """
    cols = _box_columns(box)
    T = np.asarray(f.multi_exponents, dtype=np.int64)
    hit = np.all(T[None] >= cols[:, None], axis=2)  # (column, term)
    ci, ti, comp = np.nonzero(hit[:, :, None] & (f.coeffs != 0)[None])
    Tg = np.asarray(g.multi_exponents, dtype=np.int64).reshape(len(g), f.poly_dim)
    gi, gcomp = np.nonzero(g.coeffs != 0)
    # key rows rather than linear indices: exponent extents can overflow int64
    keys = np.concatenate([np.column_stack([T[ti] - cols[ci], comp]),
                           np.column_stack([Tg[gi], gcomp])])
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    row = rank[inverse.ravel()]
    nrows, ncols = len(first), cols.shape[0]
    A = scipy.sparse.coo_matrix(
        (f.coeffs[ti, comp], (row[: len(ci)], ci)), shape=(nrows, ncols)
    ).tocsr()
    b = np.zeros(nrows, dtype=complex)
    b[row[len(ci):]] = g.coeffs[gi, gcomp]
    x, istop, itn = scipy.sparse.linalg.lsmr(A, b, atol=1e-12, btol=1e-12,
                                             maxiter=8 * (ncols + nrows))[:3]
    resid = float(np.linalg.norm(A @ x - b))
    return resid, x, ncols, istop, itn


# fractions of the box at which the residual curve is reported
_CHAIN = (0.125, 0.25, 0.5, 0.75, 1.0)


def orbit_project_polydisc(f: PolySeries, g: PolySeries, box) -> OrbitReport:
    """Least squares of g against {S*^alpha f : alpha <= box componentwise}.

    The residual is reported along a nested chain of sub-boxes (the fractions
    ``_CHAIN`` of the full box), so the curve is nonincreasing by
    construction.  ``detail`` carries LSMR's ``istop`` and ``itn`` for the
    full-box solve.
    """
    if not f.terms:
        raise ValueError("cannot project onto the orbit of the zero series")
    if f.dim != g.dim or f.poly_dim != g.poly_dim:
        raise ValueError("dimension mismatch between series")
    box = tuple(int(b) for b in box)
    if any(b < 0 for b in box):
        raise ValueError("box bounds must be nonnegative")
    residuals = []
    boxes = []
    for frac in _CHAIN:
        sub = tuple(int(np.floor(b * frac)) for b in box)
        if boxes and sub == boxes[-1]:
            residuals.append(residuals[-1])
            boxes.append(sub)
            continue
        resid, x, ncols, istop, itn = _polydisc_lstsq(f, g, sub)
        # nested boxes: never allow a numerically larger value to break
        # the mathematical monotonicity (solver noise only)
        if residuals:
            resid = min(resid, residuals[-1])
        residuals.append(resid)
        boxes.append(sub)
    return OrbitReport(
        shifts_used=tuple(boxes),
        residuals=np.asarray(residuals),
        coefficients=x,
        gram_condition=float("nan"),
        truncation_degree=max(max(t) for t in f.multi_exponents),
        target_norm=g.norm(),
        residual_final=float(residuals[-1]),
        detail={"columns_at_full_box": ncols, "chain": _CHAIN,
                "lsmr_istop": int(istop), "lsmr_itn": int(itn)},
    )


def one_in_orbit_check(f: PolySeries, box, tol: Tolerances = Tolerances(),
                       threshold=None) -> bool:
    """Is the constant 1 within tolerance of the truncated orbit span?

    Scalar polydisc series only.  The constant is projected onto the orbit
    over the shift box, and its full-box residual is compared with
    ``threshold`` (default ``tol.tol_residual``).
    """
    if f.dim != 1:
        raise ValueError("one_in_orbit_check applies to scalar series only")
    thr = threshold if threshold is not None else tol.tol_residual
    n = f.poly_dim
    one = PolySeries(n, 1, [(tuple([0] * n), [1.0])])
    return orbit_project_polydisc(f, one, box).residual_final < thr


@dataclass(frozen=True)
class TailDiagnostics:
    lemma13_terms: np.ndarray  # ||a_k||^2 / sum_{l>k} ||a_l||^2
    lemma13_partial: np.ndarray
    lemma12_partial: dict  # probe index -> partial sums over k
    weak_pairings: dict  # probe index -> |<r_k, h>| values
    probes: tuple


def _default_probes(f: VectorSeries, seed: int = 0, count: int = 4):
    probes = [backward_shift(f, n) for n in range(1, count + 1)]
    rng = np.random.default_rng(seed)
    diffs = sorted(
        {int(b - a) for a in f.exponents for b in f.exponents if b > a}
    )[:64]
    if not diffs:
        diffs = [1]
    for _ in range(count):
        weights = 2.0 ** (-np.arange(len(diffs)) / 2.0)
        c = weights * (rng.standard_normal(len(diffs)) + 1j * rng.standard_normal(len(diffs)))
        coeffs = np.zeros((len(diffs), f.dim), dtype=complex)
        coeffs[:, rng.integers(f.dim)] = c
        probes.append(VectorSeries(f.dim, diffs, coeffs))
    return tuple(p for p in probes if not p.is_zero)


def tail_diagnostics(f: VectorSeries, probes=None, seed: int = 0) -> TailDiagnostics:
    """Convergence/divergence bookkeeping behind the weak-remainder argument.

    For each k the remainder r_k = sum_{l>k} (a_l / ||a_k||) z^{n_l - n_k}
    pairs against square-summable probes h through

        |<r_k, h>|^2 <= (sum_{l>k} ||a_l||^2 / ||a_k||^2)
                        (sum_{l>k} ||h^(n_l - n_k)||^2).

    The diagnostics emit the divergent single-sum partial sums, the
    convergent double-sum partial sums per probe, and the actual pairings.
    """
    if len(f) < 3:
        raise ValueError("need at least 3 terms for tail diagnostics")
    if probes is None:
        probes = _default_probes(f, seed)
    probes = tuple(probes)
    b = np.sum(np.abs(f.coeffs) ** 2, axis=1)
    tails = np.concatenate([np.cumsum(b[::-1])[::-1][1:], [0.0]])  # sum_{l>k}
    K = len(f) - 1  # last index has an empty tail
    terms13 = b[:K] / tails[:K]
    partial13 = np.cumsum(terms13)
    lemma12_partial = {}
    weak = {}
    for pi, h in enumerate(probes):
        s = np.zeros(K)
        w = np.zeros(K)
        for k in range(K):
            tot = 0.0
            pair = 0.0 + 0.0j
            for l in range(k + 1, len(f)):
                diff = int(f.exponents[l] - f.exponents[k])
                hc = h.coefficient(diff)
                tot += float(np.sum(np.abs(hc) ** 2))
                pair += np.vdot(hc, f.coeffs[l])
            s[k] = tot
            w[k] = abs(pair) / np.sqrt(b[k])
        lemma12_partial[pi] = np.cumsum(s)
        weak[pi] = w
    return TailDiagnostics(
        lemma13_terms=terms13,
        lemma13_partial=partial13,
        lemma12_partial=lemma12_partial,
        weak_pairings=weak,
        probes=probes,
    )
