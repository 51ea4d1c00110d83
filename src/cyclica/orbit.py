"""Least-squares projection of targets onto truncated backward-shift orbits.

The orbit of f under the backward shift spans the whole space exactly when f
is cyclic; numerically we certify this at truncation by projecting a target g
onto span{S*^alpha f : alpha within a shift budget} and reporting the
residual curve.  ``_orbit_system`` assembles the sparse orbit matrix and the
target vector in one vectorized pass; the disc is the one-variable case.

Disc orbits factor the column-scaled Gram matrix once, by incremental
Cholesky that skips a direction within sine ``tol_rank`` of the accepted
span.  The factor yields the exactly nonincreasing residual curve, a
condition estimate, and the endpoint coefficients, refined by LSMR on the
orbit matrix it preconditions.  Polydisc orbits over large shift boxes are
solved by LSMR on the orbit matrix; ``one_in_orbit_check`` thresholds the
residual of the constant 1 at the full box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import get_lapack_funcs, solve_triangular

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
    # disc: LAPACK trcon estimate, squared, of the condition number of the
    # column-scaled Gram matrix over the accepted directions; polydisc: nan
    gram_condition: float
    truncation_degree: int
    target_norm: float
    residual_final: float  # ||A x - b||: `coefficients` replayed on the orbit matrix
    detail: dict = field(default_factory=dict)


def _orbit_system(T, coeffs, Tg, gcoeffs, cols):
    """Sparse orbit matrix A = [S*^alpha f : alpha in cols] and target b.

    T (terms x poly_dim, int64) and ``coeffs`` (terms x dim) describe f, Tg
    and ``gcoeffs`` g.  Rows are the (multi-index, component) pairs reached
    by an orbit column or by g, numbered by first occurrence: columns in
    order, then f's terms, then g's terms.
    """
    hit = np.all(T[None] >= cols[:, None], axis=2)  # (column, term)
    ci, ti, comp = np.nonzero(hit[:, :, None] & (coeffs != 0)[None])
    gi, gcomp = np.nonzero(gcoeffs != 0)
    # key rows rather than linear indices: exponent extents can overflow int64
    keys = np.concatenate([np.column_stack([T[ti] - cols[ci], comp]),
                           np.column_stack([Tg[gi], gcomp])])
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    row = rank[inverse.ravel()]
    nrows = len(first)
    A = scipy.sparse.coo_matrix(
        (coeffs[ti, comp], (row[: len(ci)], ci)), shape=(nrows, cols.shape[0])
    ).tocsr()
    b = np.zeros(nrows, dtype=complex)
    b[row[len(ci):]] = gcoeffs[gi, gcomp]
    return A, b


def _cholesky_skipping(G, beta, cut):
    """Incremental Cholesky of a unit-diagonal Gram matrix.

    Direction n is accepted when its squared pivot, the squared sine to the
    span of the accepted directions, exceeds ``cut``; skipped directions
    change nothing.  Returns the lower factor L over the accepted directions,
    y = L^-1 beta there, and their indices.
    """
    L = np.zeros(G.shape, dtype=complex)
    y = np.zeros(G.shape[0], dtype=complex)
    acc = []
    for n in range(G.shape[0]):
        k = len(acc)
        w = solve_triangular(L[:k, :k], G[acc, n], lower=True, check_finite=False)
        d2 = float(G[n, n].real) - float(np.vdot(w, w).real)
        if d2 > cut:
            d = np.sqrt(d2)
            L[k, :k] = w.conj()
            L[k, k] = d
            y[k] = (beta[n] - np.vdot(w, y[:k])) / d
            acc.append(n)
    k = len(acc)
    return L[:k, :k], y[:k], np.asarray(acc, dtype=np.int64)


def _refine(C, b, L, y, acc):
    """Least squares of b on the unit columns of C by LSMR from L^H x = y.

    Right-preconditioned by L on the accepted columns, so ||C x - b|| is
    accurate to rounding, not to its square root as in the Gram system.
    Returns x, LSMR's istop and itn.
    """
    def right(v, trans="C"):  # P^-1 v, or P^-H v with trans="N"
        x = v.copy()
        x[acc] = solve_triangular(L, v[acc], lower=True, trans=trans,
                                  check_finite=False)
        return x

    CH = C.conj().T
    op = scipy.sparse.linalg.LinearOperator(
        C.shape, dtype=complex, matvec=lambda v: C @ right(v),
        rmatvec=lambda u: right(CH @ u, "N"))
    v0 = np.zeros(C.shape[1], dtype=complex)
    v0[acc] = y
    v, istop, itn = scipy.sparse.linalg.lsmr(
        op, b, atol=1e-14, btol=1e-14, maxiter=4 * C.shape[1], x0=v0)[:3]
    return right(v), istop, itn


def orbit_project(f: VectorSeries, g: VectorSeries, n_max: int,
                  tol: Tolerances = Tolerances()) -> OrbitReport:
    """Project g onto span{S*^n f : 0 <= n <= n_max}, exactly on truncations.

    One factorization of the column-scaled Gram matrix, skipping directions
    within sine ``tol_rank`` of the accepted span, gives the residual curve
    for budgets 0..n_max and the coefficients at n_max; the endpoint is
    their residual on the orbit matrix.  ``detail`` holds
    ``accepted_directions`` and the refining LSMR's ``lsmr_istop``, ``lsmr_itn``.
    """
    if f.is_zero:
        raise ValueError("cannot project onto the orbit of the zero series")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    A, b = _orbit_system(f.exponents[:, None], f.coeffs, g.exponents[:, None],
                         g.coeffs, np.arange(n_max + 1)[:, None])
    AH = A.conj().T
    G = (AH @ A).toarray()
    beta = AH @ b
    s = np.sqrt(G.diagonal().real)
    live = np.flatnonzero(s > 0)  # S*^n f = 0 once n exceeds the degree
    s = s[live]
    G = G[np.ix_(live, live)]
    G /= np.outer(s, s)
    L, y, acc = _cholesky_skipping(G, beta[live] / s, cut=tol.tol_rank**2)
    drop = np.zeros(n_max + 1)
    drop[live[acc]] = np.abs(y) ** 2
    g_norm2 = g.norm() ** 2
    curve = np.sqrt(np.maximum(g_norm2 - np.cumsum(drop), 0.0))
    x, istop, itn = _refine(A[:, live] @ scipy.sparse.diags(1.0 / s), b, L, y, acc)
    coeffs = np.zeros(n_max + 1, dtype=complex)
    coeffs[live] = x / s
    rcond = get_lapack_funcs("trcon", (L,))(L, norm="1", uplo="L")[0]
    return OrbitReport(
        shifts_used=tuple(range(n_max + 1)),
        residuals=curve,
        coefficients=coeffs,
        gram_condition=float(rcond ** -2) if rcond > 0 else float("inf"),
        truncation_degree=f.truncation_degree,
        target_norm=float(np.sqrt(g_norm2)),
        residual_final=float(np.linalg.norm(A @ coeffs - b)),
        detail={"accepted_directions": len(acc), "lsmr_istop": int(istop),
                "lsmr_itn": int(itn)},
    )


def _box_columns(box):
    """All multi-indices alpha with 0 <= alpha <= box componentwise."""
    ranges = [np.arange(b + 1) for b in box]
    grid = np.meshgrid(*ranges, indexing="ij")
    return np.stack([g.ravel() for g in grid], axis=1)


def _polydisc_lstsq(f: PolySeries, g: PolySeries, box):
    """Sparse least squares over the shift box, columns in box order.

    Returns (residual, x, ncols, info); ``info`` holds LSMR's stop reason,
    iteration count, residual-norm estimate and condition estimate of A.
    """
    cols = _box_columns(box)
    T = np.asarray(f.multi_exponents, dtype=np.int64)
    Tg = np.asarray(g.multi_exponents, dtype=np.int64).reshape(len(g), f.poly_dim)
    A, b = _orbit_system(T, f.coeffs, Tg, g.coeffs, cols)
    x, istop, itn, normr, _, _, conda = scipy.sparse.linalg.lsmr(
        A, b, atol=1e-12, btol=1e-12, maxiter=8 * sum(A.shape))[:7]
    resid = float(np.linalg.norm(A @ x - b))
    info = {"lsmr_istop": int(istop), "lsmr_itn": int(itn),
            "lsmr_normr": float(normr), "lsmr_conda": float(conda)}
    return resid, x, cols.shape[0], info


# fractions of the box at which the residual curve is reported
_CHAIN = (0.125, 0.25, 0.5, 0.75, 1.0)


def orbit_project_polydisc(f: PolySeries, g: PolySeries, box) -> OrbitReport:
    """Least squares of g against {S*^alpha f : alpha <= box componentwise}.

    The residual is reported along a nested chain of sub-boxes (the fractions
    ``_CHAIN`` of the full box), so the curve is nonincreasing by
    construction.  ``detail`` carries LSMR's stop reason, iteration count,
    residual estimate and condition estimate of the orbit matrix for the
    full-box solve (``lsmr_istop``, ``lsmr_itn``, ``lsmr_normr``,
    ``lsmr_conda``).
    """
    if not f.terms:
        raise ValueError("cannot project onto the orbit of the zero series")
    if f.dim != g.dim or f.poly_dim != g.poly_dim:
        raise ValueError("dimension mismatch between series")
    box = tuple(int(b) for b in box)
    if any(b < 0 for b in box):
        raise ValueError("box bounds must be nonnegative")
    boxes = tuple(tuple(int(np.floor(b * frac)) for b in box) for frac in _CHAIN)
    residuals = []
    for i, sub in enumerate(boxes):
        if i and sub == boxes[i - 1]:
            residuals.append(residuals[-1])
            continue
        resid, x, ncols, info = _polydisc_lstsq(f, g, sub)
        # nested boxes: solver noise must not break the monotonicity
        residuals.append(min([resid] + residuals[-1:]))
    return OrbitReport(
        shifts_used=boxes,
        residuals=np.asarray(residuals),
        coefficients=x,
        gram_condition=float("nan"),
        truncation_degree=max(max(t) for t in f.multi_exponents),
        target_norm=g.norm(),
        residual_final=float(residuals[-1]),
        detail={"columns_at_full_box": ncols, "chain": _CHAIN, **info},
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
