"""Least-squares projection of targets onto truncated backward-shift orbits.

The orbit of f under the backward shift spans the whole space exactly when f
is cyclic; numerically we certify this at truncation by projecting a target g
onto span{S*^alpha f : alpha within a shift budget} and reporting the
residual curve; the disc is the one-variable case.

Lacunary spectra have few exponent coincidences, so almost every row of the
orbit matrix is touched by one column only.  ``_compressed_system``, shared
by disc and polydisc, builds the exactly compressed system straight from
the exponent differences, without forming the orbit matrix: the rows that
two columns or g share, found by one difference array over the shift box,
and one diagonal entry per column for the rows private to it, an exact
change of row basis.  Disc orbits factor the compressed, column-scaled
system once by Householder QR, deleting a direction within sine
``tol_rank`` of the kept span; the one factor yields the nonincreasing
residual curve, the endpoint coefficients and a condition estimate.
Polydisc orbits compress the full shift box once and solve each nested
sub-box by LSMR on its subset of the compressed columns;
``one_in_orbit_check`` thresholds the residual of the constant 1 at the
full box.  ``residual_final`` always replays the coefficients on every row
of the uncompressed orbit system.
"""

from __future__ import annotations

import itertools
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
    # disc: LAPACK trcon estimate, squared, of the infinity-norm condition
    # number of R, the QR factor of the column-scaled orbit matrix over the
    # accepted directions (the 1-norm one of R^H, the Cholesky factor of its
    # Gram matrix), which estimates the Gram condition number; polydisc: nan
    gram_condition: float
    truncation_degree: int
    target_norm: float
    residual_final: float  # ||A x - b||: `coefficients` replayed on the orbit matrix
    detail: dict = field(default_factory=dict)


def _compressed_system(T, coeffs, Tg, gcoeffs, box):
    """Exact row compression of the orbit system A x ~ b, without forming A.

    A = [S*^alpha f : 0 <= alpha <= box], its columns the multi-indices
    alpha in C order, and b is g.  T (terms x poly_dim, int64) and
    ``coeffs`` (terms x dim) describe f, Tg and ``gcoeffs`` g.  The rows of
    A are the (multi-index, component) pairs reached by a column or by g,
    numbered by first occurrence: columns in order, then f's terms, then g's
    terms.  Entry (alpha, t, c) lies on row (T_t - alpha, c); term s with
    a nonzero component c reaches that row exactly when alpha lies in the
    rectangle max(0, T_t - T_s) <= alpha <= min(box, T_t, box - T_s + T_t),
    and g's term j when alpha = T_t - Tg_j.  One difference array over
    box x (term, component) counts every rectangle at once; the rows with
    no other visitor, private to one column, are folded into one diagonal
    entry per column, so that for every x
    ||A x - b||^2 = ||C x - b_C||^2 + sum_j p2_j |x_j|^2.

    Returns the shared rows C (COO, rows in order, columns sorted within a
    row), the squared private norms p2 per column (summed in row order),
    b_C and ``replay(x)``, the norm of A x - b over every row of A.
    """
    box = np.asarray(box, dtype=np.int64)
    (K, d), dim = T.shape, coeffs.shape[1]
    shape = tuple(box + 1) + (K, dim)
    nz = coeffs != 0
    t, s, c = np.nonzero(nz[:, None] & nz[None] & ~np.eye(K, dtype=bool)[..., None])
    D = T[t] - T[s]
    lo, hi = np.maximum(D, 0), np.minimum(T[t], box + np.minimum(D, 0))
    ok = np.all(lo <= hi, axis=1)
    t, c, lo, hi = t[ok], c[ok], lo[ok], hi[ok]
    visits = np.zeros(shape, dtype=np.int32)  # other terms and g on the row
    for corner in itertools.product((0, 1), repeat=d):
        at = np.where(corner, hi + 1, lo)
        inside = np.all(at <= box, axis=1)
        np.add.at(visits, (*at[inside].T, t[inside], c[inside]),
                  (-1) ** sum(corner))
    for axis in range(d):
        np.cumsum(visits, axis=axis, out=visits)
    gnz = gcoeffs != 0
    t, j, c = np.nonzero(nz[:, None] & gnz[None])
    at = T[t] - Tg[j]
    inside = np.all((at >= 0) & (at <= box), axis=1)
    np.add.at(visits, (*at[inside].T, t[inside], c[inside]), 1)

    entry = nz
    for axis in range(d):  # alpha <= T_t
        grid = np.arange(box[axis] + 1).reshape((-1,) + (1,) * (d - axis + 1))
        entry = entry & (grid <= T[:, axis, None])
    ent = np.flatnonzero(entry)  # (column, term, component) order
    shared = visits[entry] > 0
    col, tc = np.divmod(ent, K * dim)
    a = coeffs.ravel()
    pcol, pa = col[~shared], a[tc[~shared]]
    scol, stc = col[shared], tc[shared]
    ncols = int(np.prod(box + 1))
    p2 = np.bincount(pcol, np.abs(pa) ** 2, minlength=ncols)

    gi, gc = np.nonzero(gnz)
    alpha = np.column_stack(np.unravel_index(scol, tuple(box + 1)))
    # key rows rather than linear indices: exponent extents can overflow int64
    keys = np.concatenate([np.column_stack([T[stc // dim] - alpha, stc % dim]),
                           np.column_stack([Tg[gi], gc])])
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    row = np.searchsorted(np.sort(first), first)[inverse.ravel()]
    ns = len(scol)
    order = np.lexsort((scol, row[:ns]))
    C = scipy.sparse.coo_matrix((a[stc[order]], (row[order], scol[order])),
                                shape=(len(first), ncols))
    bc = np.zeros(len(first), dtype=complex)
    bc[row[ns:]] = gcoeffs[gi, gc]

    # rows of A in order: a private entry opens one, a key its first visit
    key = np.concatenate([shared, np.ones(len(gi), dtype=bool)])
    opens = ~key
    opens[np.flatnonzero(key)[first]] = True
    kept = key[opens]
    P = scipy.sparse.csr_matrix((pa, pcol, np.arange(len(pa) + 1)),
                                shape=(len(pa), ncols))
    Cr = C.tocsr()

    def replay(x):
        # the same sparse row products as A @ x - b, in A's row order
        r = np.zeros(len(kept), dtype=complex)
        r[~kept] = P @ x
        r[kept] = Cr @ x - bc
        return float(np.linalg.norm(r))

    return C, p2, bc, replay


def _geqrf(M):
    """Householder QR of M by LAPACK geqrf with its optimal blocked
    workspace, in place when M is Fortran-ordered; R is the upper triangle
    of the result."""
    geqrf, lwork = get_lapack_funcs(("geqrf", "geqrf_lwork"), (M,))
    return geqrf(M, lwork=int(lwork(*M.shape)[0].real), overwrite_a=True)[0]


def _qr_skipping(M, cut):
    """QR of M = [unit columns | b], deleting each column within sine ``cut``
    of the span of the columns kept before it.

    With unit columns, |R_kk| is that sine.  A deleted column leaves an
    upper Hessenberg block behind it, which is factored again.  Returns R
    (upper triangle; the last kept column is b) and the kept column indices.
    """
    R = _geqrf(M)
    keep = np.arange(M.shape[1] - 1)
    k = 0
    while True:
        small = np.flatnonzero(np.abs(R.diagonal()[k:len(keep)]) <= cut)
        if not small.size:
            return R, keep
        k += small[0]
        keep = np.delete(keep, k)
        R = np.delete(R[: len(keep) + 2], k, axis=1)
        R[k:, k:] = _geqrf(np.triu(R[k:, k:], -1))


def orbit_project(f: VectorSeries, g: VectorSeries, n_max: int,
                  tol: Tolerances = Tolerances()) -> OrbitReport:
    """Project g onto span{S*^n f : 0 <= n <= n_max}, exactly on truncations.

    The rows of the orbit matrix that only one column touches are folded
    into one diagonal entry per column, which changes neither the Gram
    matrix nor any residual.  One Householder QR of the compressed,
    column-scaled system [C/s | b], deleting directions within sine
    ``tol_rank`` of the kept span, gives the residual curve for budgets
    0..n_max as tail sums of |Q^H b|^2, the coefficients at n_max by back
    substitution, and the condition estimate; ``residual_final`` replays
    the coefficients on the orbit matrix.  ``detail`` holds
    ``accepted_directions``.
    """
    if f.is_zero:
        raise ValueError("cannot project onto the orbit of the zero series")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    C, p2, bc, replay = _compressed_system(
        f.exponents[:, None], f.coeffs, g.exponents[:, None], g.coeffs, (n_max,))
    s = np.sqrt(p2 + np.bincount(C.col, np.abs(C.data) ** 2, minlength=n_max + 1))
    live = np.flatnonzero(s > 0)  # S*^n f = 0 once n exceeds the degree
    m = len(live)
    # one spare zero row: R keeps its row m when g = 0 and no row is shared
    M = np.zeros((C.shape[0] + m + 1, m + 1), dtype=complex, order="F")
    M[C.row, np.searchsorted(live, C.col)] = C.data / s[C.col]
    M[C.shape[0] + np.arange(m), np.arange(m)] = np.sqrt(p2[live]) / s[live]
    M[: C.shape[0], m] = bc
    R, acc = _qr_skipping(M, tol.tol_rank)
    m, acc = len(acc), live[acc]
    c = R[:m, m]
    drop = np.zeros(n_max + 1)
    drop[acc] = np.abs(c) ** 2
    tail = np.append(np.cumsum(drop[:0:-1])[::-1], 0.0)  # sum over n > budget
    coeffs = np.zeros(n_max + 1, dtype=complex)
    coeffs[acc] = solve_triangular(R[:m, :m], c, check_finite=False) / s[acc]
    rcond = get_lapack_funcs("trcon", (R,))(R[:m, :m], norm="I", uplo="U")[0]
    return OrbitReport(
        shifts_used=tuple(range(n_max + 1)),
        residuals=np.sqrt(np.abs(R[m, m]) ** 2 + tail),
        coefficients=coeffs,
        gram_condition=float(rcond ** -2) if rcond > 0 else float("inf"),
        truncation_degree=f.truncation_degree,
        target_norm=g.norm(),
        residual_final=replay(coeffs),
        detail={"accepted_directions": m},
    )


# fractions of the box at which the residual curve is reported
_CHAIN = (0.125, 0.25, 0.5, 0.75, 1.0)


def orbit_project_polydisc(f: PolySeries, g: PolySeries, box) -> OrbitReport:
    """Least squares of g against {S*^alpha f : alpha <= box componentwise}.

    The residual is reported along a nested chain of sub-boxes (the fractions
    ``_CHAIN`` of the full box), clamped to be nonincreasing.  The orbit
    system is assembled and compressed once, at the full box.  A column that
    touches no shared row touches only rows private to it, in every sub-box,
    so its optimal coefficient is 0; the others are stacked over the
    diagonal of their private norms, and each sub-box is solved by LSMR on
    its subset of these columns, its residual computed on that subset.
    ``residual_final`` replays ``coefficients`` on the uncompressed
    full-box matrix.  ``detail`` carries LSMR's stop reason, iteration
    count, residual estimate and condition estimate of the compressed
    matrix over the shared columns for the full-box solve (``lsmr_istop``,
    ``lsmr_itn``, ``lsmr_normr``, ``lsmr_conda``).
    """
    if not f.terms:
        raise ValueError("cannot project onto the orbit of the zero series")
    if f.dim != g.dim or f.poly_dim != g.poly_dim:
        raise ValueError("dimension mismatch between series")
    box = tuple(int(b) for b in box)
    if len(box) != f.poly_dim or any(b < 0 for b in box):
        raise ValueError(f"box needs {f.poly_dim} nonnegative bounds, got {box}")
    boxes = tuple(tuple(int(np.floor(b * frac)) for b in box) for frac in _CHAIN)
    T = np.asarray(f.multi_exponents, dtype=np.int64)
    Tg = np.asarray(g.multi_exponents, dtype=np.int64).reshape(len(g), f.poly_dim)
    C, p2, bc, replay = _compressed_system(T, f.coeffs, Tg, g.coeffs, box)
    live = np.unique(C.col)  # any other column's optimal coefficient is 0
    alphas = np.column_stack(np.unravel_index(live, [b + 1 for b in box]))
    K = scipy.sparse.vstack([C.tocsc()[:, live],
                             scipy.sparse.diags(np.sqrt(p2[live]))], format="csc")
    rhs = np.concatenate([bc, np.zeros(len(live))])
    residuals = []
    for sub in boxes:
        Ks = K[:, np.all(alphas <= sub, axis=1)]
        x, istop, itn, normr, _, _, conda = scipy.sparse.linalg.lsmr(
            Ks, rhs, atol=1e-12, btol=1e-12, maxiter=8 * sum(Ks.shape))[:7]
        # nested boxes: solver noise must not break the monotonicity
        residuals.append(min([float(np.linalg.norm(Ks @ x - rhs))] + residuals[-1:]))
    coeffs = np.zeros(C.shape[1], dtype=complex)
    coeffs[live] = x
    return OrbitReport(
        shifts_used=boxes,
        residuals=np.asarray(residuals),
        coefficients=coeffs,
        gram_condition=float("nan"),
        truncation_degree=max(max(t) for t in f.multi_exponents),
        target_norm=g.norm(),
        residual_final=replay(coeffs),
        detail={"columns_at_full_box": C.shape[1], "chain": _CHAIN,
                "lsmr_istop": int(istop), "lsmr_itn": int(itn),
                "lsmr_normr": float(normr), "lsmr_conda": float(conda)},
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
