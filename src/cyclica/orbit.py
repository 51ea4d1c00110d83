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
change of row basis.  The compressed system splits into independent blocks,
the connected components of the graph that links each shared row to the
columns touching it; a block without a row of g has optimal coefficients 0
and adds nothing to any residual.  Both harnesses therefore factor only g's
blocks, once, by Householder QR of the column-scaled system with its columns
in the order in which they enter (shift n at budget n on the disc, the first
sub-box of the chain that holds alpha on the polydisc), deleting a
direction within sine ``tol_rank`` of the kept span; the one factor yields
the nonincreasing residual curve, the endpoint coefficients and a condition
estimate.  ``one_in_orbit_check`` thresholds the residual of the constant 1
at the full polydisc box.  ``residual_final`` always replays the
coefficients on every row of the uncompressed orbit system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg import get_lapack_funcs, solve_triangular
from scipy.sparse.csgraph import connected_components

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
    # LAPACK trcon estimate, squared, of the infinity-norm condition number
    # of R, the QR factor of the column-scaled orbit matrix over the accepted
    # directions of g's blocks (the 1-norm one of R^H, the Cholesky factor of
    # their Gram matrix), which estimates that Gram condition number
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


def _target_blocks(C, bc):
    """Row and column masks of the blocks of the compressed system that
    hold g.

    The shared rows and the columns of C are the two node sets of a
    bipartite graph with one edge per entry; its connected components split
    [C; diag(sqrt p2)] x ~ b_C into independent least-squares problems, each
    diagonal row in its column's block.  A block on which b_C vanishes has
    optimal coefficients 0 and residual 0, so only the components holding
    a nonzero of b_C are kept; a row of g that no column reaches is a block
    of its own.
    """
    nr, nc = C.shape
    edges = scipy.sparse.coo_matrix((np.ones(C.nnz), (C.row, nr + C.col)),
                                    shape=(nr + nc, nr + nc))
    count, label = connected_components(edges, directed=False)
    held = np.zeros(count, dtype=bool)
    held[label[np.flatnonzero(bc)]] = True
    return held[label[:nr]], held[label[nr:]]


def _solve_levels(C, p2, bc, replay, level, levels, cut):
    """Least squares of b_C against [C; diag(sqrt p2)] on g's blocks, the
    columns entering by ``level`` (one per column, 0 <= level < levels).

    One Householder QR of the block's column-scaled [C/s | b], built from
    C's COO arrays with the columns sorted by level, deletes every
    direction within sine ``cut`` of the kept span.  The residual over the
    columns up to level L is sqrt(|R_mm|^2 + sum of |c_j|^2 over the kept
    columns above L), nonincreasing in L by construction.  Returns the
    ``OrbitReport`` fields of the solve: these residuals, the coefficients
    over all columns by back substitution, their replay by ``replay``, the
    LAPACK trcon estimate, squared, of the infinity-norm condition number of
    R (the 1-norm one of the Cholesky factor R^H of the scaled Gram matrix)
    and ``detail``: ``block``, the block size (rows, diagonal rows
    included; columns), and ``accepted_directions``, the kept columns.
    """
    rows, cols = _target_blocks(C, bc)
    s = np.sqrt(p2 + np.bincount(C.col, np.abs(C.data) ** 2, minlength=C.shape[1]))
    cols = np.flatnonzero(cols & (s > 0))  # a zero column has nothing to add
    cols = cols[np.argsort(level[cols], kind="stable")]
    nr, m = int(rows.sum()), len(cols)
    at = np.full(C.shape[1], -1)
    at[cols] = np.arange(m)
    e = at[C.col] >= 0  # entries in the block, on its rows by construction
    # one spare zero row: R keeps its row m when the block has no row
    M = np.zeros((nr + m + 1, m + 1), dtype=complex, order="F")
    M[(np.cumsum(rows) - 1)[C.row[e]], at[C.col[e]]] = C.data[e] / s[C.col[e]]
    M[nr + np.arange(m), np.arange(m)] = np.sqrt(p2[cols]) / s[cols]
    M[:nr, m] = bc[rows]
    R, acc = _qr_skipping(M, cut)
    k, acc = len(acc), cols[acc]
    c = R[:k, k]
    drop = np.bincount(level[acc], np.abs(c) ** 2, minlength=levels)
    tail = np.append(np.cumsum(drop[:0:-1])[::-1], 0.0)  # sum over levels above
    x = np.zeros(C.shape[1], dtype=complex)
    x[acc] = solve_triangular(R[:k, :k], c, check_finite=False) / s[acc]
    rcond = get_lapack_funcs("trcon", (R,))(R[:k, :k], norm="I", uplo="U")[0]
    return dict(residuals=np.sqrt(np.abs(R[k, k]) ** 2 + tail), coefficients=x,
                residual_final=replay(x),
                gram_condition=float(rcond ** -2) if rcond > 0 else float("inf"),
                detail={"block": (nr + m, m), "accepted_directions": k})


def orbit_project(f: VectorSeries, g: VectorSeries, n_max: int,
                  tol: Tolerances = Tolerances()) -> OrbitReport:
    """Project g onto span{S*^n f : 0 <= n <= n_max}, exactly on truncations.

    The compressed orbit system is solved on g's blocks only, each shift n
    entering at budget n: one Householder QR gives the residual curve for
    budgets 0..n_max, the coefficients at n_max and the condition estimate,
    all over g's blocks; ``residual_final`` replays the coefficients on the
    orbit matrix.  ``detail`` holds ``accepted_directions`` (in g's blocks)
    and ``block``, their size (rows, columns).
    """
    if f.is_zero:
        raise ValueError("cannot project onto the orbit of the zero series")
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    system = _compressed_system(
        f.exponents[:, None], f.coeffs, g.exponents[:, None], g.coeffs, (n_max,))
    return OrbitReport(
        shifts_used=tuple(range(n_max + 1)),
        truncation_degree=f.truncation_degree,
        target_norm=g.norm(),
        **_solve_levels(*system, np.arange(n_max + 1), n_max + 1, tol.tol_rank),
    )


# fractions of the box at which the residual curve is reported
_CHAIN = (0.125, 0.25, 0.5, 0.75, 1.0)


def orbit_project_polydisc(f: PolySeries, g: PolySeries, box,
                           tol: Tolerances = Tolerances()) -> OrbitReport:
    """Least squares of g against {S*^alpha f : alpha <= box componentwise}.

    The residual is reported along a nested chain of sub-boxes (the fractions
    ``_CHAIN`` of the full box).  The orbit system is compressed once, at
    the full box, and solved on g's blocks only, each column entering at the
    first sub-box that holds its shift: one Householder QR gives the whole
    chain, the full-box coefficients and the condition estimate, as on the
    disc.  ``residual_final`` replays ``coefficients`` on the uncompressed
    full-box matrix.  ``detail`` holds ``block``, ``accepted_directions``,
    ``columns_at_full_box`` and ``chain``.
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
    system = _compressed_system(T, f.coeffs, Tg, g.coeffs, box)
    # the first sub-box holding alpha: the largest first index over the axes
    level = np.zeros((), dtype=np.int64)
    for edges, b in zip(zip(*boxes), box):
        level = np.maximum.outer(level, np.searchsorted(edges, np.arange(b + 1)))
    fit = _solve_levels(*system, level.ravel(), len(boxes), tol.tol_rank)
    fit["detail"].update(columns_at_full_box=level.size, chain=_CHAIN)
    return OrbitReport(
        shifts_used=boxes,
        truncation_degree=max(max(t) for t in f.multi_exponents),
        target_norm=g.norm(),
        **fit,
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
    one = PolySeries(f.poly_dim, 1, [((0,) * f.poly_dim, [1.0])])
    return orbit_project_polydisc(f, one, box, tol).residual_final < thr


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
