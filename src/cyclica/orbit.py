"""Least-squares projection of targets onto truncated backward-shift orbits.

The orbit of f under the backward shift spans the whole space exactly when f
is cyclic; numerically we certify this at truncation by projecting a target g
onto span{S*^alpha f : alpha within a shift box} and reporting the residual
along a chain of nested boxes.  One harness (``_project``) does it, and the
disc is its one-variable case: its chain is the boxes 0, 1, ..., budget, so
the curve has one point per shift, where the polydisc reports five sub-boxes.

Lacunary spectra have few exponent coincidences, so almost every row of the
orbit matrix is touched by one column only.  The exactly compressed system
keeps the rows that two columns or g share and folds the rows private to a
column into one diagonal entry per column, an exact change of row basis.
It splits into independent blocks, the connected components of the graph
that links each shared row to the columns touching it; a block without a
row of g has optimal coefficients 0 and adds nothing to any residual, so
only g's blocks are factored.

g's block columns are picked by one search over exponents from g's rows
(``_block_columns``), so the cost follows the block, which lacunarity keeps
tiny, and not the box, which on the polydisc grows as a product; it reaches
boxes of 1e11 columns and more.  On the disc the box is the shifts
0..budget, and g's block is about half of it.  One assembler
(``_assemble``) builds the compressed system straight from the exponents on
those columns.  The block is factored once, by a QR of the column-scaled
system with its columns in the order in which they enter (the first box of
the chain that holds alpha: shift n at budget n on the disc), deleting a
direction within sine ``tol_rank`` of the kept span; the one factor
yields the nonincreasing residual curve, the endpoint coefficients and a
condition estimate.  The QR follows the block's shape:
its diagonal rows already form a triangle, so LAPACK's triangular-pentagonal
tpqrt reduces only the shared rows onto it, about 2 n_r m^2 flops for n_r
shared rows and m columns where dense Householder QR spends about
2 m^2 (n_r + m) - 2 m^3 / 3; real f and g give a real block, factored in
real arithmetic.  On all but the smallest blocks two more exact steps of
the compression come first.  ``_merge_twins`` merges identical shared
rows into one: a C^d-valued orbit repeats its rows across the
components (in the merged pair (f, S*f), row (e, c) equals row
(e - 1, c + 1)), so a vector-valued orbit reaches the fold with the rows
of a scalar one.  Lacunarity then leaves about half of the rows touched by
two columns and not by g, and ``_fold_pairs`` folds them into the
triangle, one Givens rotation each, so n_r counts only the shared rows
left.
``one_in_orbit_check`` thresholds the residual of the constant 1 at the
full polydisc box.
``residual_final`` replays the coefficients on the uncompressed orbit
system, over the rows that the block's columns and g touch: the only rows
where the residual can be nonzero.  Its squares are summed exactly, so it
does not depend on the order of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, prod, sqrt

import numpy as np
from scipy.linalg import get_lapack_funcs

from .constructions import abakumov_weights
from .core import Tolerances, VectorSeries, _index, backward_shift
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
    # best approximation at the largest budget; on the polydisc in support
    # form, over the columns detail["support"] only
    coefficients: np.ndarray
    # LAPACK trcon estimate, squared, of the infinity-norm condition number
    # of R, the QR factor of the column-scaled orbit matrix over the accepted
    # directions of g's blocks (the 1-norm one of R^H, the Cholesky factor of
    # their Gram matrix), which estimates that Gram condition number
    gram_condition: float
    truncation_degree: int
    target_norm: float
    residual_final: float  # ||A x - b||: `coefficients` replayed on the orbit matrix
    detail: dict = field(default_factory=dict)


def _runs(keys):
    """The stable sort order of the rows of the integer array ``keys``, and
    in that order whether each row starts a run of equal rows: stable, so a
    row's first occurrence leads its run."""
    by_key = np.lexsort(keys.T)
    sk, run = keys[by_key], np.ones(len(keys), dtype=bool)
    run[1:] = (sk[1:] != sk[:-1]).any(axis=1)
    return by_key, run


def _entries(T, nz, alpha):
    """(column, term, component) of each entry of the orbit columns alpha,
    in that order, and its row (multi-index, component): entry (alpha, t, c)
    lies on row (T_t - alpha, c) when alpha <= T_t and a_{t,c} != 0."""
    beta = T[None] - alpha[:, None]
    i, t, c = ((beta >= 0).all(axis=2)[..., None] & nz[None]).nonzero()
    return i, t, c, np.concatenate([beta[i, t], c[:, None]], axis=1)


def _block_columns(T, coeffs, Tg, gcoeffs, box):
    """g's block columns of the orbit system over the box (multi-indices,
    C order), found by a search over exponents that never touches a column
    outside the block.

    The search runs level by level from g's nonzero rows (Tg_j, c): a row
    (r, c) is reached by the columns alpha = T_t - r with a_{t,c} != 0 and
    0 <= alpha <= box, and a column alpha reaches its entries' rows.  Each
    level is searched one component at a time, from the terms nonzero in
    it, so a C^d-valued f whose terms each have one nonzero component (as
    the merged pair (f, S*f)) proposes no more candidates than a scalar
    one; one unsigned comparison tests both ends of the box, a negative
    alpha wrapping above it.  Only columns are deduplicated, seen ones
    first by ``_runs``: a row reached again proposes only columns already
    seen.  The result is closed under row sharing: every column reaching
    one of its rows is in it.
    """
    # the broadcasts hold multi-indices by axis, (poly_dim, ...), so that
    # they run along the terms and the rows, not along the few axes.  No
    # column exceeds an exponent of f, so clipping the box below 2^63 is
    # exact, and a negative alpha, read unsigned, lies above it
    box = np.array([min(b, 2**63 - 1) for b in box], dtype=np.uint64)[:, None, None]
    nz, TT = coeffs != 0, T.T
    terms = [TT[:, on] for on in nz.T]  # per component, the T_t with a_{t,c} != 0
    rows = [Tg[on].T for on in (gcoeffs != 0).T]  # per component, the rows r
    alpha = np.zeros((0, len(TT)), dtype=np.int64)
    while True:
        found = [alpha]
        for Tc, r in zip(terms, rows):
            c = Tc[:, None] - r[:, :, None]
            ok = (c.view(np.uint64) <= box).all(axis=0)
            found.append(c.reshape(len(c), -1)[:, np.flatnonzero(ok)].T)
        cols = np.concatenate(found)
        by_key, run = _runs(cols)
        first = by_key[run]
        new = cols[first[first >= len(alpha)]]
        if not len(new):
            break
        alpha = np.concatenate([alpha, new])
        beta = TT[:, None] - new.T[:, :, None]
        i, t = (beta >= 0).all(axis=0).nonzero()
        beta, on = beta[:, i, t], nz[t]
        rows = [beta[:, on_c] for on_c in on.T]
    return alpha[np.lexsort(alpha.T[::-1])]


def _exact_norm(r):
    """||r|| from the exactly rounded sum of the squares of r's real and
    imaginary parts (each square rounded once), so it depends neither on
    the order of r nor on its zeros.

    Below 1024 squares fsum sums them directly.  From there on that costs
    several times more than summing per exponent: each square is
    mant 2^(e - 53) with mant an integer below 2^53, and per exponent e one
    bincount sums the mantissas' high halves (from bit 26) and one their
    low halves, exactly while fewer than 2^26 squares share an exponent;
    fsum then adds these sums, each exact as a float.  Squares that are
    subnormal, near overflow or not finite go to fsum directly too.
    """
    sq = np.square(r.view(np.float64))
    if 1024 <= len(sq) < 2**26:
        m, e = np.frexp(sq)
        low = e.min()
        if low > -1022 and sq.max() < 2.0**990:
            mant = np.ldexp(m, 53).astype(np.int64)
            scale = np.arange(e.max() - low + 1) + (low - 53)  # 2^(e - 53) per bin
            hi = np.ldexp(np.bincount(e - low, mant >> 26), scale + 26)
            lo = np.ldexp(np.bincount(e - low, mant & (2**26 - 1)), scale)
            sq = np.concatenate([hi, lo])
    return sqrt(fsum(sq.tolist()))


def _assemble(T, coeffs, Tg, gcoeffs, alpha):
    """Exact row compression of the orbit system A x ~ b on the columns
    alpha, without forming A.

    A = [S*^alpha f], one column per row of ``alpha`` (multi-indices), and
    b is g.  T (terms x poly_dim, int64) and ``coeffs`` (terms x dim)
    describe f, Tg and ``gcoeffs`` g.  The rows of A are the (multi-index,
    component) pairs reached by an entry (``_entries``) or by g, numbered
    by first occurrence: entries in order, then g's terms.  The columns
    must be closed under row sharing (all the columns of a box, or g's
    block columns from ``_block_columns``): then a row is shared exactly
    when two entries, or one and g, lie on it.  The rows private to one
    entry are folded into one diagonal entry per column, an exact change of
    row basis, so that for every x
    ||A x - b||^2 = ||C x - b_C||^2 + sum_j p2_j |x_j|^2.

    Returns (row, col, data) of C's entries, sorted by row and then column,
    with the shared rows numbered in A's order; p2 per column (summed in
    term order); b_C; and ``replay(x)``, the norm of A x - b over A's rows.
    data and b_C are real when every coefficient of f and g is.
    """
    if not (coeffs.imag.any() or gcoeffs.imag.any()):
        coeffs, gcoeffs = coeffs.real, gcoeffs.real  # real data, real block
    col, t, c, rows = _entries(T, coeffs != 0, alpha)
    gj, gc = (gcoeffs != 0).nonzero()
    ne, a, gval = len(col), coeffs[t, c], gcoeffs[gj, gc]
    keys = np.concatenate([rows, np.concatenate([Tg[gj], gc[:, None]], axis=1)])
    by_key, run = _runs(keys)
    first = by_key[run]
    opened = np.bincount(first, minlength=len(keys)).cumsum() - 1  # rows opened so far
    arow = np.empty(len(keys), dtype=np.int64)  # A's row of each key
    arow[by_key] = opened[first][run.cumsum() - 1]
    kept = np.bincount(arow[:ne], minlength=len(first)) > 1
    kept[arow[ne:]] = True
    number = kept.cumsum() - 1
    shared, row = kept[arow[:ne]], number[arow[:ne]]
    p2 = np.bincount(col[~shared], np.abs(a[~shared]) ** 2, minlength=len(alpha))
    order = row[shared].argsort(kind="stable")  # columns stay in order
    bc = np.zeros(np.count_nonzero(kept), dtype=gval.dtype)
    bc[number[arow[ne:]]] = gval

    def replay(x):
        # A x - b, each row's products summed in column order
        r = np.zeros(len(first), dtype=complex)
        np.add.at(r, arow[:ne], a * x[col])
        r[arow[ne:]] -= gval
        return _exact_norm(r)

    return (row[shared][order], col[shared][order], a[shared][order], p2, bc), replay


def _tpqrt(A, B):
    """QR of [A; B], A upper triangular and n x n, by LAPACK tpqrt, in place
    when both are Fortran-ordered; R overwrites A.  Below 128 columns one
    unblocked panel (tpqrt2), above it panels of 32: geqrf's own crossover
    (NX = 128)."""
    tpqrt = get_lapack_funcs("tpqrt", (A, B))
    n = A.shape[1]
    return tpqrt(0, n if n < 128 else 32, A, B, overwrite_a=True, overwrite_b=True)[0]


# columns from which _solve_levels merges twins and folds.  The fold's ~40
# numpy calls cost about 0.1 ms, as much as the whole solve of an
# orbit-polydisc block (at most 8 columns); folding every orbit-disc block
# (33 columns and more) ran faster end to end than folding only from 128
# columns on
_FOLD_COLUMNS = 32


def _fingerprints(row, pos, v, n):
    """One float per shared row, equal on identical rows: the sum of
    v (pos + phi) over the row's entries (re + im of a complex v), in entry
    order by one bincount, so identical rows sum the same terms in the same
    order.  Rows that differ may collide; ``_merge_twins`` checks."""
    x = v.real + v.imag if v.dtype.kind == "c" else v
    return np.bincount(row, x * (pos + 0.6180339887498949), minlength=n)


def _merge_twins(row, pos, v, bc):
    """Merge each group of k identical shared rows into one scaled by
    sqrt(k), exactly, before ``_fold_pairs``.

    Identical means the same entries (pos, v), in order, and the same b_C.
    For every x the k rows add k |r x - beta|^2 = |sqrt(k) r x - sqrt(k) beta|^2,
    so R moves only by rounding and unimodular row scaling: the fold of the
    private rows extended to rows that several columns share.  Twins are
    what lacunarity leaves in a C^d-valued orbit: in the merged pair
    (f, S*f), row (e, c) equals row (e - 1, c + 1), both holding f^(e + s)
    in every shift column s.  ``_runs`` groups the rows by (fingerprint,
    entry count, b_C), and each is checked entry by entry against the first
    row of its group, which it joins only if equal: a fingerprint collision
    can cost a merge but never make a wrong one.  When the fingerprints are all
    distinct, which is every block without twins, the rows pass through as
    they came.  The merged row keeps the place of the first.  Takes and
    returns the entries (row, pos, v), sorted by row, and b_C, the rows
    numbered from 0.
    """
    n = len(bc)
    fp = _fingerprints(row, pos, v, n)
    s = np.sort(fp)
    if not (s[1:] == s[:-1]).any():
        return row, pos, v, bc
    cnt = np.bincount(row, minlength=n)
    by_key, run = _runs(np.column_stack([bc, cnt, fp]))  # a group's first row leads it
    lead = np.empty(n, dtype=np.int64)
    lead[by_key] = by_key[run][run.cumsum() - 1]
    # each entry against the same entry of its row's leader (itself on a leader)
    start = cnt.cumsum() - cnt
    mate = np.arange(len(row)) + (start[lead] - start)[row]
    twin = lead != np.arange(n)
    twin[row[(pos != pos[mate]) | (v != v[mate])]] = False
    scale = np.sqrt(np.bincount(lead[twin], minlength=n) + 1.0)
    keep = ~twin
    on = keep[row]
    return ((keep.cumsum() - 1)[row[on]], pos[on], (v * scale[row])[on],
            (bc * scale)[keep])


def _fold_pairs(A, row, pos, v, bc):
    """Fold shared rows into the diagonal triangle A by Givens rotations,
    exactly, before tpqrt reduces the rest.

    A = [D 0; 0 0] with D diagonal; the shared rows are given by their
    entries (row, pos, v), sorted by row, pos the column's position in A.
    A row is folded when it has two entries, a at i and b at j > i, no
    entry of g, and row i of A is still diagonal: the first such row of
    each i, unless i is also the j of another such first row.  For every x,
    |d_i x_i|^2 + |a x_i + b x_j|^2 = |rho x_i + (conj(a) b / rho) x_j|^2
    + |(d_i b / rho) x_j|^2 with rho = hypot(d_i, |a|), so row i becomes
    (rho, conj(a) b / rho) and the last term joins row j's diagonal, which
    stays diagonal.  Only one row per left column i folds, so twins, which
    share their columns, are merged first (``_merge_twins``); what is left
    of the two-entry rows then chains, each left column another row's right
    one, as on the scalar dyadic orbit.  Returns the entries and b_C of the
    rows left, in order and numbered from 0.
    """
    m = len(A) - 1
    d = A.diagonal()[:m].real
    two = (np.bincount(row, minlength=len(bc)) == 2) & (bc == 0)
    k = np.flatnonzero(two[row])[::2]  # the first entry of each such row
    swap = pos[k] > pos[k + 1]
    lo, hi = k + swap, k + 1 - swap
    i, j, a = pos[lo], pos[hi], v[lo]
    rho = np.hypot(d[i], np.abs(a))
    ok = np.flatnonzero(rho > 0)  # a is 0 only where it underflowed
    ok = ok[np.unique(i[ok], return_index=True)[1]]  # first row of each i
    right = np.zeros(m, dtype=bool)
    right[j[ok]] = True
    ok = ok[~right[i[ok]]]
    i, j, a, b, rho = i[ok], j[ok], a[ok], v[hi[ok]], rho[ok]
    t2 = np.bincount(j, np.abs(d[i] * b / rho) ** 2, minlength=m)
    # d views A's diagonal: every right-hand side is read before A is written
    A[i, i], A[i, j], A[j, j] = rho, a.conj() * b / rho, np.sqrt(d[j] ** 2 + t2[j])
    left = np.ones(len(bc), dtype=bool)
    left[row[k[ok]]] = False
    on = left[row]
    return (left.cumsum() - 1)[row[on]], pos[on], v[on], bc[left]


def _qr_skipping(A, B, cut):
    """QR of [A; B] = [unit columns | b], A upper triangular, deleting each
    column within sine ``cut`` of the span of the columns kept before it.

    With unit columns, |R_kk| is that sine.  Deleting column k leaves an
    upper Hessenberg block behind it whose rows below the first already
    form a triangle, so tpqrt reduces that one row onto them, O(n^2) flops
    for an n-column block (Golub and Van Loan, Matrix Computations, 4th
    ed., 6.5).  Returns R, square and upper triangular over the kept
    columns and b (the last kept column), and the kept column indices.
    """
    R = _tpqrt(A, B)
    keep = np.arange(A.shape[1] - 1)
    k = 0
    while True:
        small = np.flatnonzero(np.abs(R.diagonal()[k:len(keep)]) <= cut)
        if not small.size:
            return R, keep
        k += small[0]
        keep = np.delete(keep, k)
        H = np.asfortranarray(R[k:, k + 1:])  # upper Hessenberg: rows k on, columns past k
        R = np.delete(R[:-1], k, axis=1)
        R[k:, k:] = _tpqrt(H[1:], H[:1])


def _solve_levels(row, col, data, p2, bc, level, levels, cut):
    """Least squares of b_C against [C; diag(sqrt p2)] on an already built
    block of the compressed system, C given by its entries (row, col, data),
    sorted by row, the columns entering by ``level`` (one per column,
    0 <= level < levels).

    One QR of the column-scaled system, with the columns sorted by level,
    deletes every direction within sine ``cut`` of the kept span.  It
    factors [A; B] by tpqrt: A = [D 0; 0 0], D = diag(sqrt(p2) / s), is
    already upper triangular, and B = [C/s | b] holds only the shared rows,
    so only those are reduced.  From ``_FOLD_COLUMNS`` columns on,
    ``_merge_twins`` first merges identical shared rows (the twins of a
    C^d-valued orbit, row (e, c) = row (e - 1, c + 1) in the merged pair),
    then ``_fold_pairs`` folds into A the rows with two entries and none of
    g that it can, and B holds the rest.  Both are exact for every x, and
    blocks under ``_FOLD_COLUMNS`` columns take neither.  ``block`` still
    counts the compressed system's shared rows.  The arithmetic is real
    when C and b_C are.
    The residual over the columns up to level L is
    sqrt(|R_mm|^2 + sum of |c_j|^2 over the kept columns above L),
    nonincreasing in L by construction.  Returns the ``OrbitReport`` fields
    of the solve: these residuals, the coefficients of the block's columns
    by back substitution (LAPACK trtrs, called on R's leading block as
    scipy's solve_triangular calls it, so with the same bits but without its
    argument checks), the LAPACK trcon estimate, squared, of the
    infinity-norm condition number of R (the 1-norm one of the Cholesky
    factor R^H of the scaled Gram matrix) and ``detail``: ``block``, the
    block size (rows, diagonal rows included; columns), and
    ``accepted_directions``, the kept columns.
    """
    s = np.sqrt(p2 + np.bincount(col, np.abs(data) ** 2, minlength=len(p2)))
    cols = np.flatnonzero(s > 0)  # a zero column has nothing to add
    cols = cols[level[cols].argsort(kind="stable")]
    nr, m = len(bc), len(cols)
    at = np.full(len(p2), -1)
    at[cols] = np.arange(m)
    e = at[col] >= 0
    # A = [D 0; 0 0], the diagonal rows, whose zero last row keeps R's row
    # m; B = [C/s | b], the shared rows (one zero row when there are none)
    dtype = np.result_type(data, bc)
    A = np.zeros((m + 1, m + 1), dtype=dtype, order="F")
    A[np.arange(m), np.arange(m)] = np.sqrt(p2[cols]) / s[cols]
    row, pos, v = row[e], at[col[e]], data[e] / s[col[e]]
    if m >= _FOLD_COLUMNS:
        row, pos, v, bc = _fold_pairs(A, *_merge_twins(row, pos, v, bc))
    B = np.zeros((max(len(bc), 1), m + 1), dtype=dtype, order="F")
    B[row, pos] = v
    B[:len(bc), m] = bc
    R, acc = _qr_skipping(A, B, cut)
    k, acc = len(acc), cols[acc]
    c = R[:k, k]
    drop = np.bincount(level[acc], np.abs(c) ** 2, minlength=levels)
    tail = np.append(drop[:0:-1].cumsum()[::-1], 0.0)  # sum over levels above
    trtrs, trcon = get_lapack_funcs(("trtrs", "trcon"), (R,))
    x = np.zeros(len(p2), dtype=complex)
    if k:  # trtrs rejects an empty system
        # R[:k, :k] is not Fortran-contiguous (a 1 x 1 block gives the same
        # bits either way): solve its transpose R^T, lower triangular, transposed
        x[acc] = trtrs(R[:k, :k].T, c, lower=1, trans=1)[0] / s[acc]
    rcond = trcon(R[:k, :k], norm="I", uplo="U")[0]
    return dict(residuals=np.sqrt(np.abs(R[k, k]) ** 2 + tail), coefficients=x,
                gram_condition=float(rcond ** -2) if rcond > 0 else float("inf"),
                detail={"block": (nr + m, m), "accepted_directions": k})


def _bounds(bounds, n, message):
    """``bounds`` as ``n`` Python ints, each read by ``core._index`` with the
    floor 0 (numpy integers too, never a bool, a float or a negative
    value); anything else raises ValueError(message)."""
    try:
        ints = tuple(_index(b, "bounds", 0) for b in bounds)
        if len(ints) == n:
            return ints
    except (TypeError, ValueError):
        pass
    raise ValueError(message)


def _project(T, coeffs, Tg, gcoeffs, edges, tol):
    """Least squares of g against the orbit of f over a chain of boxes.

    T (terms x poly_dim, int64) and ``coeffs`` (terms x dim) describe f, Tg
    and ``gcoeffs`` g.  ``edges`` holds one box per level, one column per
    axis, nested and ending at the full box, as int64 or as Python ints
    (object dtype), which may pass 2^63.  g's block columns at the full box
    are searched (``_block_columns``), assembled (``_assemble``) and solved
    with each column entering at the first box that holds it
    (``_solve_levels``), then replayed.  Returns the block columns alpha
    (int64, m x poly_dim, C order) and the ``OrbitReport`` fields of the fit
    but ``shifts_used`` and ``truncation_degree``, ``coefficients`` one per
    block column.
    """
    if not len(T):
        raise ValueError("cannot project onto the orbit of the zero series")
    if T.shape[1] != Tg.shape[1] or coeffs.shape[1] != gcoeffs.shape[1]:
        raise ValueError("dimension mismatch between series")
    alpha = _block_columns(T, coeffs, Tg, gcoeffs, edges[-1])
    block, replay = _assemble(T, coeffs, Tg, gcoeffs, alpha)
    # the first box holding alpha: the largest first index over the axes
    level = 0
    for e, a in zip(edges.T, alpha.T):
        level = np.maximum(level, e.searchsorted(a))
    fit = _solve_levels(*block, level, len(edges), tol.tol_rank)
    # replay takes the coefficients by block column; the norm is g.norm()'s
    fit.update(residual_final=replay(fit["coefficients"]),
               target_norm=float(np.sqrt(np.sum(np.abs(gcoeffs) ** 2))))
    return alpha, fit


def orbit_project(f: VectorSeries, g: VectorSeries, n_max: int,
                  tol: Tolerances = Tolerances()) -> OrbitReport:
    """Project g onto span{S*^n f : 0 <= n <= n_max}, exactly on truncations.

    The one-variable polydisc solve (``_project``) on the chain of boxes
    0, 1, ..., n_max, so that shift n enters at budget n: one QR gives the
    residual curve for budgets 0..n_max, the coefficients at n_max and the
    condition estimate.  ``n_max`` is a nonnegative integer (numpy integers
    too, not a bool or a float), else ValueError.  ``coefficients`` has one
    entry per shift, 0 outside g's block; ``residual_final`` replays them on
    the rows that the block or g touches, the only rows where A x - b can be
    nonzero.  ``detail`` holds ``accepted_directions`` (in g's block) and
    ``block``, its size (rows, columns).
    """
    (n_max,) = _bounds((n_max,), 1, f"n_max must be a nonnegative integer, got {n_max!r}")
    alpha, fit = _project(f.exponents[:, None], f.coeffs, g.exponents[:, None],
                          g.coeffs, np.arange(n_max + 1)[:, None], tol)
    x = np.zeros(n_max + 1, dtype=complex)
    x[alpha[:, 0]] = fit["coefficients"]
    fit["coefficients"] = x
    return OrbitReport(shifts_used=tuple(range(n_max + 1)),
                       truncation_degree=f.truncation_degree, **fit)


# fractions of the box at which the residual curve is reported
_CHAIN = (0.125, 0.25, 0.5, 0.75, 1.0)


def orbit_project_polydisc(f: PolySeries, g: PolySeries, box,
                           tol: Tolerances = Tolerances()) -> OrbitReport:
    """Least squares of g against {S*^alpha f : alpha <= box componentwise}.

    The same solve as on the disc (``_project``), on a chain of five nested
    sub-boxes (the fractions ``_CHAIN`` of the full box) at which the
    residual is reported, each column entering at the first sub-box that
    holds its shift.  Only g's block of the compressed orbit system at the
    full box is assembled, so the cost follows the block and not the box.
    ``box`` holds one nonnegative integer per variable (numpy integers too,
    not bools or floats), else ValueError.

    ``coefficients`` is in support form: the coefficients of g's block
    columns, whose multi-indices are the rows of ``detail["support"]``
    (int64, m x poly_dim, C order); every other coefficient is 0.
    ``residual_final`` replays them on every row that the block or g
    touches, the only rows where A x - b can be nonzero.  ``detail`` also
    holds ``block``, ``accepted_directions``, ``columns_at_full_box`` (the
    box's column count, a Python int) and ``chain``.  The search runs in
    int64, so a multi-exponent of f or g at or above 2^63 raises ValueError.
    """
    box = _bounds(box, f.poly_dim,
                  f"box needs {f.poly_dim} nonnegative bounds (integers), got {box!r}")
    # exact integer edges: a float product rounds boxes above 2^53
    boxes = tuple(tuple(b * n // d for b in box)
                  for n, d in (frac.as_integer_ratio() for frac in _CHAIN))
    try:
        T = np.asarray(f.multi_exponents, dtype=np.int64)
        Tg = np.asarray(g.multi_exponents, dtype=np.int64).reshape(len(g), g.poly_dim)
    except OverflowError:
        raise ValueError("multi-exponents of f and g must be below 2^63") from None
    alpha, fit = _project(T, f.coeffs, Tg, g.coeffs, np.array(boxes, dtype=object), tol)
    fit["detail"].update(support=alpha, columns_at_full_box=prod(b + 1 for b in box),
                         chain=_CHAIN)
    return OrbitReport(shifts_used=boxes, truncation_degree=int(T.max()), **fit)


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


def _default_probes(f: VectorSeries):
    """S*^n f for n = 1..4 and four seeded random probes on f's differences."""
    probes = [backward_shift(f, n) for n in range(1, 5)]
    rng = np.random.default_rng(0)
    diffs = sorted(
        {int(b - a) for a in f.exponents for b in f.exponents if b > a}
    )[:64]
    if not diffs:
        diffs = [1]
    for _ in range(4):
        weights = 2.0 ** (-np.arange(len(diffs)) / 2.0)
        c = weights * (rng.standard_normal(len(diffs)) + 1j * rng.standard_normal(len(diffs)))
        coeffs = np.zeros((len(diffs), f.dim), dtype=complex)
        coeffs[:, rng.integers(f.dim)] = c
        probes.append(VectorSeries(f.dim, diffs, coeffs))
    return tuple(p for p in probes if not p.is_zero)


def tail_diagnostics(f: VectorSeries, probes=None) -> TailDiagnostics:
    """Convergence/divergence bookkeeping behind the weak-remainder argument.

    For each k the remainder r_k = sum_{l>k} (a_l / ||a_k||) z^{n_l - n_k}
    pairs against square-summable probes h through

        |<r_k, h>|^2 <= (sum_{l>k} ||a_l||^2 / ||a_k||^2)
                        (sum_{l>k} ||h^(n_l - n_k)||^2).

    The diagnostics emit the divergent single-sum partial sums, the
    convergent double-sum partial sums per probe, and the actual pairings.
    The single-sum terms are ``constructions.abakumov_weights``, which
    raises ValueError when a tail's squared norm underflows to zero.
    """
    if len(f) < 3:
        raise ValueError("need at least 3 terms for tail diagnostics")
    if probes is None:
        probes = _default_probes(f)
    probes = tuple(probes)
    b = np.sum(np.abs(f.coeffs) ** 2, axis=1)
    K = len(f) - 1  # last index has an empty tail
    terms13 = abakumov_weights(f)
    partial13 = np.cumsum(terms13)
    # pair (k, l) for l > k reads h at n_l - n_k; other pairs read nothing
    diff = f.exponents[None, :] - f.exponents[:K, None]
    later = np.arange(len(f)) > np.arange(K)[:, None]
    lemma12_partial = {}
    weak = {}
    for pi, h in enumerate(probes):
        at = np.searchsorted(h.exponents, diff)
        hit = later & (at < len(h))
        hit[hit] = h.exponents[at[hit]] == diff[hit]
        hc = np.zeros(diff.shape + (f.dim,), dtype=complex)
        hc[hit] = h.coeffs[at[hit]]
        # running sums over l, in order, as a loop over l would add them
        s = np.cumsum(np.sum(np.abs(hc) ** 2, axis=2), axis=1)[:, -1]
        pair = np.cumsum(np.vecdot(hc, f.coeffs[None]), axis=1)[:, -1]
        lemma12_partial[pi] = np.cumsum(s)
        # libm's hypot, as abs() of a complex scalar: np.abs can differ by an ulp
        weak[pi] = np.hypot(pair.real, pair.imag) / np.sqrt(b[:K])
    return TailDiagnostics(
        lemma13_terms=terms13,
        lemma13_partial=partial13,
        lemma12_partial=lemma12_partial,
        weak_pairings=weak,
        probes=probes,
    )
