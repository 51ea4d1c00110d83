import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs, solve_triangular
from scipy.sparse.csgraph import connected_components

from cyclica import (
    PolySeries,
    VectorSeries,
    backward_shift,
    one_in_orbit_check,
    orbit_project,
    orbit_project_polydisc,
    poly_backward_shift,
    scalar_series,
    tail_diagnostics,
)
from cyclica import orbit
from cyclica.core import Tolerances
from cyclica.orbit import (
    _CHAIN,
    _assemble,
    _block_columns,
    _qr_skipping,
    _solve_levels,
    _tpqrt,
)

from conftest import dyadic_scalar, edge_coeffs


def _dense_orbit_matrix(f, n_max, dim_cols):
    """Independent oracle: materialize S*^n f as dense coefficient columns."""
    cols = np.zeros((dim_cols * f.dim, n_max + 1), dtype=complex)
    for e, a in zip(f.exponents, f.coeffs):
        for n in range(n_max + 1):
            j = int(e) - n
            if 0 <= j < dim_cols:
                cols[j * f.dim : (j + 1) * f.dim, n] = a
    return cols


def _dense_target(g, dim_cols):
    b = np.zeros(dim_cols * g.dim, dtype=complex)
    for e, a in zip(g.exponents, g.coeffs):
        if int(e) < dim_cols:
            b[int(e) * g.dim : (int(e) + 1) * g.dim] = a
    return b


# -- orbit operator against the dense oracle ----------------------------------


def _box_columns(box):
    """Every multi-index of the box, C order."""
    shape = tuple(np.add(box, 1))
    return np.column_stack(np.unravel_index(np.arange(np.prod(shape)), shape))


def _as_coo(system):
    """An `_assemble` result as (C in COO form, p2, b_C, replay)."""
    (row, col, data, p2, bc), replay = system
    C = scipy.sparse.coo_matrix((data, (row, col)), shape=(len(bc), len(p2)))
    return C, p2, bc, replay


def _target_blocks(row, col, data, p2, bc):
    """Reference for g's blocks of a compressed system, by connected
    components, and the indices of their columns.

    The shared rows and the columns are the two node sets of a bipartite
    graph with one edge per entry (row, col, data) of C; its connected
    components split [C; diag(sqrt p2)] x ~ b_C into independent
    least-squares problems, each diagonal row in its column's block.  Only
    the components holding a nonzero of b_C are kept; a row of g that no
    column reaches is a block of its own.  Returns the block, its entries
    (rows and columns renumbered in order, entries in C's order), p2 and
    b_C restricted to it, and the indices of the kept columns.
    """
    nr, nc = len(bc), len(p2)
    edges = scipy.sparse.coo_matrix((np.ones(len(row)), (row, nr + col)),
                                    shape=(nr + nc, nr + nc))
    count, label = connected_components(edges, directed=False)
    held = np.zeros(count, dtype=bool)
    held[label[np.flatnonzero(bc)]] = True
    rows, cols = held[label[:nr]], held[label[nr:]]
    e = cols[col]  # entries in the blocks, on their rows by construction
    return ((np.cumsum(rows) - 1)[row[e]], (np.cumsum(cols) - 1)[col[e]],
            data[e], p2[cols], bc[rows]), np.flatnonzero(cols)


def _disc_system(f, g, n_max):
    """The compressed disc orbit system over every shift 0..n_max."""
    return _as_coo(_assemble(f.exponents[:, None], f.coeffs, g.exponents[:, None],
                             g.coeffs, _box_columns((n_max,))))


def _gram_beta(f, g, n_max):
    """Gram matrix A^H A = C^H C + diag(p2) and A^H b = C^H b_C of the disc
    orbit system, from its compression."""
    C, p2, bc, _ = _disc_system(f, g, n_max)
    return (C.conj().T @ C).toarray() + np.diag(p2), C.conj().T @ bc


def _zero(dim):
    return VectorSeries(dim, [], np.zeros((0, dim)))


def test_gram_matches_dense_oracle(rng):
    f = VectorSeries(
        2, [1, 3, 6, 10, 17],
        rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)),
    )
    n_max = 8
    cols = _dense_orbit_matrix(f, n_max, 20)
    G = _gram_beta(f, _zero(2), n_max)[0]
    assert np.allclose(G, cols.conj().T @ cols, atol=1e-12)


def test_beta_matches_dense_oracle(rng):
    f = scalar_series([1, 3, 6], [1.0, 2.0, 3.0])
    g = scalar_series([0, 2, 5], [1.0, 1j, 2.0])
    beta = _gram_beta(f, g, 6)[1]
    cols = _dense_orbit_matrix(f, 6, 10)
    b = _dense_target(g, 10)
    assert np.allclose(beta, cols.conj().T @ b, atol=1e-12)


def test_gram_positive_semidefinite(rng):
    f = VectorSeries(
        3, [2, 5, 9, 16],
        rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)),
    )
    w = np.linalg.eigvalsh(_gram_beta(f, _zero(3), 12)[0])
    assert w.min() >= -1e-10


# -- residual curve -----------------------------------------------------------


def test_residual_curve_nonincreasing():
    f = dyadic_scalar()
    g = scalar_series([0], [1.0])
    rep = orbit_project(f, g, 64)
    assert np.all(np.diff(rep.residuals) <= 1e-12)
    assert rep.residuals.shape == (65,)


def test_endpoint_matches_dense_least_squares():
    f = dyadic_scalar(K=8)
    g = scalar_series([0], [1.0])
    n_max = 40
    rep = orbit_project(f, g, n_max)
    cols = _dense_orbit_matrix(f, n_max, 2**8 + 1)
    b = _dense_target(g, 2**8 + 1)
    x, *_ = np.linalg.lstsq(cols, b, rcond=None)
    oracle = np.linalg.norm(cols @ x - b)
    assert rep.residual_final == pytest.approx(oracle, abs=1e-9)
    assert rep.residuals[-1] == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("n", range(9))
def test_projection_of_orbit_member_is_exact(n):
    f = dyadic_scalar(K=6)
    g = backward_shift(f, n)
    rep = orbit_project(f, g, 8)
    assert rep.residual_final < 1e-10


def _lacunary_draw(draw):
    """f with lacunary exponents (ratio at least 1.25) up to 1024,
    coefficients base^-k times random unit vectors in C^d, and a target on
    low monomials."""
    base = draw(st.sampled_from([2, 4, 16]))
    d = draw(st.sampled_from([1, 2]))
    ratio = draw(st.sampled_from([1.25, 1.5, 2.0]))
    K = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exps = [int(rng.integers(0, 7))]
    while len(exps) < K:
        nxt = max(exps[-1] + 1, int(np.ceil(ratio * exps[-1]))) + int(rng.integers(0, 3))
        if nxt > 1024:
            break
        exps.append(nxt)
    c = rng.standard_normal((len(exps), d)) + 1j * rng.standard_normal((len(exps), d))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    f = VectorSeries(d, exps, c * (float(base) ** -np.arange(len(exps)))[:, None])
    gexps = sorted(set(rng.integers(0, 9, size=int(rng.integers(1, 4))).tolist()))
    g = VectorSeries(d, gexps, rng.standard_normal((len(gexps), d))
                     + 1j * rng.standard_normal((len(gexps), d)))
    return f, g


def _scaled_qr(M, b):
    """Householder QR of the nonzero columns of M scaled to unit norm:
    returns their indices, Q^H b and the least-squares residual."""
    norms = np.linalg.norm(M, axis=0)
    live = np.flatnonzero(norms > 0)
    Q = np.linalg.qr(M[:, live] / norms[live])[0]
    c = Q.conj().T @ b
    return live, c, np.linalg.norm(b - Q @ c)


@given(data=st.data(), budget=st.integers(1, 96))
@settings(max_examples=80, deadline=None)
def test_disc_projection_matches_dense_qr(data, budget):
    # oracle: Householder QR of the explicit, column-scaled orbit matrix;
    # the budget may run past the degree, where S*^n f = 0
    f, g = _lacunary_draw(data.draw)
    rows = int(f.exponents[-1]) + 9
    M = _dense_orbit_matrix(f, budget, rows)
    b = _dense_target(g, rows)
    live, c, o = _scaled_qr(M, b)
    gn = g.norm()
    eps = np.finfo(float).eps
    rep = orbit_project(f, g, budget)
    for n in {0, budget // 4, budget // 2, budget}:
        m = np.searchsorted(live, n, side="right")
        o2 = gn**2 - np.sum(np.abs(c[:m]) ** 2)
        assert abs(rep.residuals[n] ** 2 - o2) <= 1e-8 * gn**2, (
            n, rep.residuals[n], o2)
    assert o - 1e-12 * gn <= rep.residual_final <= o + 1e-6 * gn, (rep.residual_final, o)
    # the replay agrees up to the rounding of evaluating M x - b
    x = rep.coefficients
    replay = np.linalg.norm(M @ x - b)
    slack = 1e-12 * gn + 8 * eps * np.linalg.norm(np.abs(M) @ np.abs(x))
    assert abs(replay - rep.residual_final) <= slack, (replay, rep.residual_final)


def test_base16_orbit_keeps_every_direction():
    # column-scaled, the base-16 dyadic orbit is well conditioned (every
    # sine above 0.06); a cutoff relative to the largest unscaled diagonal
    # used to drop 86 of its 257 directions
    f = dyadic_scalar(K=10, ratio=1 / 16)
    g = scalar_series([0], [1.0])
    rep = orbit_project(f, g, 256)
    o = _scaled_qr(_dense_orbit_matrix(f, 256, 2**10 + 1),
                   _dense_target(g, 2**10 + 1))[2]
    # f's exponents are even, so only the even shifts reach g's row 0
    assert rep.detail["accepted_directions"] == sum(n % 2 == 0 for n in range(257))
    assert abs(rep.residuals[-1] - o) <= 1e-8, (rep.residuals[-1], o)
    assert abs(rep.residual_final - o) <= 1e-12, (rep.residual_final, o)


def test_qr_skipping_deletes_interior_directions(rng):
    # orthonormal u_j; column 2 has sine 1e-10 to the span of columns 0-1
    # and column 4 repeats column 3, so both go; column 5 has sine 1e-8 and
    # stays.  The factor must equal, up to unimodular row factors, the QR
    # of the kept columns and b by the same tpqrt, M entering as B below a
    # zero triangle A.  Column 5's row of R is known only to about
    # eps / 1e-8 by any backward-stable QR (the stacked geqrf on M's rows
    # permuted differs from numpy's QR by 1e-8 there), so the oracle shares
    # the reduction of columns 0 and 1 with the factor under test.
    U = np.linalg.qr(rng.standard_normal((12, 8))
                     + 1j * rng.standard_normal((12, 8)))[0]
    cols = [U[:, 0], U[:, 1], (U[:, 0] + 1e-10 * U[:, 2]) / np.hypot(1, 1e-10),
            U[:, 3], U[:, 3], (U[:, 1] + 1e-8 * U[:, 4]) / np.hypot(1, 1e-8),
            U[:, 5], U[:, 6]]
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    M = np.column_stack(cols + [b])
    R, keep = _qr_skipping(np.zeros((9, 9), dtype=complex, order="F"),
                           np.asfortranarray(M), 1e-9)
    assert keep.tolist() == [0, 1, 3, 5, 6, 7]
    kept = np.asfortranarray(M[:, keep.tolist() + [8]])
    oracle = get_lapack_funcs("tpqrt", (kept,))(
        0, 7, np.zeros((7, 7), dtype=complex, order="F"), kept)[0]
    assert np.allclose(np.abs(np.triu(R[:7, :7])), np.abs(oracle), atol=1e-12)


def _geqrf(M):
    """Householder QR of M by LAPACK geqrf with its optimal blocked
    workspace, in place when M is Fortran-ordered; R is the upper triangle
    of the result."""
    geqrf, lwork = get_lapack_funcs(("geqrf", "geqrf_lwork"), (M,))
    return geqrf(M, lwork=int(lwork(*M.shape)[0].real), overwrite_a=True)[0]


def _skipping(R, keep, cut):
    """The deletions of ``_qr_skipping`` on a factor R of the kept columns,
    each upper Hessenberg block behind a deleted column factored again by
    geqrf; R's upper triangle is the result."""
    k = 0
    while True:
        small = np.flatnonzero(np.abs(R.diagonal()[k:len(keep)]) <= cut)
        if not small.size:
            return R, keep
        k += small[0]
        keep = np.delete(keep, k)
        R = np.delete(R[: len(keep) + 2], k, axis=1)
        R[k:, k:] = _geqrf(np.triu(R[k:, k:], -1))


def _stacked_qr_skipping(A, B, cut):
    """Reference for ``_qr_skipping``: geqrf of the stacked M = [B; A], the
    shared rows over the diagonal rows and their zero last row, with the
    same deletions, each refactored by geqrf."""
    R = _geqrf(np.asfortranarray(np.vstack([B, A])))
    return _skipping(R, np.arange(A.shape[1] - 1), cut)


def _geqrf_qr_skipping(A, B, cut):
    """Reference for ``_qr_skipping``'s deletions: the same tpqrt of
    [A; B], then a geqrf of each Hessenberg block behind a deleted column."""
    return _skipping(_tpqrt(A, B), np.arange(A.shape[1] - 1), cut)


def _solve_both(monkeypatch, reference, block, level, levels):
    """`_solve_levels` on a block through the QR ``reference`` and through
    `_qr_skipping`: their factors (R, kept columns) and fits, in that order."""
    factors, fits = [], []
    for qr in (reference, _qr_skipping):
        def record(A, B, cut, qr=qr):
            factors.append(qr(A, B, cut))
            return factors[-1]
        with monkeypatch.context() as m:
            m.setattr(orbit, "_qr_skipping", record)
            fits.append(_solve_levels(*block, level, levels, Tolerances().tol_rank))
    return factors, fits


def _assert_matches_stacked_qr(monkeypatch, block, level, levels, curve_tol=1e-13,
                               sines=True):
    """`_solve_levels` on a block against the same solve through the stacked
    geqrf: the same kept columns and detail, the residual curve to
    ``curve_tol`` ||b|| and, if ``sines``, |R_kk| to 1e-13.  Returns the
    fit."""
    ((R0, keep0), (R1, keep1)), (fit0, fit1) = _solve_both(
        monkeypatch, _stacked_qr_skipping, block, level, levels)
    assert np.array_equal(keep0, keep1)
    assert fit0["detail"] == fit1["detail"]
    if sines:
        n = len(keep1) + 1
        diag = np.abs(np.abs(R0.diagonal()[:n]) - np.abs(R1.diagonal()[:n]))
        assert diag.max() <= 1e-13, diag.max()
    curve = np.abs(fit0["residuals"] - fit1["residuals"])
    assert curve.max() <= curve_tol * np.linalg.norm(block[4]), curve.max()
    return fit1


def _disc_block(f, g, n):
    """g's block of the disc orbit system at budget n and its columns."""
    T, Tg = f.exponents[:, None], g.exponents[:, None]
    alpha = _block_columns(T, f.coeffs, Tg, g.coeffs, (n,))
    return _assemble(T, f.coeffs, Tg, g.coeffs, alpha)[0], alpha[:, 0]


# (series, base, budget) of the orbit-disc benchmark's cycle
ORBIT_DISC_CYCLE = [
    ("dyadic", 2, 64), ("dyadic", 4, 96), ("dyadic", 16, 128), ("pair", 2, 128),
    ("dyadic", 2, 160), ("pair", 4, 192), ("dyadic", 4, 256), ("dyadic", 16, 256),
    ("pair", 16, 64), ("dyadic", 16, 192), ("pair", 2, 256), ("dyadic", 2, 128),
    ("dyadic", 4, 1024), ("pair", 16, 512), ("pair", 4, 96)]


@pytest.mark.parametrize("case", ORBIT_DISC_CYCLE, ids=lambda c: "-".join(map(str, c)))
def test_block_qr_matches_stacked_geqrf_on_disc_cycle(monkeypatch, case):
    f, g, n = _disc_series_case(*case)
    block, cols = _disc_block(f, g, n)
    _assert_matches_stacked_qr(monkeypatch, block, cols, n + 1)


@pytest.mark.parametrize("budget", [48, 96])
def test_block_qr_matches_stacked_geqrf_with_deletions(monkeypatch, budget):
    # scaled Gram condition about 1e20: two backward-stable QRs part by more
    # than 1e-13 here.  At budget 48 the stacked geqrf's |R_66| is 1.5e-13
    # off a 60-digit Gram-Schmidt, tpqrt's 1e-17; at 96 sines below 1e-8
    # differ by up to 2.6e-10 and the curve by 4.3e-13.  So the same kept
    # columns, and the curve to the 40-digit oracle's 1e-12 ||g||.
    f, g = _ill_conditioned_orbit()
    block, cols = _disc_block(f, g, budget)
    fit = _assert_matches_stacked_qr(monkeypatch, block, cols, budget + 1, curve_tol=1e-12,
                                     sines=False)
    if budget == 96:
        assert fit["detail"]["accepted_directions"] < len(cols), fit["detail"]


def test_block_qr_matches_stacked_geqrf_without_shared_rows(monkeypatch):
    # S*^n (2 z^3) over every shift and g = 0: every row is private to one
    # column, so B has no row but its zero pad, and A is R already
    f, g = scalar_series([3], [2.0]), _zero(1)
    (row, col, data, p2, bc), _ = _assemble(f.exponents[:, None], f.coeffs, g.exponents[:, None],
                                            g.coeffs, _box_columns((5,)))
    assert len(bc) == 0 and len(row) == 0 and np.count_nonzero(p2) == 4
    fit = _assert_matches_stacked_qr(monkeypatch, (row, col, data, p2, bc),
                                     np.arange(6), 6)
    assert fit["detail"] == {"block": (4, 4), "accepted_directions": 4}
    assert not fit["residuals"].any() and not fit["coefficients"].any()


@pytest.mark.parametrize("ncols", [127, 128, 129])
def test_block_qr_matches_stacked_geqrf_at_the_panel_crossover(monkeypatch, ncols):
    # [C/s | b] with ncols columns: tpqrt takes one unblocked panel below
    # 128 columns and panels of 32 from 128 on
    rng = np.random.default_rng(ncols)
    m = ncols - 1
    pairs = np.sort([rng.choice(m, size=2, replace=False) for _ in range(m // 2)], axis=1)
    row, col = np.repeat(np.arange(m // 2), 2), pairs.ravel()
    data = rng.standard_normal(len(row)) + 1j * rng.standard_normal(len(row))
    bc = np.zeros(m // 2, dtype=complex)
    bc[:5] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    block = (row, col, data, rng.uniform(0.01, 1.0, size=m), bc)
    fit = _assert_matches_stacked_qr(monkeypatch, block, np.arange(m), m)
    assert fit["detail"] == {"block": (m // 2 + m, m), "accepted_directions": m}


def _real_draw(seed):
    """`_one_variable_draw` with the real parts of f's and g's coefficients."""
    f, g, n = _one_variable_draw(seed)
    return (VectorSeries(f.dim, f.exponents, f.coeffs.real),
            VectorSeries(g.dim, g.exponents, g.coeffs.real), n)


@pytest.mark.parametrize("seed", range(20))
def test_real_block_matches_complex_solve(seed):
    # real f and g give a real block, factored in real arithmetic; cast to
    # complex, the same block goes through the complex factorization
    f, g, n = _real_draw(seed)
    (row, col, data, p2, bc), cols = _disc_block(f, g, n)
    assert data.dtype == bc.dtype == np.float64
    real = _solve_levels(row, col, data, p2, bc, cols, n + 1, Tolerances().tol_rank)
    cplx = _solve_levels(row, col, data.astype(complex), p2, bc.astype(complex), cols,
                         n + 1, Tolerances().tol_rank)
    gn = g.norm()
    assert real["detail"] == cplx["detail"]
    assert np.max(np.abs(real["residuals"] - cplx["residuals"]), initial=0) <= 1e-13 * gn
    assert np.max(np.abs(real["coefficients"] - cplx["coefficients"]),
                  initial=0) <= 1e-13 * gn
    rep = orbit_project(f, g, n)
    assert rep.coefficients.dtype == complex
    assert rep.residuals.tobytes() == real["residuals"].tobytes()


def _assert_back_substitution_is_solve_triangular(monkeypatch, block, level, levels):
    """`_solve_levels`' coefficients against scipy's solve_triangular on the
    factor that the solve makes, bit for bit.  Returns R and the kept
    columns."""
    factors = []

    def record(A, B, cut):
        factors.append(_qr_skipping(A, B, cut))
        return factors[-1]

    monkeypatch.setattr(orbit, "_qr_skipping", record)
    fit = _solve_levels(*block, level, levels, Tolerances().tol_rank)
    (R, keep), = factors
    row, col, data, p2, bc = block
    s = np.sqrt(p2 + np.bincount(col, np.abs(data) ** 2, minlength=len(p2)))
    cols = np.flatnonzero(s > 0)
    acc = cols[np.argsort(level[cols], kind="stable")][keep]
    k = len(keep)
    ref = np.zeros(len(p2), dtype=complex)
    ref[acc] = solve_triangular(R[:k, :k], R[:k, k]) / s[acc]
    assert fit["coefficients"].tobytes() == ref.tobytes()
    return R, keep


@pytest.mark.parametrize("case", ORBIT_DISC_CYCLE, ids=lambda c: "-".join(map(str, c)))
def test_back_substitution_is_solve_triangular_on_disc_cycle(monkeypatch, case):
    f, g, n = _disc_series_case(*case)
    block, cols = _disc_block(f, g, n)
    R, keep = _assert_back_substitution_is_solve_triangular(monkeypatch, block, cols, n + 1)
    assert R.flags.f_contiguous and not R[: len(keep), : len(keep)].flags.f_contiguous


@pytest.mark.parametrize("budget", [48, 96])
def test_back_substitution_is_solve_triangular_with_deletions(monkeypatch, budget):
    # at 96 a deletion rebuilds R by np.delete in C order, so R[:k, :k] is
    # contiguous in neither order; at 48 every column is kept, R as tpqrt left it
    f, g = _ill_conditioned_orbit()
    block, cols = _disc_block(f, g, budget)
    R, keep = _assert_back_substitution_is_solve_triangular(monkeypatch, block, cols,
                                                            budget + 1)
    if budget == 96:
        assert len(keep) < len(cols) and R.flags.c_contiguous
    else:
        assert len(keep) == len(cols) and R.flags.f_contiguous


def test_back_substitution_is_solve_triangular_on_one_column(monkeypatch):
    # S*^0 (2 z^3) against z^3: one column, and R[:1, :1] is Fortran-contiguous
    f, g = scalar_series([3], [2.0]), scalar_series([3], [1.0 - 3.0j])
    block, cols = _disc_block(f, g, 0)
    R, keep = _assert_back_substitution_is_solve_triangular(monkeypatch, block, cols, 1)
    assert len(keep) == 1 and R[:1, :1].flags.f_contiguous


def test_gram_condition_is_the_cholesky_estimate():
    # the same trcon estimate as on the Cholesky factor L = R^H of the
    # column-scaled Gram matrix over g's block, in the 1-norm; f's exponents
    # are even, so g = 1 is reached by the even shifts only
    f = dyadic_scalar(K=8, ratio=1 / 4)
    g = scalar_series([0], [1.0])
    M = _dense_orbit_matrix(f, 64, 2**8 + 1)
    M = M[:, [n for n in range(65) if n % 2 == 0]]
    M /= np.linalg.norm(M, axis=0)
    L = np.linalg.cholesky(M.conj().T @ M)
    rcond = get_lapack_funcs("trcon", (L,))(L, norm="1", uplo="L")[0]
    rep = orbit_project(f, g, 64)
    assert rep.gram_condition == pytest.approx(rcond**-2, rel=1e-6)


def _ill_conditioned_orbit(terms=18):
    """16^-k at exponents growing by 1.25 (degree 94 with 18 terms), and the
    target z^3: the scaled Gram condition is about 1e20, and at budget 96
    z^3 lies in the orbit span (80-digit arithmetic gives residual 0)."""
    exps = [0]
    while len(exps) < terms:
        exps.append(max(exps[-1] + 1, int(np.ceil(1.25 * exps[-1]))))
    f = scalar_series(exps, [16.0**-k for k in range(len(exps))])
    return f, scalar_series([3], [1.0])


@pytest.mark.parametrize("terms, budget, deletions", [(18, 96, 9), (22, 512, 22),
                                                      (26, 1024, 53)])
def test_deletion_refactor_matches_geqrf(monkeypatch, terms, budget, deletions):
    # tpqrt of the first row of each Hessenberg block onto the triangle below
    # it against a geqrf of the whole block: the same kept columns, the same
    # coefficient bits, |R_kk| and the curve to 1e-15 ||g||, and an R with
    # nothing below its diagonal (geqrf leaves its reflectors there)
    f, g = _ill_conditioned_orbit(terms)
    block, cols = _disc_block(f, g, budget)
    ((R0, keep0), (R1, keep1)), (fit0, fit1) = _solve_both(
        monkeypatch, _geqrf_qr_skipping, block, cols, budget + 1)
    assert len(cols) - len(keep1) == deletions
    assert np.array_equal(keep0, keep1)
    assert fit0["coefficients"].tobytes() == fit1["coefficients"].tobytes()
    n, gn = len(keep1) + 1, g.norm()
    assert np.abs(np.abs(R0.diagonal()[:n]) - np.abs(R1.diagonal()[:n])).max() <= 1e-15 * gn
    assert np.abs(fit0["residuals"] - fit1["residuals"]).max() <= 1e-15 * gn
    assert R1.shape == (n, n) and not np.tril(R1, -1).any()
    # the rows behind a deletion are tiny here, so R row by row, up to a
    # unimodular factor, to 1e-13 of the row's largest entry
    A0, A1 = np.abs(np.triu(R0[:n, :n])), np.abs(R1)
    assert (np.abs(A0 - A1) <= 1e-13 * A0.max(axis=1, keepdims=True)).all()


@pytest.mark.parametrize("budget", [48, 96])
def test_endpoint_reaches_optimum_on_ill_conditioned_orbit(budget):
    f, g = _ill_conditioned_orbit()
    rep = orbit_project(f, g, budget)
    o = _scaled_qr(_dense_orbit_matrix(f, budget, 100), _dense_target(g, 100))[2]
    assert o - 1e-12 <= rep.residual_final <= o + 1e-10, (rep.residual_final, o)
    if budget == 96:
        # 95 live directions, some within sine tol_rank of the earlier ones
        assert rep.detail["accepted_directions"] < 95, rep.detail


def test_curve_matches_exact_gram_schmidt():
    # oracle: Gram-Schmidt with two passes in 40-digit arithmetic on the
    # explicit orbit matrix; f and g are real, so real arithmetic suffices
    import mpmath

    def orthogonalize(w, qs):
        for _ in range(2):
            for q in qs:
                h = mpmath.fdot(q, w)
                w = [wi - h * qi for wi, qi in zip(w, q)]
        return w

    budget = 24
    f, g = _ill_conditioned_orbit()
    rows = int(f.exponents[-1]) + 1
    M = _dense_orbit_matrix(f, budget, rows).real
    curve, qs = [], []
    with mpmath.workdps(40):
        r = [mpmath.mpf(x) for x in _dense_target(g, rows).real]
        for n in range(budget + 1):
            v = orthogonalize([mpmath.mpf(x) for x in M[:, n]], qs)
            norm = mpmath.sqrt(mpmath.fdot(v, v))
            qs.append([vi / norm for vi in v])
            r = orthogonalize(r, qs[-1:])  # r is orthogonal to the others
            curve.append(float(mpmath.sqrt(mpmath.fdot(r, r))))
    rep = orbit_project(f, g, budget)
    gn = g.norm()
    assert np.max(np.abs(rep.residuals - curve)) <= 1e-12 * gn, (
        rep.residuals - curve)
    assert abs(rep.residual_final - curve[-1]) <= 1e-12 * gn, (
        rep.residual_final, curve[-1])


def test_monomial_orbit_shares_no_row():
    # S*^n (2 z^3) = 2 z^(3 - n): every row of the orbit matrix belongs to
    # one column, so only g's rows stay coupled, and none for g = 0
    f = scalar_series([3], [2.0])
    rep = orbit_project(f, scalar_series([1], [1.0]), 5)
    assert np.allclose(rep.residuals, [1, 1, 0, 0, 0, 0], atol=1e-15)
    assert np.allclose(rep.coefficients, [0, 0, 0.5, 0, 0, 0], atol=1e-15)
    rep = orbit_project(f, _zero(1), 5)
    assert not rep.residuals.any() and not rep.coefficients.any()
    assert rep.residual_final == 0.0


def test_noncyclic_witness_lower_bound():
    # F confined to the e1 direction: any e2 target keeps its full norm
    es = [2**k for k in range(1, 10)]
    F = VectorSeries(2, es, np.array([[2.0**-k, 0.0] for k in range(1, 10)]))
    g = VectorSeries(2, [0], np.array([[0.0, 1.0]]))
    rep = orbit_project(F, g, 128)
    assert rep.residuals.min() >= 1.0 - 1e-9


def test_orbit_project_input_validation():
    g = scalar_series([0], [1.0])
    with pytest.raises(ValueError):
        orbit_project(VectorSeries(1, [], np.zeros((0, 1))), g, 4)
    with pytest.raises(ValueError):
        orbit_project(dyadic_scalar(4), g, -1)


_ONE, _PAIR = scalar_series([0], [1.0]), VectorSeries(2, [0], [[1.0, 0.0]])
_ONE_1, _PAIR_1 = PolySeries(1, 1, [((0,), [1.0])]), PolySeries(1, 2, [((0,), [1.0, 0.0])])
_ONE_2 = PolySeries(2, 1, [((0, 0), [1.0])])
_ZERO, _MISMATCH = "orbit of the zero series", "dimension mismatch between series"


@pytest.mark.parametrize("harness, f, g, bound, message", [
    (orbit_project, VectorSeries(1, [], np.zeros((0, 1))), _ONE, 8, _ZERO),
    (orbit_project_polydisc, PolySeries(1, 1, []), _ONE_1, (8,), _ZERO),
    (orbit_project, _ONE, _PAIR, 8, _MISMATCH),
    (orbit_project, _PAIR, _ONE, 8, _MISMATCH),
    (orbit_project_polydisc, _ONE_1, _PAIR_1, (8,), _MISMATCH),
    (orbit_project_polydisc, _PAIR_1, _ONE_1, (8,), _MISMATCH),
    (orbit_project_polydisc, _ONE_1, _ONE_2, (8,), _MISMATCH),
    (orbit_project_polydisc, _ONE_2, _ONE_1, (8, 8), _MISMATCH),
    (orbit_project_polydisc, _ONE_1, PolySeries(2, 1, []), (8,), _MISMATCH),
], ids=["disc-zero", "polydisc-zero", "disc-dim", "disc-dim-f", "polydisc-dim",
        "polydisc-dim-f", "poly_dim", "poly_dim-f", "poly_dim-zero-g"])
def test_harnesses_share_input_checks(harness, f, g, bound, message):
    # a zero f, a dim mismatch and a poly_dim mismatch raise one message
    # on both harnesses
    with pytest.raises(ValueError, match=message):
        harness(f, g, bound)


BOUND_RUNS = {
    "disc": lambda b: orbit_project(dyadic_scalar(4), _ONE, b).residuals,
    "polydisc": lambda b: orbit_project_polydisc(_poly_lacunary(K=3), _ONE_2, (b, 2)).residuals,
    "check": lambda b: one_in_orbit_check(_poly_lacunary(K=3), (2, b)),
}


@pytest.mark.parametrize("bad", [3.7, 3.0, "3", True, False, np.True_, -1, None])
@pytest.mark.parametrize("harness", BOUND_RUNS)
def test_every_bound_is_a_nonnegative_integer(harness, bad):
    # a float is not truncated and a bool is not an integer, as io reads
    # them; numpy integers are integers
    run = BOUND_RUNS[harness]
    with pytest.raises(ValueError, match="integer"):
        run(bad)
    assert np.array_equal(run(np.int64(3)), run(3))


# -- polydisc orbit -----------------------------------------------------------


def _poly_lacunary(K=5, decay=0.25):
    return PolySeries(2, 1, [((2**k, 3**k), [decay**k]) for k in range(K + 1)])


def test_polydisc_curve_nonincreasing():
    f = _poly_lacunary()
    one = PolySeries(2, 1, [((0, 0), [1.0])])
    rep = orbit_project_polydisc(f, one, (32, 27))
    assert np.all(np.diff(rep.residuals) <= 1e-12)
    assert len(rep.residuals) == 5


def test_polydisc_projection_of_shift_member():
    f = _poly_lacunary(K=3)
    g = poly_backward_shift(f, (2, 3))
    rep = orbit_project_polydisc(f, g, (8, 9))
    assert rep.shifts_used[-1] == (8, 9)
    assert rep.residual_final < 1e-8


def _dense_poly_orbit(f, g, box):
    """Independent oracle: the explicit orbit matrix [S*^alpha f] and the
    target g as dense vectors over the grid of multi-indices up to the
    largest exponent of f and g."""
    top = np.max(np.array(f.multi_exponents + g.multi_exponents), axis=0) + 1

    def dense(h):
        v = np.zeros(tuple(top) + (h.dim,), dtype=complex)
        for t, c in h.terms:
            v[t] = c
        return v.ravel()

    alphas = itertools.product(*(range(b + 1) for b in box))
    A = np.column_stack([dense(poly_backward_shift(f, a)) for a in alphas])
    return A, dense(g)


POLY_ORACLE_CASES = {
    # vector-valued; g's (20, 20) lies above every term of f, so its rows
    # come from g alone
    "vector_unreached": (
        PolySeries(2, 2, [((1, 2), [1.0, 0.5j]), ((4, 3), [0.0, 0.25]),
                          ((9, 7), [0.1, 0.2])]),
        PolySeries(2, 2, [((0, 0), [1.0, 0.0]), ((20, 20), [0.0, 1.0]),
                          ((1, 1), [0.3, -0.2j])]),
        (6, 5),
    ),
    "poly_dim_1": (
        PolySeries(1, 1, [((2,), [1.0]), ((5,), [0.5]), ((11,), [0.25j])]),
        PolySeries(1, 1, [((0,), [1.0]), ((13,), [1.0])]),
        (9,),
    ),
    "poly_dim_3": (
        PolySeries(3, 1, [((1, 2, 1), [1.0]), ((3, 4, 2), [0.5]),
                          ((7, 9, 5), [0.25])]),
        PolySeries(3, 1, [((0, 0, 0), [1.0]), ((1, 0, 1), [0.5])]),
        (3, 4, 2),
    ),
    "scalar_lacunary": (
        _poly_lacunary(K=3, decay=0.5),
        PolySeries(2, 1, [((0, 0), [1.0]), ((1, 1), [-0.5j])]),
        (8, 9),
    ),
}


def _loop_poly_system(f, g, box):
    """Reference assembly by explicit loops: rows numbered in order of first
    occurrence over columns in box order, then f's terms, then g's terms."""
    rows, data, ri, ci = {}, [], [], []
    alphas = list(itertools.product(*(range(b + 1) for b in box)))
    for cidx, alpha in enumerate(alphas):
        for t, c in f.terms:
            if all(ti >= ai for ti, ai in zip(t, alpha)):
                beta = tuple(ti - ai for ti, ai in zip(t, alpha))
                for comp in np.flatnonzero(c):
                    data.append(c[comp])
                    ri.append(rows.setdefault((beta, comp), len(rows)))
                    ci.append(cidx)
    for t, c in g.terms:
        for comp in np.flatnonzero(c):
            rows.setdefault((t, comp), len(rows))
    A = scipy.sparse.coo_matrix(
        (np.asarray(data, dtype=complex), (ri, ci)), shape=(len(rows), len(alphas))
    ).tocsr()
    b = np.zeros(len(rows), dtype=complex)
    for t, c in g.terms:
        for comp in np.flatnonzero(c):
            b[rows[(t, comp)]] = c[comp]
    return A, b


def _g_block(A, b):
    """Reference size of g's block in a loop-assembled system, by search:
    the columns reached from g's rows through rows they touch, and the
    rows reached that the compression keeps (two or more entries, or a
    nonzero of b), plus one diagonal row per column.  Returns (rows,
    columns)."""
    A = A.tocsr()
    At = A.T.tocsr()
    rows, cols = set(np.flatnonzero(b).tolist()), set()
    todo = list(rows)
    while todo:
        r = todo.pop()
        for c in A.indices[A.indptr[r]:A.indptr[r + 1]].tolist():
            if c not in cols:
                cols.add(c)
                new = set(At.indices[At.indptr[c]:At.indptr[c + 1]].tolist()) - rows
                rows |= new
                todo += new
    kept = sum(1 for r in rows if A.indptr[r + 1] - A.indptr[r] > 1 or b[r] != 0)
    return kept + len(cols), len(cols)


def _exponent_arrays(f, g):
    T = np.asarray(f.multi_exponents, dtype=np.int64)
    return T, np.asarray(g.multi_exponents, dtype=np.int64).reshape(len(g), f.poly_dim)


def _box_assembly(f, g, box):
    """`_assemble` on every column of the box, a set closed under row sharing."""
    T, Tg = _exponent_arrays(f, g)
    return _assemble(T, f.coeffs, Tg, g.coeffs, _box_columns(box))


def _poly_system(f, g, box):
    """The compressed orbit system over every column of the box."""
    return _as_coo(_box_assembly(f, g, box))


def _loop_compress(A, b):
    """Reference compression of a loop-assembled system: the rows with one
    entry and b = 0 folded into the squared norm of their column, summed in
    row order; the other rows kept in order, as COO."""
    own = (np.diff(A.indptr) == 1) & (b == 0)
    first = A.indptr[:-1][own]
    p2 = np.bincount(A.indices[first], np.abs(A.data[first]) ** 2,
                     minlength=A.shape[1])
    return A[~own].tocoo(), p2, b[~own]


def _disc_compress_case():
    # g's top term z^(2^6 - 1) lies on a row that only the column n = 1
    # touches, so folding g's rows would lose it
    f = dyadic_scalar(6)
    g = scalar_series([0, 3, 2**6 - 1], [1.0, -0.5j, 0.25])
    return f, g, 40


def _as_poly(h):
    return PolySeries(1, h.dim, [((int(e),), c) for e, c in zip(h.exponents, h.coeffs)])


def _case_systems(case):
    """(compressed system, loop-assembled A, b) of an oracle case or the disc."""
    if case == "disc":
        f, g, n_max = _disc_compress_case()
        loop = _loop_poly_system(_as_poly(f), _as_poly(g), (n_max,))
        return _disc_system(f, g, n_max), loop
    f, g, box = POLY_ORACLE_CASES[case]
    return _poly_system(f, g, box), _loop_poly_system(f, g, box)


def _fsum_norm(r):
    """||r|| with the squares of its real and imaginary parts summed
    exactly, as the replay sums them."""
    return math.sqrt(math.fsum(np.square(np.asarray(r, dtype=complex).view(np.float64))))


def _assert_matches_loop(system, A, b, seed=0):
    # the replay equals the exactly summed norm of scipy's CSR product bit
    # for bit only because every coefficient in these cases is real,
    # imaginary or has power-of-2 parts: each part of a complex product then
    # rounds at most once however the product is formed.  General
    # coefficients round differently in the two;
    # test_replay_is_exactly_rounded_on_general_coefficients covers them.
    C, p2, bc, replay = system
    C_ref, p2_ref, bc_ref = _loop_compress(A, b)
    assert C.shape == C_ref.shape
    assert np.array_equal(C.row, C_ref.row) and np.array_equal(C.col, C_ref.col)
    assert np.array_equal(C.data, C_ref.data)
    assert np.array_equal(p2, p2_ref) and np.array_equal(bc, bc_ref)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
    x[rng.random(A.shape[1]) < 0.25] = 0
    assert replay(x) == _fsum_norm(A @ x - b)


def _exact_residual_norm(A, x, b):
    """||A x - b|| exactly rounded: the products and sums in rationals, the
    square root in 200-bit mpmath."""
    import mpmath

    def parts(z):
        return Fraction(float(z.real)), Fraction(float(z.imag))

    total = Fraction(0)
    for r in range(A.shape[0]):
        re, im = (-v for v in parts(b[r]))
        for k in range(A.indptr[r], A.indptr[r + 1]):
            (ar, ai), (xr, xi) = parts(A.data[k]), parts(x[A.indices[k]])
            re, im = re + ar * xr - ai * xi, im + ar * xi + ai * xr
        total += re * re + im * im
    with mpmath.workprec(200):
        return float(mpmath.sqrt(mpmath.mpf(total.numerator) / total.denominator))


def _exactly_rounded_norm(v):
    """sqrt of the sum of the squares of v's parts, each square rounded
    once, the sum in rationals."""
    sq = np.square(np.asarray(v, dtype=complex).view(np.float64)).tolist()
    return math.sqrt(float(sum(map(Fraction, sq), Fraction(0))))


def _norm_cases():
    rng = np.random.default_rng(7)
    cases = {"empty": np.zeros(0, complex), "zeros": np.zeros(3, complex),
             "one": np.array([3 - 4j]),
             # from 512 entries (1024 squares) on, the sums per exponent:
             # 10^5 equal squares in one exponent, carries across exponents,
             # and squares that go to fsum, subnormal or near overflow
             "one_exponent": np.full(10**5, (1 - 2**-53) + 0j),
             "carries": np.repeat([2.0**k * (1 + 2**-30) + 0j for k in range(-40, 40)], 8),
             "subnormal": np.append(np.full(600, 1 + 1j), 1e-160 + 1e-158j),
             "near_overflow": np.append(np.full(600, 1e-200 + 0j), 1e153)}
    for n in (2, 100, 511, 512, 5000):
        for spread in (3, 40, 300):
            r = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.exp(
                rng.uniform(-spread, 0.5, n))
            r[rng.random(n) < 0.2] = 0
            cases[f"{n}-{spread}"] = r
    return cases


@pytest.mark.parametrize("name, r", _norm_cases().items(), ids=str)
def test_exact_norm_is_exactly_rounded(name, r):
    got = orbit._exact_norm(r)
    assert got == _exactly_rounded_norm(r) == _fsum_norm(r)
    # neither the order nor zeros change it
    rng = np.random.default_rng(0)
    assert orbit._exact_norm(np.concatenate([rng.permutation(r), np.zeros(5)])) == got


def test_exact_norm_of_non_finite_entries():
    assert orbit._exact_norm(np.array([np.inf + 0j, 1.0])) == np.inf
    assert np.isnan(orbit._exact_norm(np.array([np.nan + 0j, 1.0])))


def test_replay_is_exactly_rounded_on_general_coefficients():
    # complex normal coefficients, rows shared by up to 5 entries: the
    # replay rounds its products and sums, so it is held to the exactly
    # rounded norm within 4 ulp (1 ulp at most over 200 draws of x; scipy's
    # CSR product differed from the replay on 31 of them)
    rng = np.random.default_rng(2024)

    def z(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    f = PolySeries(2, 2, [(t, z(2)) for t in [(1, 2), (2, 3), (3, 3), (4, 6), (5, 5)]])
    g = PolySeries(2, 2, [(t, z(2)) for t in [(0, 0), (1, 1), (2, 0)]])
    replay = _box_assembly(f, g, (5, 5))[1]
    A, b = _loop_poly_system(f, g, (5, 5))
    assert np.diff(A.indptr).max() == 5
    for _ in range(20):
        x = z(A.shape[1])
        exact = _exact_residual_norm(A, x, b)
        assert _ulps(replay(x), exact) <= 4, (replay(x), exact)


# residual_final against a replay by another product: numpy's norm of
# scipy's CSR product A x - b rounds the complex products and the sum of
# squares its own way.  Two replays by `_assemble` sum their squares
# exactly (`_exact_norm`), so on the same coefficients they agree bit for bit
# whatever rows they cover beyond the block's
REPLAY_ULPS = 4


def _ulps(a, b):
    return abs(a - b) / np.spacing(max(a, b, np.finfo(float).tiny))


def _dense_coefficients(rep, box):
    """The support-form polydisc coefficients scattered over the box, C order."""
    x = np.zeros(int(np.prod(np.add(box, 1))), dtype=complex)
    support = rep.detail["support"]
    x[np.ravel_multi_index(tuple(support.T), tuple(np.add(box, 1)))] = rep.coefficients
    return x


@pytest.mark.parametrize("case", sorted(POLY_ORACLE_CASES))
def test_polydisc_solution_matches_loop_assembly(case):
    # LSMR sees the loop-assembled system, the harness its compressed block,
    # so the solutions agree to rounding, and so do the residual replays
    f, g, box = POLY_ORACLE_CASES[case]
    A, b = _loop_poly_system(f, g, box)
    x = scipy.sparse.linalg.lsmr(A, b, atol=1e-12, btol=1e-12,
                                 maxiter=8 * sum(A.shape))[0]
    rep = orbit_project_polydisc(f, g, box)
    coef = _dense_coefficients(rep, box)
    assert np.abs(coef - x).max() <= 1e-12 * np.linalg.norm(x)
    replay = np.linalg.norm(A @ coef - b)
    assert _ulps(rep.residual_final, replay) <= REPLAY_ULPS, (rep.residual_final, replay)


@pytest.mark.parametrize("case", sorted(POLY_ORACLE_CASES) + ["disc"])
def test_orbit_system_matches_loop_assembly(case):
    # the compressed system is the reference compression of the loop-assembled
    # one bit for bit, and its replay is the loop system's residual norm
    system, (A, b) = _case_systems(case)
    _assert_matches_loop(system, A, b)


@st.composite
def _small_orbit_case(draw):
    """f and g with exponents in a small cube, so that differences coincide
    and one row is shared by three or more columns; coefficient components
    may vanish, and g may sit above every term of f."""
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    index = st.tuples(*[st.integers(0, 6)] * n)
    coeff = st.lists(st.sampled_from([0.0, 1.0, -0.5, 2j, 0.25 + 0.5j]),
                     min_size=dim, max_size=dim)
    fterms = draw(st.lists(st.tuples(index, coeff), min_size=1, max_size=6,
                           unique_by=lambda term: term[0]))
    gterms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 8)] * n), coeff),
                           max_size=3, unique_by=lambda term: term[0]))
    if draw(st.booleans()):
        top = tuple(max(t[i] for t, _ in fterms) + 1 for i in range(n))
        gterms = [(t, c) for t, c in gterms if t != top] + [(top, [1.0] * dim)]
    f = PolySeries(n, dim, fterms)
    if not f.terms:
        f = PolySeries(n, dim, [(fterms[0][0], [1.0] * dim)])
    box = draw(st.tuples(*[st.integers(0, 7)] * n))
    return f, PolySeries(n, dim, gterms), box


@given(case=_small_orbit_case(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_compressed_system_matches_loop_on_small_systems(case, seed):
    f, g, box = case
    _assert_matches_loop(_poly_system(f, g, box), *_loop_poly_system(f, g, box), seed)


@pytest.mark.parametrize("case", sorted(POLY_ORACLE_CASES) + ["disc"])
def test_compress_keeps_gram_and_projection(case):
    (C, p2, bc, _), (A, b) = _case_systems(case)
    if case == "disc":
        private = np.diff(A.indptr) == 1
        assert np.any(private & (b != 0)), "g must touch a private row"
        assert np.diff(A.indptr).max() >= 3, "some row must be shared by 3 columns"
    assert C.shape == (len(bc), A.shape[1])
    gram = (C.conj().T @ C).toarray() + np.diag(p2)
    gram_ref = (A.conj().T @ A).toarray()
    scale = np.abs(gram_ref).max()
    assert np.allclose(gram, gram_ref, rtol=0, atol=1e-14 * scale)
    atb = C.conj().T @ bc
    assert np.allclose(atb, A.conj().T @ b, rtol=0,
                       atol=1e-14 * np.sqrt(scale) * np.linalg.norm(b))


@pytest.mark.parametrize("case", sorted(POLY_ORACLE_CASES))
def test_polydisc_residual_matches_dense_lstsq(case):
    f, g, box = POLY_ORACLE_CASES[case]
    gn = g.norm()
    rep = orbit_project_polydisc(f, g, box)
    assert rep.detail["block"] == _g_block(*_loop_poly_system(f, g, box)), rep.detail
    assert rep.detail["block"][1] <= rep.detail["columns_at_full_box"]
    A, b = _dense_poly_orbit(f, g, box)
    replay = np.linalg.norm(A @ _dense_coefficients(rep, box) - b)
    assert abs(rep.residual_final - replay) <= 1e-12 * gn, (
        rep.residual_final, replay)
    for sub, resid in zip(rep.shifts_used, rep.residuals):
        A, b = _dense_poly_orbit(f, g, sub)
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        oracle = np.linalg.norm(A @ x - b)
        assert abs(resid - oracle) <= 1e-8 * gn, (sub, resid, oracle)


@pytest.mark.parametrize("case", sorted(POLY_ORACLE_CASES))
def test_block_solve_matches_dense_lstsq_on_loop_system(case):
    # every chain box against dense lstsq on its own loop-assembled system;
    # at the full box the coefficients too, unique on g's block and 0 off it
    f, g, box = POLY_ORACLE_CASES[case]
    gn = g.norm()
    rep = orbit_project_polydisc(f, g, box)
    for sub, resid in zip(rep.shifts_used, rep.residuals):
        A, b = _loop_poly_system(f, g, sub)
        A = A.toarray()
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        oracle = np.linalg.norm(A @ x - b)
        assert abs(resid - oracle) <= 1e-12 * gn, (sub, resid, oracle)
    assert np.abs(_dense_coefficients(rep, box) - x).max() <= 1e-12 * np.linalg.norm(x)


@st.composite
def _split_target_case(draw):
    """f on the even lattice, so that shifts of different parity share no
    row; g on two parity classes of reached rows, T_s and T_s - e_i, on
    more reached rows, and on one row above every term of f, which no
    column reaches.  A reached row of g copies the term of f that reaches
    it, zero components included."""
    n = draw(st.integers(1, 3))
    dim = draw(st.integers(1, 2))
    coeff = st.lists(st.sampled_from([0.0, 1.0, -0.5, 2j, 0.25 + 0.5j]),
                     min_size=dim, max_size=dim).filter(any)
    half = st.tuples(*[st.integers(0, 4)] * n)
    fterms = draw(st.lists(st.tuples(half, coeff), min_size=1, max_size=5,
                           unique_by=lambda term: term[0]))
    i = draw(st.integers(0, n - 1))
    first = list(fterms[0][0])
    first[i] = max(first[i], 1)
    fterms[0] = (tuple(first), fterms[0][1])
    fterms = [(tuple(2 * e for e in t), c) for t, c in fterms]
    if len({t for t, _ in fterms}) < len(fterms):
        fterms = fterms[:1]
    box = list(draw(st.tuples(*[st.integers(0, 5)] * n)))
    box[i] = max(box[i], 1)
    scale = st.sampled_from([1.0, -2.0, 0.5j])
    t0, c0 = fterms[0]
    step = tuple(int(j == i) for j in range(n))
    alphas = {(0, (0,) * n), (0, step)}
    for _ in range(draw(st.integers(0, 3))):
        s = draw(st.integers(0, len(fterms) - 1))
        alphas.add((s, tuple(draw(st.integers(0, min(b, e)))
                             for b, e in zip(box, fterms[s][0]))))
    gterms = {}
    for s, alpha in sorted(alphas):
        t, c = fterms[s]
        gterms[tuple(a - b for a, b in zip(t, alpha))] = draw(scale) * np.asarray(c)
    top = tuple(max(t[j] for t, _ in fterms) + 1 for j in range(n))
    gterms[top] = np.ones(dim)
    return (PolySeries(n, dim, fterms), PolySeries(n, dim, list(gterms.items())),
            tuple(box))


@given(case=_split_target_case())
@settings(max_examples=60, deadline=None)
def test_block_solve_matches_dense_lstsq_when_g_splits(case):
    f, g, box = case
    gn = g.norm()
    rep = orbit_project_polydisc(f, g, box)
    A, b = _loop_poly_system(f, g, box)
    assert rep.detail["block"] == _g_block(A, b)
    for sub, resid in zip(rep.shifts_used, rep.residuals):
        A, b = _loop_poly_system(f, g, sub)
        A = A.toarray()
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        oracle = np.linalg.norm(A @ x - b)
        assert abs(resid - oracle) <= 1e-10 * gn, (sub, resid, oracle)
    assert abs(rep.residual_final - oracle) <= 1e-10 * gn, (rep.residual_final, oracle)


# -- g's block by exponent search, against the full-box oracle ----------------


def _oracle_block_fit(f, g, box):
    """The full-box assembly: `_assemble` over every column of the box,
    restricted to g's blocks by `_target_blocks`, its columns levelled by a
    box-sized grid, solved by `_solve_levels` and replayed on every row of
    the orbit matrix."""
    system, replay = _box_assembly(f, g, box)
    block, cols = _target_blocks(*system)
    boxes = [[int(np.floor(b * frac)) for b in box] for frac in _CHAIN]
    level = np.zeros((), dtype=np.int64)
    for edges, b in zip(zip(*boxes), box):
        level = np.maximum.outer(level, np.searchsorted(edges, np.arange(b + 1)))
    fit = _solve_levels(*block, level.ravel()[cols], len(_CHAIN), Tolerances().tol_rank)
    x = np.zeros(level.size, dtype=complex)
    x[cols] = fit["coefficients"]
    return block, cols, fit, x, replay(x)


def _assert_block_matches_oracle(f, g, box):
    block_ref, cols, fit, x, final = _oracle_block_fit(f, g, box)
    T, Tg = _exponent_arrays(f, g)
    alpha = _block_columns(T, f.coeffs, Tg, g.coeffs, box)
    block, _ = _assemble(T, f.coeffs, Tg, g.coeffs, alpha)
    # entries (row, col, data), p2 and b_C, bit for bit
    for got, ref in zip(block, block_ref, strict=True):
        assert np.array_equal(got, ref)
    shape = tuple(np.add(box, 1))
    assert np.array_equal(alpha, np.column_stack(np.unravel_index(cols, shape)))
    rep = orbit_project_polydisc(f, g, box)
    assert rep.detail["support"].dtype == np.int64
    assert np.array_equal(rep.detail["support"], alpha)
    assert rep.detail["block"] == fit["detail"]["block"]
    assert rep.detail["accepted_directions"] == fit["detail"]["accepted_directions"]
    assert np.array_equal(rep.residuals, fit["residuals"])
    assert np.array_equal(_dense_coefficients(rep, box), x)
    assert rep.gram_condition == fit["gram_condition"]
    assert rep.residual_final == final
    assert rep.detail["columns_at_full_box"] == x.size


CRITERION_8 = PolySeries(2, 1, [((2**k, 3**k), [16.0**-k]) for k in range(1, 11)])
CRITERION_8_BOXES = sorted({tuple(int(np.floor(b * frac)) for b in top)
                            for top in ((2**8, 3**4), (2**10, 3**5)) for frac in _CHAIN})


@pytest.mark.parametrize("box", CRITERION_8_BOXES)
@pytest.mark.parametrize("eta", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_block_search_matches_oracle_on_criterion_8(eta, box):
    _assert_block_matches_oracle(CRITERION_8, PolySeries(2, 1, [(eta, [1.0])]), box)


@given(case=_small_orbit_case())
@settings(max_examples=100, deadline=None)
def test_block_search_matches_oracle_on_small_systems(case):
    _assert_block_matches_oracle(*case)


@given(case=_split_target_case())
@settings(max_examples=60, deadline=None)
def test_block_search_matches_oracle_when_g_splits(case):
    # g has several terms on two blocks and a row that no column reaches
    _assert_block_matches_oracle(*case)


def test_block_search_never_touches_the_box():
    # about 9e23 columns: any array of the box's size would fail; past
    # every exponent of f the block is the same 512 columns
    one = PolySeries(2, 1, [((0, 0), [1.0])])
    assert orbit_project_polydisc(CRITERION_8, one, (2**10, 3**5)).detail["block"] == (24, 16)
    box = (2**40, 3**25)
    rep = orbit_project_polydisc(CRITERION_8, one, box)
    cols = rep.detail["columns_at_full_box"]
    assert type(cols) is int and cols == (2**40 + 1) * (3**25 + 1)
    assert rep.detail["block"][1] == 512 == len(rep.coefficients)
    assert rep.detail["support"].shape == (512, 2)
    saturated = orbit_project_polydisc(CRITERION_8, one, (2**20, 3**12))
    assert np.array_equal(rep.detail["support"], saturated.detail["support"])
    assert 0 < rep.residual_final < 1.45e-4


def test_block_search_takes_boxes_past_int64():
    # no column exceeds an exponent of f, so a box past 2^63 searches as the
    # largest int64 box does; a negative alpha, read unsigned, is never in it
    one = PolySeries(2, 1, [((0, 0), [1.0])])
    T, Tg = _exponent_arrays(CRITERION_8, one)
    ref = _block_columns(T, CRITERION_8.coeffs, Tg, one.coeffs, (2**63 - 1, 3**25))
    for top in (2**63, 2**64 - 1, 2**70):
        alpha = _block_columns(T, CRITERION_8.coeffs, Tg, one.coeffs, (top, 3**25))
        assert np.array_equal(alpha, ref)
    assert (ref >= 0).all() and len(ref) == 512


def _one_variable_draw(seed):
    """f with squared-gap exponents and complex coefficients (some
    components 0), a budget n, and g: random low monomials on even seeds,
    on odd seeds an exact combination of orbit members S*^m f, m <= n, whose
    optimal residual is rounding."""
    rng = np.random.default_rng(seed)
    dim, K, n = int(rng.integers(1, 3)), int(rng.integers(3, 8)), int(rng.integers(4, 40))
    coeffs = edge_coeffs(rng, (K, dim))
    coeffs[-1, 0] = 1.0  # f is not 0
    f = VectorSeries(dim, np.cumsum(rng.integers(1, 4, size=K)) ** 2, coeffs)
    if seed % 2:
        shifts = rng.choice(n + 1, size=3, replace=False)
        weights = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        parts = [backward_shift(f, int(m)) for m in shifts]
        g = VectorSeries(dim, np.concatenate([h.exponents for h in parts]),
                         np.concatenate([w * h.coeffs for w, h in zip(weights, parts)]))
    else:
        g = VectorSeries(dim, rng.choice(30, size=3, replace=False),
                         edge_coeffs(rng, (3, dim)))
    return f, g, n


# the large blocks: criterion 1 at 33 columns (the fold) and 151 (tpqrt's
# blocked panels), and the merged pair (f, S*f) at 97 (the twin merge)
LARGE_ONE_VARIABLE = {
    "criterion1-64": lambda: (dyadic_scalar(K=20), scalar_series([0], [1.0]), 64),
    "criterion1-300": lambda: (dyadic_scalar(K=20), scalar_series([0], [1.0]), 300),
    "pair-192": lambda: _disc_series_case("pair", 2, 192),
}


@pytest.mark.parametrize("seed", [*range(60), *LARGE_ONE_VARIABLE])
def test_disc_equals_one_variable_polydisc(seed):
    # the same searched block, solve and coefficients, and the same replay
    # rows; only the chains differ, one box per shift on the disc
    f, g, n = LARGE_ONE_VARIABLE[seed]() if seed in LARGE_ONE_VARIABLE else _one_variable_draw(seed)
    disc = orbit_project(f, g, n)
    poly = orbit_project_polydisc(_as_poly(f), _as_poly(g), (n,))
    cols = poly.detail["support"][:, 0]
    assert disc.coefficients[cols].tobytes() == poly.coefficients.tobytes()
    assert not np.delete(disc.coefficients, cols).any()
    for key in ("block", "accepted_directions"):
        assert disc.detail[key] == poly.detail[key]
    if disc.detail["block"][1] < 128:
        assert disc.gram_condition == poly.gram_condition
    else:  # from 128 columns the estimate can move from call to call
        assert disc.gram_condition == pytest.approx(poly.gram_condition, rel=1e-12)
    assert disc.residuals[-1] == poly.residuals[-1]
    assert disc.residual_final == poly.residual_final
    assert disc.target_norm == poly.target_norm


def _disc_oracle(f, g, n):
    """The disc fit over every shift: `_assemble` on all of 0..n, g's blocks
    kept by their connected components (`_target_blocks`), solved by
    `_solve_levels` with one level per shift and replayed on every row."""
    system, replay = _assemble(f.exponents[:, None], f.coeffs, g.exponents[:, None],
                               g.coeffs, _box_columns((n,)))
    block, cols = _target_blocks(*system)
    fit = _solve_levels(*block, cols, n + 1, Tolerances().tol_rank)
    x = np.zeros(n + 1, dtype=complex)
    x[cols] = fit["coefficients"]
    return cols, fit, x, replay(x)


def _disc_series_case(series, base, n, seed=None):
    """The orbit-disc benchmark's shapes: 20 terms with seeded phases,
    dyadic (scalar) or the merged pair (f, S*f) in C^2, and g the constant
    or a low monomial in one component; ``seed`` draws other phases and g."""
    rng = np.random.default_rng([base, n] + ([] if seed is None else [seed]))
    a = base ** -np.arange(1.0, 21) * np.exp(2j * np.pi * rng.uniform(size=20))
    e, j = 2 ** np.arange(1, 21), int(rng.integers(0, 4))
    if series == "dyadic":
        return scalar_series(e, a), scalar_series([j], [1.0]), n
    coeffs = np.zeros((40, 2), dtype=complex)
    coeffs[0::2, 1], coeffs[1::2, 0] = a, a  # a_k e2 at 2^k - 1, a_k e1 at 2^k
    c = np.zeros((1, 2))
    c[0, rng.integers(0, 2)] = 1.0
    return VectorSeries(2, np.repeat(e, 2) - [1, 0] * 20, coeffs), VectorSeries(2, [j], c), n


DISC_ORACLE_CASES = [("draw", seed) for seed in range(60)] + [
    (series, base, n) for series in ("dyadic", "pair")
    for base in (2, 4, 16) for n in (64, 256, 1024)]


@pytest.mark.parametrize("case", DISC_ORACLE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_disc_matches_all_shift_oracle(case):
    # the searched block is the all-shift system's blocks of g, bit for bit;
    # the oracle replays on every row, the harness on the block's rows only
    f, g, n = _one_variable_draw(case[1]) if case[0] == "draw" else _disc_series_case(*case)
    cols, fit, x, final = _disc_oracle(f, g, n)
    alpha = _block_columns(f.exponents[:, None], f.coeffs, g.exponents[:, None],
                           g.coeffs, (n,))
    assert np.array_equal(alpha, cols[:, None])
    rep = orbit_project(f, g, n)
    assert rep.residuals.tobytes() == fit["residuals"].tobytes()
    assert rep.coefficients.tobytes() == x.tobytes()
    assert rep.gram_condition == fit["gram_condition"]
    assert rep.detail == fit["detail"]
    assert rep.residual_final == final


def test_block_residual_equals_exact_least_squares():
    # oracle: rational least squares over the whole uncompressed system, by
    # the normal equations in exact arithmetic.  f lies on the even lattice,
    # so g sits on two blocks, (0, 0) and (1, 2), and on (5, 7), which no
    # column reaches.
    import sympy

    f = PolySeries(2, 1, [((2, 2), [1.0]), ((2, 4), [0.5]), ((4, 6), [-0.25])])
    g = PolySeries(2, 1, [((0, 0), [1.0]), ((1, 2), [0.5]), ((5, 7), [2.0])])
    rep = orbit_project_polydisc(f, g, (3, 4))
    assert rep.detail["block"][1] < rep.detail["columns_at_full_box"]
    for sub, resid in zip(rep.shifts_used, rep.residuals):
        A, b = _loop_poly_system(f, g, sub)
        A = sympy.Matrix([[sympy.Rational(v) for v in row]
                          for row in A.toarray().real.tolist()])
        b = sympy.Matrix([sympy.Rational(v) for v in b.real.tolist()])
        x, params = (A.T * A).gauss_jordan_solve(A.T * b)
        r = b - A * x.subs({p: 0 for p in params})
        exact = sympy.sqrt(r.dot(r))
        assert abs(resid - float(exact)) <= 1e-14 * g.norm(), (sub, resid, exact)
        if sub == (3, 4):
            assert abs(rep.residual_final - float(exact)) <= 1e-14 * g.norm()


# -- the twin merge and the pair-row fold -------------------------------------


def _unfolded(A, row, pos, v, bc):
    """Reference for ``_fold_pairs``: every shared row stays in B for tpqrt,
    as before the fold."""
    return row, pos, v, bc


def _unmerged(row, pos, v, bc):
    """Reference for ``_merge_twins``: identical rows stay apart."""
    return row, pos, v, bc


def _recorded(monkeypatch, run, fold=True):
    """run() with the merge and the fold (or, if not ``fold``, the
    unmerged and unfolded reference); returns its result, the kept columns
    of each solve and each B that tpqrt reduced."""
    keeps, Bs = [], []
    qr, tp = orbit._qr_skipping, orbit._tpqrt

    def record_qr(A, B, cut):
        R, keep = qr(A, B, cut)
        keeps.append(keep)
        return R, keep

    def record_tp(A, B):
        Bs.append(B.copy())
        return tp(A, B)

    with monkeypatch.context() as m:
        m.setattr(orbit, "_qr_skipping", record_qr)
        m.setattr(orbit, "_tpqrt", record_tp)
        if not fold:
            m.setattr(orbit, "_merge_twins", _unmerged)
            m.setattr(orbit, "_fold_pairs", _unfolded)
        out = run()
    return out, keeps, Bs


def _assert_fold_matches_unfolded(monkeypatch, run, gn, curve_tol=1e-13, final_tol=1e-14):
    """An orbit projection with the merge and the fold against the
    unmerged, unfolded reference:
    the same kept columns and detail, the curve to ``curve_tol`` ||g|| and
    ``residual_final`` to ``final_tol`` ||g||.  Returns the folded report
    and the row counts of B at tpqrt, folded and unfolded."""
    ref, keeps0, B0 = _recorded(monkeypatch, run, fold=False)
    rep, keeps1, B1 = _recorded(monkeypatch, run)
    assert len(keeps0) == len(keeps1)
    for k0, k1 in zip(keeps0, keeps1):
        assert np.array_equal(k0, k1)
    assert rep.detail.keys() == ref.detail.keys()
    for key in rep.detail:
        assert np.array_equal(rep.detail[key], ref.detail[key]), key
    curve = np.max(np.abs(rep.residuals - ref.residuals))
    assert curve <= curve_tol * gn, curve
    final = abs(rep.residual_final - ref.residual_final)
    assert final <= final_tol * gn, final
    return rep, [len(B) for B in B1], [len(B) for B in B0]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", ORBIT_DISC_CYCLE, ids=lambda c: "-".join(map(str, c)))
def test_fold_matches_unfolded_on_disc_cycle(monkeypatch, case, seed):
    f, g, n = _disc_series_case(*case, seed=seed)
    rep, rows, rows0 = _assert_fold_matches_unfolded(
        monkeypatch, lambda: orbit_project(f, g, n), g.norm())
    # every cycle block has at least 33 columns, so each is folded
    assert rep.detail["block"][1] >= orbit._FOLD_COLUMNS
    assert rows[0] < rows0[0], (rows, rows0)


@pytest.mark.parametrize("budget, rows", [(1024, 130), (2048, 258)])
def test_fold_matches_unfolded_on_criterion_1(monkeypatch, budget, rows):
    # half of the 258 (514) shared rows go to tpqrt
    f = dyadic_scalar(K=20)
    g = scalar_series([0], [1.0])
    _, got, ref = _assert_fold_matches_unfolded(
        monkeypatch, lambda: orbit_project(f, g, budget), g.norm())
    assert ref == [2 * rows - 2] and got == [rows], (got, ref)


def test_merge_and_fold_cut_the_pair_block_to_a_quarter(monkeypatch):
    # the merged pair at budget 512 with g = e1: 258 of the 259 shared rows
    # are twins and merge into 129, and the fold absorbs 64 of those (the
    # rest chain, as on criterion 1), so 66 reach tpqrt; the fold alone,
    # which absorbs one row per left column, left 195
    f = _disc_series_case("pair", 16, 512)[0]
    g = VectorSeries(2, [0], [[1.0, 0.0]])
    rep, _, Bs = _recorded(monkeypatch, lambda: orbit_project(f, g, 512))
    assert rep.detail["block"] == (259 + 257, 257)
    assert [len(B) for B in Bs] == [66]


def test_small_blocks_keep_their_twins(monkeypatch):
    # under _FOLD_COLUMNS columns neither the merge nor the fold runs: the
    # merged pair's twins all reach tpqrt, as at the parent of the merge
    f, g, n = _disc_series_case("pair", 4, 40)
    rep, _, (B,) = _recorded(monkeypatch, lambda: orbit_project(f, g, n))
    rows, m = rep.detail["block"]
    assert m < orbit._FOLD_COLUMNS and len(B) == rows - m == 27


@pytest.mark.parametrize("box", [(2**8, 3**4), (2**10, 3**5), (2**12, 3**7),
                                 (2**13, 3**8), (2**14, 3**9)])
@pytest.mark.parametrize("eta", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_fold_matches_unfolded_on_criterion_8(monkeypatch, eta, box):
    # the blocks reach 32 columns from (2^12, 3^7) on
    g = PolySeries(2, 1, [(eta, [1.0])])
    rep, rows, rows0 = _assert_fold_matches_unfolded(
        monkeypatch, lambda: orbit_project_polydisc(CRITERION_8, g, box), g.norm())
    if rep.detail["block"][1] >= orbit._FOLD_COLUMNS:
        assert rows[0] < rows0[0], (rows, rows0)
    else:
        assert rows == rows0


def test_fold_matches_unfolded_with_deletions(monkeypatch):
    # the ill-conditioned orbit at budget 128 (95 live shifts, 9 deleted):
    # the curve to the 40-digit oracle's 1e-12 ||g||.  z^3 lies in the
    # orbit span, so both endpoints are rounding (2.4e-12 folded, 3.3e-12
    # not), held to the dense-QR optimum as in
    # test_endpoint_reaches_optimum_on_ill_conditioned_orbit
    f, g = _ill_conditioned_orbit()
    rep, rows, rows0 = _assert_fold_matches_unfolded(
        monkeypatch, lambda: orbit_project(f, g, 128), g.norm(), curve_tol=1e-12,
        final_tol=np.inf)
    assert rep.detail["accepted_directions"] < 95 and rows[0] < rows0[0]
    o = _scaled_qr(_dense_orbit_matrix(f, 128, 100), _dense_target(g, 100))[2]
    assert o - 1e-12 <= rep.residual_final <= o + 1e-10, (rep.residual_final, o)


# shared rows of an 8-column block, entries (row, col), and which are
# folded when the columns enter in C order: each row's comment says why.
# Entering in another order, other rows fold (FOLDED), some with their
# left column in level order after their right one in C order.
FOLD_EDGES = [
    (0, 0), (0, 2),  # folded: column 0 (p2 = 0) is the left column
    (1, 0), (1, 3),  # the second row on left column 0
    (2, 2), (2, 4),  # a chain: its left column 2 is row 0's right one
    (3, 4), (3, 5),  # a row of g
    (4, 5), (4, 6),  # folded
    (5, 1), (5, 6), (5, 7),  # three entries
    (6, 3), (6, 6),  # folded: column 6 absorbs two folds
    (7, 6), (7, 7),  # a chain: its left column 6 is rows 4's and 6's right one
]
FOLD_LEVELS = {"C": np.arange(8), "permuted": np.array([3, 0, 5, 1, 7, 2, 6, 4]),
               "reversed": np.arange(8)[::-1]}
FOLDED = {"C": [0, 4, 6], "permuted": [1, 4, 7], "reversed": [1, 2, 7]}


def _edge_block(dtype, seed=0):
    rng = np.random.default_rng(seed)
    row, col = np.array(FOLD_EDGES).T
    data = rng.standard_normal(len(row))
    if dtype is complex:
        data = data + 1j * rng.standard_normal(len(row))
    p2 = rng.uniform(0.1, 1.0, size=8)
    p2[0] = 0.0
    bc = np.zeros(8, dtype=dtype)
    bc[3] = 1.5
    bc[5] = -0.5
    return row, col, data, p2, bc


def _dense_block_fit(block, level, levels):
    """Dense least squares of [C; diag(sqrt p2)] x ~ [b_C; 0] over the
    columns up to each level: the residuals and the coefficients at the
    last level."""
    row, col, data, p2, bc = block
    m = len(p2)
    M = np.zeros((len(bc) + m, m), dtype=complex)
    M[row, col] = data
    M[len(bc) + np.arange(m), np.arange(m)] = np.sqrt(p2)
    b = np.concatenate([bc, np.zeros(m)])
    curve = []
    for L in range(levels):
        cols = np.flatnonzero(level <= L)
        x = np.linalg.lstsq(M[:, cols], b, rcond=None)[0]
        curve.append(np.linalg.norm(M[:, cols] @ x - b))
    return np.array(curve), x


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("order", FOLD_LEVELS)
def test_fold_edge_cases(monkeypatch, dtype, order):
    monkeypatch.setattr(orbit, "_FOLD_COLUMNS", 1)  # fold the 8-column block
    block = _edge_block(dtype)
    level = FOLD_LEVELS[order]
    cut = Tolerances().tol_rank
    ref, keep0, _ = _recorded(monkeypatch, lambda: _solve_levels(*block, level, 8, cut),
                              fold=False)
    fit, keep1, (B,) = _recorded(monkeypatch, lambda: _solve_levels(*block, level, 8, cut))
    assert np.array_equal(keep0[0], keep1[0])
    assert fit["detail"] == ref["detail"] == {"block": (16, 8), "accepted_directions": 8}
    # the rows left reach tpqrt in their order, g's two among them
    assert B.dtype == np.result_type(dtype, float)
    assert np.array_equal(B[:, 8][B[:, 8] != 0], [1.5, -0.5])
    at = np.argsort(np.argsort(level))  # each column's position in level order
    left = [r for r in range(8) if r not in FOLDED[order]]
    assert len(B) == len(left)
    for b, r in zip(B, left):
        cols = [c for rr, c in FOLD_EDGES if rr == r]
        assert np.array_equal(np.flatnonzero(b[:8]), np.sort(at[cols])), r
    gn = np.linalg.norm(block[4])
    assert np.max(np.abs(fit["residuals"] - ref["residuals"])) <= 1e-13 * gn
    x0 = np.abs(ref["coefficients"]).max()
    assert np.max(np.abs(fit["coefficients"] - ref["coefficients"])) <= 1e-13 * x0
    assert fit["gram_condition"] == pytest.approx(ref["gram_condition"], rel=1e-10)
    curve, x = _dense_block_fit(block, level, 8)
    assert np.max(np.abs(fit["residuals"] - curve)) <= 1e-13 * gn
    assert np.max(np.abs(fit["coefficients"] - x)) <= 1e-12 * x0


def test_fold_skips_a_row_on_a_zero_left_column(monkeypatch):
    # row 0's left entry is 0 (as when a scaled entry underflows) and its
    # column has no private row: rho = 0, so the row stays in B
    monkeypatch.setattr(orbit, "_FOLD_COLUMNS", 1)
    block = (np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 2]),
             np.array([0.0, 1.0, 1.0, 1.0, 1.0]), np.array([0.0, 0.5, 0.5]),
             np.array([0.0, 1.0]))
    level = np.arange(3)
    fit, _, (B,) = _recorded(monkeypatch, lambda: _solve_levels(
        *block, level, 3, Tolerances().tol_rank))
    assert len(B) == 2
    curve, x = _dense_block_fit(block, level, 3)
    assert np.max(np.abs(fit["residuals"] - curve)) <= 1e-14
    assert np.max(np.abs(fit["coefficients"] - x)) <= 1e-14


def test_fold_is_exact_on_a_rational_block(monkeypatch):
    # oracle: the least squares of [C; diag(sqrt p2)] x ~ [b_C; 0] over the
    # columns up to each level by the normal equations in exact arithmetic;
    # rows 0 and 3 are folded, row 1 is a chain, row 2 a row of g
    import sympy

    monkeypatch.setattr(orbit, "_FOLD_COLUMNS", 1)
    R = sympy.Rational
    entries = [(0, 0, R(1)), (0, 1, R(1, 2)), (1, 1, R(-3, 4)), (1, 2, R(2)),
               (2, 2, R(1, 3)), (2, 4, R(1)), (3, 3, R(5, 4)), (3, 4, R(-1, 2)),
               (4, 0, R(1, 4)), (4, 3, R(1, 8)), (4, 4, R(3, 2))]
    roots = [R(0), R(1, 2), R(1), R(2, 3), R(1, 4)]  # sqrt p2, column 0 has p2 = 0
    bc = [R(0), R(0), R(3, 2), R(0), R(-1, 2)]
    row, col, data = (np.array(v) for v in zip(*entries))
    block = (row.astype(np.int64), col.astype(np.int64), data.astype(float),
             np.array([float(r**2) for r in roots]), np.array([float(b) for b in bc]))
    fit, _, (B,) = _recorded(monkeypatch, lambda: _solve_levels(
        *block, np.arange(5), 5, Tolerances().tol_rank))
    assert len(B) == 3
    gn = float(sympy.sqrt(sum(b**2 for b in bc)))
    C = sympy.zeros(5, 5)
    for r, c, v in entries:
        C[r, c] = v
    M = C.col_join(sympy.diag(*roots))
    b = sympy.Matrix(bc + [0] * 5)
    for L in range(5):
        A = M[:, : L + 1]
        x = (A.T * A).LUsolve(A.T * b)
        exact = sympy.sqrt((b - A * x).dot(b - A * x))
        assert abs(fit["residuals"][L] - float(exact)) <= 1e-14 * gn, (L, fit["residuals"][L])
    got = fit["coefficients"]
    assert np.max(np.abs(got - np.array([float(v) for v in x]))) <= 1e-13 * float(
        max(abs(v) for v in x))


def _loop_merge(row, pos, v, bc):
    """Reference for ``_merge_twins``: the shared rows grouped by their
    exact entries and b_C in a loop, each group's first row kept in its
    place, scaled by the square root of the group's size."""
    groups = {}
    for r in range(len(bc)):
        e = np.flatnonzero(row == r)
        groups.setdefault((tuple(pos[e]), tuple(v[e]), bc[r]), []).append(r)
    out = ([], [], [], [])
    for new_r, rs in enumerate(groups.values()):  # in order of first rows
        e, k = np.flatnonzero(row == rs[0]), np.sqrt(float(len(rs)))
        out[0].extend([new_r] * len(e))
        out[1].extend(pos[e])
        out[2].extend(v[e] * k)
        out[3].append(bc[rs[0]] * k)
    return tuple(np.array(o, dtype=ref.dtype) for o, ref in zip(out, (row, pos, v, bc)))


# shared rows of a 4-column block with twins, entries (row, pos): rows 0,
# 2 and 4 are equal, rows 1, 3 and 5 have equal entries but row 3 a
# different b, rows 6 and 7 are rows of g that no column reaches, with
# equal b, and row 8 another such row
TWIN_ROWS = [[(0, 0), (0, 2)], [(1, 1), (1, 3)], [(2, 0), (2, 2)],
             [(3, 1), (3, 3)], [(4, 0), (4, 2)], [(5, 1), (5, 3)], [], [], []]
TWIN_B = [0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.5, -0.5]


def _twin_block(dtype):
    row, pos = (np.array(x, dtype=np.int64) for x in zip(*sum(TWIN_ROWS, [])))
    a, b = (0.75, -1.5) if dtype is float else (0.75 - 0.5j, -1.5 + 2j)
    v = np.array([a, b] * 6, dtype=dtype)
    v[1::4] = -v[1::4]  # rows 0, 2, 4: (a, b); rows 1, 3, 5: (a, -b)
    return row, pos, v, np.array(TWIN_B, dtype=dtype)


@pytest.mark.parametrize("dtype", [float, complex])
def test_merge_twins_merges_equal_rows_only(dtype):
    row, pos, v, bc = _twin_block(dtype)
    got = orbit._merge_twins(row, pos, v, bc)
    for g, r in zip(got, _loop_merge(row, pos, v, bc), strict=True):
        assert g.dtype == r.dtype and np.array_equal(g, r)
    # rows 0 (three copies), 1 and 5 (two), 3, 6 and 7 (two), 8
    assert np.array_equal(got[0], [0, 0, 1, 1, 2, 2])
    assert np.array_equal(got[2][:2], v[:2] * np.sqrt(3.0))
    assert np.array_equal(got[2][2:4], v[2:4] * np.sqrt(2.0))
    assert np.array_equal(got[2][4:], v[6:8])
    assert np.array_equal(got[3], [0, 0, 0.5, 0.5 * np.sqrt(2.0), -0.5])


@pytest.mark.parametrize("dtype", [float, complex])
def test_merge_twins_never_merges_on_a_fingerprint_collision(monkeypatch, dtype):
    # every row gets the same fingerprint: each row is checked against the
    # first row of its (count, b) group, so rows 1 and 5, equal to each
    # other but not to row 0, stay apart, and nothing that differs merges
    monkeypatch.setattr(orbit, "_fingerprints", lambda row, pos, v, n: np.zeros(n))
    row, pos, v, bc = _twin_block(dtype)
    got = orbit._merge_twins(row, pos, v, bc)
    assert np.array_equal(got[0], [0, 0, 1, 1, 2, 2, 3, 3])
    assert np.array_equal(got[1], [0, 2, 1, 3, 1, 3, 1, 3])
    assert np.array_equal(got[2], np.concatenate([v[:2] * np.sqrt(3.0), v[2:4],
                                                  v[6:8], v[10:12]]))
    assert np.array_equal(got[3], [0, 0, 0.5, 0, 0.5 * np.sqrt(2.0), -0.5])


@pytest.mark.parametrize("case", ORBIT_DISC_CYCLE, ids=lambda c: "-".join(map(str, c)))
def test_merge_twins_matches_loop_on_disc_cycle(monkeypatch, case):
    # the pair blocks' twins, row (e, e1) = row (e - 1, e2), all merge; the
    # dyadic blocks have none and pass through as they came
    f, g, n = _disc_series_case(*case)
    seen, merge = [], orbit._merge_twins

    def record(*rows):
        seen.append((rows, merge(*rows)))
        return seen[-1][1]

    monkeypatch.setattr(orbit, "_merge_twins", record)
    orbit_project(f, g, n)
    ((rows, got),) = seen
    for a, b in zip(got, _loop_merge(*rows), strict=True):
        assert np.array_equal(a, b)
    if case[0] == "dyadic":
        assert all(a is b for a, b in zip(got, rows))
    else:  # pairs of twins, and at most 3 rows without one
        assert 2 * len(got[3]) - len(rows[3]) <= 3, (len(got[3]), len(rows[3]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_merge_and_fold_are_exact_on_a_rational_block(monkeypatch, dtype):
    # oracle: the least squares of [C; diag(sqrt p2)] x ~ [b_C; 0] over the
    # columns up to each level by the normal equations in exact arithmetic,
    # on the unmerged rows; the twin block's 9 shared rows reach tpqrt as 3
    # (5 after the merge, two of them then folded)
    import sympy

    monkeypatch.setattr(orbit, "_FOLD_COLUMNS", 1)
    row, col, data, bc = _twin_block(dtype)
    roots = [sympy.Rational(1, 2), 0, 1, sympy.Rational(3, 4)]  # sqrt p2
    block = (row, col, data, np.array([float(r**2) for r in roots]), bc)
    fit, _, (B,) = _recorded(monkeypatch, lambda: _solve_levels(
        *block, np.arange(4), 4, Tolerances().tol_rank))
    assert len(B) == 3 and fit["detail"] == {"block": (13, 4), "accepted_directions": 4}

    def exact(z):
        return sympy.nsimplify(float(z.real)) + sympy.I * sympy.nsimplify(float(z.imag))

    C = sympy.zeros(len(bc), 4)
    for r, c, v in zip(row, col, data):
        C[r, c] = exact(complex(v))
    M = C.col_join(sympy.diag(*roots))
    b = sympy.Matrix([exact(complex(z)) for z in bc] + [0] * 4)
    gn = float(np.linalg.norm(bc))
    for L in range(4):
        A = M[:, : L + 1]
        x = (A.H * A).LUsolve(A.H * b)
        r = b - A * x
        res = float(sympy.sqrt(sympy.re(sympy.expand(r.H * r)[0])))
        assert abs(fit["residuals"][L] - res) <= 1e-14 * gn, (L, fit["residuals"][L], res)
    xs = np.array([complex(v) for v in x.evalf()])
    assert np.max(np.abs(fit["coefficients"] - xs)) <= 1e-14 * np.abs(xs).max()


def test_polydisc_orbit_sharing_no_row_with_target():
    # S*^alpha z^(2,3) = z^((2,3) - alpha): no two columns meet, and g lies
    # on rows no column reaches, so every column drops out
    f = PolySeries(2, 1, [((2, 3), [0.5])])
    g = PolySeries(2, 1, [((5, 5), [1.0]), ((6, 0), [0.5j])])
    rep = orbit_project_polydisc(f, g, (3, 4))
    assert not rep.coefficients.any()
    assert np.array_equal(rep.residuals, np.full(5, g.norm()))
    assert rep.residual_final == g.norm()


@pytest.mark.parametrize("f", [PolySeries(2, 1, [((2, 3), [0.5])]),
                               _poly_lacunary(K=3, decay=0.5)])
def test_polydisc_zero_target(f):
    rep = orbit_project_polydisc(f, PolySeries(2, 1, []), (8, 9))
    assert not rep.coefficients.any()
    assert not rep.residuals.any()
    assert rep.residual_final == 0.0


@pytest.mark.parametrize("box", [(32,), (8, 9, 3), (8, -1)])
def test_polydisc_box_must_bound_every_variable(box):
    # a 1-bound box would broadcast to the diagonal shifts (a, a)
    f = _poly_lacunary(K=3)
    one = PolySeries(2, 1, [((0, 0), [1.0])])
    with pytest.raises(ValueError, match="2 nonnegative bounds"):
        orbit_project_polydisc(f, one, box)
    with pytest.raises(ValueError, match="2 nonnegative bounds"):
        one_in_orbit_check(f, box)


@pytest.mark.parametrize("big", [2**63, 2**64])
def test_polydisc_rejects_exponents_past_int64(big):
    # the exponent search runs in int64; either series may hold the exponent
    small = PolySeries(2, 1, [((1, 0), [1.0])])
    large = PolySeries(2, 1, [((big, 0), [1.0]), ((0, 1), [0.5])])
    for f, g in ((large, small), (small, large)):
        with pytest.raises(ValueError, match=r"below 2\^63"):
            orbit_project_polydisc(f, g, (2, 2))
    with pytest.raises(ValueError, match=r"below 2\^63"):
        one_in_orbit_check(large, (2, 2))


def test_polydisc_chain_is_exact_above_2_53():
    # 2^55 + 3 is no double: float edges rounded the full box down to 2^55,
    # below the one column of g's block, which then entered at a sixth level
    N = 2**55 + 3
    f = PolySeries(1, 1, [((N,), [1.0])])
    rep = orbit_project_polydisc(f, PolySeries(1, 1, [((0,), [1.0])]), (N,))
    assert rep.shifts_used == ((N // 8,), (N // 4,), (N // 2,), (3 * N // 4,), (N,))
    assert np.array_equal(rep.residuals, [1.0, 1.0, 1.0, 1.0, 0.0])
    assert rep.detail["chain"] == _CHAIN


def test_polydisc_detail_reports_block_and_condition():
    f = PolySeries(2, 1, [((2**k, 3**k), [16.0**-k]) for k in range(1, 7)])
    one = PolySeries(2, 1, [((0, 0), [1.0])])
    rep = orbit_project_polydisc(f, one, (32, 27))
    assert rep.residual_final > 0
    assert rep.detail["block"] == _g_block(*_loop_poly_system(f, one, (32, 27)))
    assert 0 < rep.detail["accepted_directions"] <= rep.detail["block"][1]
    assert np.isfinite(rep.gram_condition) and rep.gram_condition >= 1.0, (
        rep.gram_condition)


def test_one_in_orbit_check_scalar_only():
    f = PolySeries(1, 2, [((0,), [1.0, 0.0]), ((2,), [0.0, 1.0])])
    with pytest.raises(ValueError, match="scalar"):
        one_in_orbit_check(f, (4,))


def test_one_in_orbit_small_example():
    # f = 1 + c z^2: S*^2 f = c, so 1 is in the orbit span exactly
    f = PolySeries(1, 1, [((0,), [1.0]), ((2,), [0.5])])
    assert one_in_orbit_check(f, (2,), threshold=1e-8)


# -- tail diagnostics ---------------------------------------------------------


def test_lemma13_terms_oracle():
    # ||a_k||^2 = 2^{-k}: each term equals tail/tail = 1 up to truncation
    K = 24
    f = scalar_series([2**k for k in range(1, K + 1)],
                      [2.0 ** (-k / 2.0) for k in range(1, K + 1)])
    td = tail_diagnostics(f)
    # away from the truncated end the terms are within 1% of 1
    assert np.allclose(td.lemma13_terms[: K - 8], 1.0, rtol=0.01)
    assert td.lemma13_partial[-1] > td.lemma13_partial[0]


def test_tail_diagnostics_rejects_an_underflowing_tail():
    # 1e-170 is stored, but its squared norm, the last tail, underflows to 0
    f = scalar_series([1, 2, 4], [1.0, 1.0, 1e-170])
    assert len(f) == 3
    with pytest.raises(ValueError, match="zero tail norm"):
        tail_diagnostics(f)


def test_lemma12_partial_sums_cauchy():
    f = dyadic_scalar(K=20)
    td = tail_diagnostics(f)
    for p, sums in td.lemma12_partial.items():
        total = sums[-1]
        if total == 0:
            continue
        inc = total - sums[3 * len(sums) // 4]
        assert inc < 0.01 * total, (p, inc, total)


def _loop_tail_sums(f, h):
    """Reference double sums and pairings of one probe by a loop over term
    pairs, one coefficient lookup each."""
    b = np.sum(np.abs(f.coeffs) ** 2, axis=1)
    K = len(f) - 1
    s, w = np.zeros(K), np.zeros(K)
    for k in range(K):
        tot, pair = 0.0, 0.0 + 0.0j
        for l in range(k + 1, len(f)):
            hc = h.coefficient(int(f.exponents[l] - f.exponents[k]))
            tot += float(np.sum(np.abs(hc) ** 2))
            pair += np.vdot(hc, f.coeffs[l])
        s[k] = tot
        w[k] = abs(pair) / np.sqrt(b[k])
    return np.cumsum(s), w


@pytest.mark.parametrize("case", ["criterion_7", "dyadic", "vector", "given_probes"])
def test_tail_diagnostics_matches_loop_oracle(case):
    rng = np.random.default_rng(7)
    probes = None
    if case == "criterion_7":
        f = scalar_series([2**k for k in range(63)], [2.0 ** (-k / 2.0) for k in range(63)])
    elif case == "dyadic":
        f = dyadic_scalar(K=20)
    else:
        exps = np.unique(rng.integers(0, 60, 12))
        f = VectorSeries(3, exps, rng.standard_normal((len(exps), 3))
                         + 1j * rng.standard_normal((len(exps), 3)))
        if case == "given_probes":
            # a zero probe, one above every difference and a dense one
            probes = [_zero(3), VectorSeries(3, [500], np.ones((1, 3))),
                      VectorSeries(3, range(60), rng.standard_normal((60, 3)))]
    td = tail_diagnostics(f, probes)
    assert len(td.probes) >= 3
    for pi, h in enumerate(td.probes):
        s, w = _loop_tail_sums(f, h)
        assert td.lemma12_partial[pi].tobytes() == s.tobytes(), (case, pi)
        assert td.weak_pairings[pi].tobytes() == w.tobytes(), (case, pi)


def test_tail_diagnostics_needs_three_terms():
    with pytest.raises(ValueError):
        tail_diagnostics(scalar_series([1, 2], [1.0, 1.0]))
