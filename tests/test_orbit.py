import itertools

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import get_lapack_funcs

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
from cyclica.core import Tolerances
from cyclica.orbit import (
    _CHAIN,
    _block_system,
    _compressed_system,
    _qr_skipping,
    _solve_levels,
    _target_blocks,
)

from conftest import dyadic_scalar


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


def _disc_system(f, g, n_max):
    """The compressed disc orbit system over the budgets 0..n_max."""
    return _compressed_system(f.exponents[:, None], f.coeffs,
                              g.exponents[:, None], g.coeffs, (n_max,))


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
    # stays.  The factor must equal, up to unimodular row factors, the
    # Householder QR of the kept columns and b.
    U = np.linalg.qr(rng.standard_normal((12, 8))
                     + 1j * rng.standard_normal((12, 8)))[0]
    cols = [U[:, 0], U[:, 1], (U[:, 0] + 1e-10 * U[:, 2]) / np.hypot(1, 1e-10),
            U[:, 3], U[:, 3], (U[:, 1] + 1e-8 * U[:, 4]) / np.hypot(1, 1e-8),
            U[:, 5], U[:, 6]]
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    M = np.column_stack(cols + [b])
    R, keep = _qr_skipping(np.asfortranarray(M), 1e-9)
    assert keep.tolist() == [0, 1, 3, 5, 6, 7]
    oracle = np.linalg.qr(M[:, keep.tolist() + [8]])[1]
    assert np.allclose(np.abs(np.triu(R[:7, :7])), np.abs(oracle), atol=1e-12)


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


def _ill_conditioned_orbit():
    """16^-k at exponents growing by 1.25 (degree 94), and the target z^3:
    the scaled Gram condition is about 1e20, and at budget 96 z^3 lies in
    the orbit span (80-digit arithmetic gives residual 0)."""
    exps = [0]
    while len(exps) < 18:
        exps.append(max(exps[-1] + 1, int(np.ceil(1.25 * exps[-1]))))
    f = scalar_series(exps, [16.0**-k for k in range(len(exps))])
    return f, scalar_series([3], [1.0])


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


def _poly_system(f, g, box):
    """The compressed orbit system `_compressed_system` builds over the box."""
    T, Tg = _exponent_arrays(f, g)
    return _compressed_system(T, f.coeffs, Tg, g.coeffs, box)


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


def _assert_matches_loop(system, A, b, seed=0):
    C, p2, bc, replay = system
    C_ref, p2_ref, bc_ref = _loop_compress(A, b)
    assert C.shape == C_ref.shape
    assert np.array_equal(C.row, C_ref.row) and np.array_equal(C.col, C_ref.col)
    assert np.array_equal(C.data, C_ref.data)
    assert np.array_equal(p2, p2_ref) and np.array_equal(bc, bc_ref)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.shape[1]) + 1j * rng.standard_normal(A.shape[1])
    x[rng.random(A.shape[1]) < 0.25] = 0
    assert replay(x) == np.linalg.norm(A @ x - b)


# residual_final sums the squares of the block's rows only, in another
# order than a replay over every row of A: the two norms may differ in the
# last bits (2 ulp at most over the criterion-8 chains and 300 seeded draws)
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
    """The full-box assembly: `_compressed_system` over every column of the
    box, restricted to g's blocks by `_target_blocks`, its columns levelled
    by a box-sized grid, solved by `_solve_levels` and replayed on every row
    of the orbit matrix."""
    *system, replay = _poly_system(f, g, box)
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
    block, alpha, _ = _block_system(T, f.coeffs, Tg, g.coeffs, box)
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
    assert _ulps(rep.residual_final, final) <= REPLAY_ULPS, (rep.residual_final, final)
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
