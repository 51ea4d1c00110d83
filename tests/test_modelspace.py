import numpy as np
import pytest

from cyclica import (
    MatrixPolynomial,
    PotapovProduct,
    VectorSeries,
    factorize_Ep,
    kernel_dim_theta0star,
    synthesize_from_vectors,
    verify_potapov,
)
from cyclica.core import Tolerances, backward_shift
from cyclica.modelspace import (
    DegenerateInputError,
    NotCyclicGeneratorError,
    _orbit_matrix,
    _theta_columns,
    model_space_basis,
)


def _phase_free(x, y, atol=1e-9):
    """Equality of unit vectors up to a unimodular phase."""
    return abs(abs(np.vdot(x, y)) - 1.0) < atol


# -- MatrixPolynomial ---------------------------------------------------------


def test_blaschke_factor_evaluation():
    th = MatrixPolynomial.blaschke_factor([0.0, 1.0])
    # at z: (1-P) + zP with P = e2 projection
    m = th(0.5)
    assert np.allclose(m, np.diag([1.0, 0.5]))


def test_matmul_convolution_oracle():
    a = MatrixPolynomial.blaschke_factor([1.0, 0.0])
    b = MatrixPolynomial.blaschke_factor([1.0, 0.0])
    prod = a @ b
    # ((1-P) + zP)^2 = (1-P) + z^2 P for a projection P
    assert prod.degree == 2
    assert np.allclose(prod(0.3), np.diag([0.3**2, 1.0]))


def test_array_call_matches_point_calls_bit_for_bit(rng):
    # an array of points evaluates each one by the same power accumulation
    # as a loop in Python complex arithmetic
    c = rng.standard_normal((7, 3, 3)) + 1j * rng.standard_normal((7, 3, 3))
    th = MatrixPolynomial(3, c)
    zs = 0.9 * np.exp(2j * np.pi * rng.uniform(size=40))
    values = th(zs)
    assert values.shape == (40, 3, 3)
    for z, v in zip(zs, values):
        ref, zp = np.zeros((3, 3), dtype=complex), 1.0 + 0.0j
        for m in range(7):
            ref += c[m] * zp
            zp *= complex(z)
        assert np.array_equal(v, ref) and np.array_equal(th(z), ref)


def test_trailing_zero_trim():
    c = np.zeros((3, 2, 2), dtype=complex)
    c[0] = np.eye(2)
    assert MatrixPolynomial(2, c).degree == 0


# -- the hand example ---------------------------------------------------------


def test_factorize_hand_example():
    # p = e1 + z e2: first extracted (leftmost) factor is e2, then (e1+e2)/sqrt 2
    p = VectorSeries(2, [0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]))
    pp = factorize_Ep(p)
    assert pp.n_factors == 2
    assert _phase_free(pp.factors[0], np.array([0.0, 1.0]))
    assert _phase_free(pp.factors[1], np.array([1.0, 1.0]) / np.sqrt(2))
    rep = verify_potapov(pp, generator=p)
    assert rep["all_ok"], rep
    assert rep["kernel_dim_theta0star"] == 1
    # det Theta = gamma z^2
    assert abs(rep["det_gamma"]) == pytest.approx(1.0, abs=1e-10)


def test_scalar_polynomial_gives_pure_monomial_theta():
    # d = 1, p = 1 + z: Theta = z^2 up to phase
    p = VectorSeries(1, [0, 1], np.array([[1.0], [1.0]]))
    pp = factorize_Ep(p)
    th = pp.assembled
    assert th.degree == 2
    assert abs(th(0.5)[0, 0] - 0.25) < 1e-12


def test_model_space_dim_equals_n_factors():
    p = VectorSeries(2, [0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]))
    pp = factorize_Ep(p)
    K = model_space_basis(pp)
    assert K.shape[1] == pp.n_factors


def test_kernel_dim_theta0star_cases():
    pp = PotapovProduct(2, [np.array([0.0, 1.0])])
    assert kernel_dim_theta0star(pp.assembled) == 1
    # the zero-constant extreme: Theta = z I has full kernel
    zI = MatrixPolynomial(2, np.stack([np.zeros((2, 2)), np.eye(2)]).astype(complex))
    assert kernel_dim_theta0star(zI) == 2


# -- degenerate inputs --------------------------------------------------------


def test_factorize_rejects_zero():
    with pytest.raises(DegenerateInputError):
        factorize_Ep(VectorSeries(2, [], np.zeros((0, 2))))


def test_factorize_zero_constant_term():
    # p = z + z^2: orbit is triangular in the leading coefficient, hence
    # independent even without a constant term, and the product verifies
    p = VectorSeries(1, [1, 2], np.array([[1.0], [1.0]]))
    pp = factorize_Ep(p)
    assert pp.n_factors == 3
    assert verify_potapov(pp, generator=p)["all_ok"]


def test_randomized_factorizations_verify(rng):
    passed = 0
    for trial in range(25):
        d = int(rng.integers(1, 4))
        N = int(rng.integers(1, 5))
        coeffs = rng.standard_normal((N + 1, d)) + 1j * rng.standard_normal((N + 1, d))
        p = VectorSeries(d, list(range(N + 1)), coeffs)
        try:
            pp = factorize_Ep(p)
        except (DegenerateInputError, NotCyclicGeneratorError):
            continue
        rep = verify_potapov(pp, generator=p, seed=trial)
        assert rep["all_ok"], (trial, d, N, rep)
        assert pp.n_factors == N + 1
        passed += 1
    assert passed >= 20  # random polynomials are almost surely generic


# -- synthesis round trip -----------------------------------------------------


def test_synthesize_round_trip():
    vectors = [np.array([0.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2)]
    pp, gen = synthesize_from_vectors(vectors, seed=5)
    rep = verify_potapov(pp, generator=gen)
    assert rep["all_ok"], rep
    pp2 = factorize_Ep(gen)
    K1 = model_space_basis(pp)
    K2 = model_space_basis(pp2)
    defect = np.linalg.norm(K1 - K2 @ (K2.conj().T @ K1), 2)
    assert defect < 1e-7


def test_synthesize_rejects_nondegenerate_theta0():
    # orthogonal factor vectors: Theta(0) = (1-P1)(1-P2) has a 2-dim kernel
    with pytest.raises(ValueError, match="nesting"):
        synthesize_from_vectors([np.array([1.0, 0.0]), np.array([0.0, 1.0])])


# -- index-built matrices against explicit loops --------------------------------


def _loop_orbit(p, N):
    """[S*^n p : 0 <= n <= N] by repeated backward shifts and stacking."""
    cols, q = [], p
    for _ in range(N + 1):
        v = np.zeros((N + 1) * p.dim, dtype=complex)
        for e, a in zip(q.exponents, q.coeffs):
            v[e * p.dim : (e + 1) * p.dim] = a
        cols.append(v)
        q = backward_shift(q, 1)
    return np.column_stack(cols)


def _loop_theta_columns(T, N):
    """Truncations of Theta z^j v, one column j*d + v at a time."""
    d = T.shape[1]
    cols = []
    for j in range(N + 1):
        for v in range(d):
            w = np.zeros((N + 1) * d, dtype=complex)
            for t in range(j, min(N + 1, j + T.shape[0])):
                w[t * d : (t + 1) * d] = T[t - j][:, v]
            cols.append(w)
    return np.column_stack(cols)


DN = [(1, 0), (1, 3), (2, 1), (2, 4), (3, 2), (3, 6), (4, 5)]


@pytest.mark.parametrize("d,N", DN)
def test_orbit_matrix_matches_backward_shift_stacking(d, N, rng):
    for exps in (range(N + 1), range(1, N + 1), range(0, N + 1, 2)):
        exps = list(exps)
        p = VectorSeries(d, exps, rng.standard_normal((len(exps), d))
                         + 1j * rng.standard_normal((len(exps), d)))
        assert np.array_equal(_orbit_matrix(p, N), _loop_orbit(p, N))
        # a larger stacking degree pads every column with zero blocks
        assert np.array_equal(_orbit_matrix(p, N + 2), _loop_orbit(p, N + 2))
    with pytest.raises(ValueError, match="stacking degree"):
        _orbit_matrix(VectorSeries(d, [N + 1], np.ones((1, d))), N)


@pytest.mark.parametrize("d,N", DN)
def test_theta_columns_match_loop(d, N, rng):
    # Theta shorter than, as long as and longer than the truncation degree
    for M in (0, N, N + 3):
        T = rng.standard_normal((M + 1, d, d)) + 1j * rng.standard_normal((M + 1, d, d))
        assert np.array_equal(_theta_columns(T, N), _loop_theta_columns(T, N))


def test_verify_rejects_generator_of_empty_product():
    # Theta = I has K_Theta = {0}; a nonzero constant cannot generate it
    pp = PotapovProduct(2, [])
    with pytest.raises(ValueError, match="stacking degree"):
        verify_potapov(pp, generator=VectorSeries(2, [0], np.array([[1.0, 2.0]])))
    # the degree check is the same one that rejects a too-long generator
    pp1 = PotapovProduct(2, [np.array([1.0, 0.0])])
    with pytest.raises(ValueError, match="stacking degree"):
        verify_potapov(pp1, generator=VectorSeries(2, [1], np.array([[1.0, 2.0]])))


# -- one-SVD peeling against the re-orthonormalizing loop ----------------------


def _orth(m, tol_rank):
    """Orthonormal basis of the column span with a relative SVD cutoff."""
    if m.size == 0:
        return m
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0:
        return u[:, :0]
    return u[:, s >= tol_rank * s[0]]


def _orth_complement(v):
    """Orthonormal basis of the orthocomplement of a unit vector v."""
    n = v.shape[0]
    m = np.eye(n, dtype=complex) - np.outer(v, v.conj()) / np.vdot(v, v)
    u, s, _ = np.linalg.svd(m)
    return u[:, : n - 1]


def _loop_factorize(p, tol=Tolerances()):
    """Peeling with three SVDs a stage: the constants by an SVD of the
    degree >= 1 part, their complement by an SVD of a projector, and the
    deflated span re-orthonormalized by a third."""
    if p.is_zero:
        raise DegenerateInputError("zero polynomial")
    d, N = p.dim, int(p.exponents[-1])
    u, s, _ = np.linalg.svd(_orbit_matrix(p, N), full_matrices=False)
    if s[-1] < tol.tol_rank * s[0]:
        raise DegenerateInputError("dependent orbit")
    B = u[:, s >= tol.tol_rank * s[0]]
    factors = []
    for _ in range(N + 1):
        r = B.shape[1]
        H = B[d:, :]
        if H.shape[0]:
            _, sv, vh = np.linalg.svd(H, full_matrices=True)
            small = sv <= tol.tol_rank * max(float(sv[0]) if sv.size else 0.0, 1.0)
            if int(np.sum(small)) + (r - len(sv)) != 1:
                raise NotCyclicGeneratorError("constants space is not a line")
            cvec = vh.conj().T[:, r - 1]
        else:
            if r != 1:
                raise NotCyclicGeneratorError("constants space is not a line")
            cvec = np.ones(1, dtype=complex)
        e = (B @ cvec)[:d]
        e = e / np.linalg.norm(e)
        factors.append(e)
        if r == 1:
            break
        G = (B @ _orth_complement(cvec)).T.reshape(r - 1, N + 1, d)
        PG = (np.outer(e, e.conj()) @ G[..., None])[..., 0]
        G = G - PG
        G[:, :-1] += PG[:, 1:]
        B = _orth(G.reshape(r - 1, -1).T, tol.tol_rank)
        if B.shape[1] != r - 1:
            raise NotCyclicGeneratorError("deflation changed the dimension")
    return PotapovProduct(d, factors)


def _loop_nesting_margin(pp):
    """Smallest singular value of the partial product on the complement of
    the last factor, that complement taken from the projector's SVD."""
    d = pp.dim
    if pp.n_factors < 2:
        return 1.0
    A = np.eye(d, dtype=complex)
    for x in pp.factors[:-1]:
        A = A @ (np.eye(d) - np.outer(x, x.conj()))
    sv = np.linalg.svd(A @ _orth_complement(pp.factors[-1]), compute_uv=False)
    return float(sv[-1]) if sv.size else 1.0


def _loop_orbit_orthogonality(pp, p):
    """Largest |<w, o>| over Theta columns w and orbit columns o, one vdot
    per pair."""
    n = pp.n_factors
    W = _theta_columns(pp.assembled.coeffs, n - 1).T.copy()
    cols = _orbit_matrix(p, n - 1).T.copy()
    return float(max((abs(np.vdot(w, o)) for w in W for o in cols), default=0.0))


@pytest.mark.parametrize("d,N", [(1, 0), (3, 6), (4, 12)])
def test_factorize_takes_one_svd_per_stage(d, N, rng, monkeypatch):
    # one SVD of the orbit, one per stage for N >= 1, none at N = 0
    p = VectorSeries(d, range(N + 1), rng.standard_normal((N + 1, d))
                     + 1j * rng.standard_normal((N + 1, d)))
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    assert factorize_Ep(p).n_factors == N + 1
    assert len(calls) == (N + 2 if N else 1)


def _outcome(factorize, p):
    try:
        return factorize(p)
    except (DegenerateInputError, NotCyclicGeneratorError) as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(4))
def test_one_svd_peeling_matches_loop_oracle(seed):
    # draws of d 1-4 and N 0-10 with coefficient rows scaled by 10^(+-3),
    # the first of each seed a constant and the second scalar.  Factors are
    # equal up to phase within 1e-12 and every verify_potapov boolean is
    # identical.  Fields of Theta alone agree within 1e-13 absolute.  What
    # depends on the orbit is only as accurate as its conditioning allows
    # (both sides reach model_space_defect 2e-11 on some draws): Theta within
    # 1e-10 relative (Frobenius), model_space_defect within 1e-10 absolute,
    # and the orbit orthogonality defect within 1e-10 times the largest
    # coefficient modulus, as it scales with the orbit.  The largest seen
    # over 1,200 such draws: 1.4e-11, 1.2e-11 and 4.1e-12
    tol = Tolerances()
    rng = np.random.default_rng(100 + seed)
    factored = 0
    for trial in range(30):
        d = 1 if trial == 1 else int(rng.integers(1, 5))
        N = 0 if trial == 0 else int(rng.integers(0, 11))
        c = rng.standard_normal((N + 1, d)) + 1j * rng.standard_normal((N + 1, d))
        c *= 10.0 ** rng.uniform(-3, 3, size=(N + 1, 1))
        p = VectorSeries(d, range(N + 1), c)
        new, old = _outcome(factorize_Ep, p), _outcome(_loop_factorize, p)
        if isinstance(old, type):
            assert new is old, (trial, d, N, new, old)
            continue
        factored += 1
        assert new.n_factors == old.n_factors == N + 1
        for x, y in zip(new.factors, old.factors):
            assert _phase_free(x, y, atol=1e-12), (trial, d, N)
        tn, to = new.assembled.coeffs, old.assembled.coeffs
        assert tn.shape == to.shape
        assert np.linalg.norm(tn - to) <= 1e-10 * np.linalg.norm(to), (trial, d, N)
        rn = verify_potapov(new, seed=trial, tol=tol, generator=p)
        ro = verify_potapov(old, seed=trial, tol=tol, generator=p)
        assert rn.keys() == ro.keys()
        orth_scale = max(1.0, float(np.abs(c).max()))
        bounds = {"model_space_defect": 1e-10,
                  "orbit_orthogonality_defect": 1e-10 * orth_scale}
        for k in rn:
            if isinstance(rn[k], (bool, np.bool_, int)):
                assert rn[k] == ro[k], (trial, d, N, k)
            else:
                bound = bounds.get(k, 1e-13)
                assert abs(rn[k] - ro[k]) <= bound, (trial, d, N, k, rn[k], ro[k])
        # the two rewritten checks against their loops, on the same product
        margin = _loop_nesting_margin(old)
        orth = _loop_orbit_orthogonality(old, p)
        assert abs(ro["nesting_margin"] - margin) <= 1e-12
        assert (margin > tol.tol_rank) == (ro["nesting_margin"] > tol.tol_rank)
        assert abs(ro["orbit_orthogonality_defect"] - orth) <= 1e-12 * orth_scale
        orbit_norm = np.linalg.norm(_orbit_matrix(p, old.n_factors - 1), axis=0).max()
        assert (orth <= 1e-7 * orbit_norm) == ro["orbit_orthogonality_ok"]
    assert factored >= 20


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
def test_orbit_orthogonality_is_scale_free(scale):
    # the orbit scales with the generator, Theta does not: the defect grows
    # with the scale, its verdict must not
    rng = np.random.default_rng(0)
    c = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    p = VectorSeries(3, range(5), scale * c)
    report = verify_potapov(factorize_Ep(p), generator=p)
    assert report["orbit_orthogonality_defect"] <= 1e-13 * scale
    assert report["orbit_orthogonality_ok"] and report["all_ok"], report
