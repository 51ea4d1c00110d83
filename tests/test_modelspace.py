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
from cyclica.core import backward_shift
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
