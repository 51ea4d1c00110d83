import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclica import (
    Subspace,
    Tolerances,
    VectorSeries,
    backward_shift,
    forward_shift,
    inner_product,
    numerical_span,
    project_vector,
    scalar_series,
)

from cyclica.core import first_proper_tail

from conftest import random_series


# -- VectorSeries construction ------------------------------------------------


def test_duplicate_exponents_are_merged():
    f = VectorSeries(1, [3, 3, 5], np.array([[1.0], [2.0], [4.0]]))
    assert list(f.exponents) == [3, 5]
    assert f.coefficient(3) == pytest.approx(3.0)


def test_zero_coefficients_are_dropped():
    f = VectorSeries(2, [0, 1, 2], np.array([[1, 0], [0, 0], [0, 1]], dtype=float))
    assert list(f.exponents) == [0, 2]
    assert len(f) == 2


def test_tiny_coefficients_are_kept():
    # the row norm of 1e-170 underflows to 0, the coefficient does not
    f = VectorSeries(1, [1], [1e-170])
    assert list(f.exponents) == [1] and f.coeffs[0, 0] == 1e-170
    g = VectorSeries(2, [0, 3], np.array([[0.0, 1e-200j], [0.0, 0.0]]))
    assert list(g.exponents) == [0]


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        scalar_series([-1, 2], [1.0, 1.0])


def test_nonfinite_coefficient_rejected():
    with pytest.raises(ValueError):
        scalar_series([0, 1], [1.0, np.nan])


def test_coefficient_lookup_missing_is_zero():
    f = scalar_series([1, 4], [1.0, 2.0])
    assert np.all(f.coefficient(3) == 0)


def test_norm_oracle():
    # sqrt(1 + 4 + 9) computed by hand
    f = scalar_series([1, 2, 4], [1.0, 2.0, 3.0])
    assert f.norm() == pytest.approx(np.sqrt(14.0))


def test_inner_product_oracle():
    # only the shared exponent 4 contributes: conj-linear in the second slot
    f = scalar_series([1, 4], [1.0, 2.0 + 1j])
    g = scalar_series([4, 9], [3.0 - 1j, 5.0])
    assert inner_product(f, g) == pytest.approx((2.0 + 1j) * np.conj(3.0 - 1j))


# -- shifts -------------------------------------------------------------------


def test_backward_shift_oracle():
    f = scalar_series([0, 1, 5], [7.0, 2.0, 3.0])
    g = backward_shift(f)
    assert list(g.exponents) == [0, 4]
    assert g.coefficient(0) == pytest.approx(2.0)


def test_forward_shift_isometry(rng):
    f = random_series(rng, dim=3)
    for n in (1, 2, 7):
        assert forward_shift(f, n).norm() == pytest.approx(f.norm())


def test_backward_shift_contraction(rng):
    f = random_series(rng, dim=2, lacunary=False)
    norms = [backward_shift(f, n).norm() for n in range(5)]
    assert all(m <= f.norm() + 1e-12 for m in norms)


def test_shift_adjointness(rng):
    # <S f, g> = <f, S* g> on truncations
    f = random_series(rng, dim=2)
    g = random_series(rng, dim=2, lacunary=False)
    lhs = inner_product(forward_shift(f), g)
    rhs = inner_product(f, backward_shift(g))
    assert lhs == pytest.approx(rhs)


@given(n=st.integers(0, 6), m=st.integers(0, 6), seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_backward_shift_semigroup(n, m, seed):
    f = random_series(np.random.default_rng(seed), dim=2, lacunary=False)
    a = backward_shift(backward_shift(f, n), m)
    b = backward_shift(f, n + m)
    assert list(a.exponents) == list(b.exponents)
    assert np.allclose(a.coeffs, b.coeffs)


# -- spans and projections ----------------------------------------------------


def test_numerical_span_rank():
    vecs = [np.array([1.0, 0, 0]), np.array([1.0, 1e-14, 0]), np.array([0, 0, 2.0])]
    s = numerical_span(vecs)
    assert s.dim == 2
    assert not s.is_full


def test_numerical_span_permutation_invariance(rng):
    vecs = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(6)]
    a = numerical_span(vecs)
    b = numerical_span(vecs[::-1])
    # the same subspace: equal orthogonal projectors
    Pa, Pb = (s.basis @ s.basis.conj().T for s in (a, b))
    assert np.linalg.norm(Pa - Pb, 2) < 1e-8


def test_project_vector_idempotent_selfadjoint(rng):
    vecs = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
    s = numerical_span(vecs)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    pv = project_vector(v, s)
    assert np.linalg.norm(project_vector(pv, s) - pv) < 1e-12
    assert np.vdot(w, pv) == pytest.approx(np.vdot(project_vector(w, s), v), abs=1e-12)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(tol_rank=0.0)
    with pytest.raises(ValueError):
        Tolerances(tol_orth=2.0)


def test_empty_span_has_dim_zero():
    s = numerical_span([np.zeros(3)])
    assert s.dim == 0
    assert isinstance(s, Subspace)


def test_span_of_no_rows_is_the_zero_subspace():
    s = numerical_span(np.zeros((0, 3)))
    assert (s.dim_ambient, s.dim) == (3, 0)


# a 1-d, ragged or empty list has no second axis to read d from
@pytest.mark.parametrize("rows", [np.ones(3), [np.ones(3), np.ones(2)], [],
                                  [[1.0, np.nan]]])
def test_span_rejects_malformed_rows(rows):
    with pytest.raises(ValueError):
        numerical_span(rows)
    with pytest.raises(ValueError):
        first_proper_tail(rows, Tolerances(), [0])


# -- nested tail spans --------------------------------------------------------


def _window_ranks(rows, dim, tol, starts):
    """Every window's rank by a linear scan under first_proper_tail's rule:
    numerical_span for the last window, unit rows and the cutoff tol_rank
    for the others."""
    ranks = []
    for s in starts[:-1]:
        unit = [r / np.linalg.norm(r) for r in rows[s:] if np.any(r != 0)]
        sv = np.linalg.svd(np.array(unit), compute_uv=False) if unit else []
        ranks.append(int(np.sum(np.asarray(sv) >= tol.tol_rank)))
    last = rows[starts[-1]:]
    return ranks + [numerical_span(list(last), tol).dim if len(last) else 0]


def _nested_rows(rng, dim, n):
    """Rows with norms over 28 decades, some zero, that drop to a random
    subspace (possibly zero) from a random position on."""
    rows = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    rows *= 10.0 ** rng.uniform(-14, 14, size=(n, 1)) * (rng.uniform(size=(n, 1)) > 0.1)
    cut = int(rng.integers(0, n + 1))
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, : rng.integers(0, dim + 1)]
    rows[cut:] = rows[cut:] @ basis @ basis.T
    return rows


@given(seed=st.integers(0, 10**6), dim=st.integers(1, 5), n=st.integers(0, 24))
@settings(max_examples=300, deadline=None)
def test_first_proper_tail_matches_linear_scan(seed, dim, n):
    rng = np.random.default_rng(seed)
    rows = _nested_rows(rng, dim, n)
    starts = sorted(rng.integers(0, n + 1, size=int(rng.integers(1, 8))))
    tol = Tolerances()
    ranks = _window_ranks(rows, dim, tol, starts)
    hit = first_proper_tail(rows, tol, starts)
    if ranks[-1] == dim:
        assert hit is None
        return
    i = next(j for j, r in enumerate(ranks) if r < dim)
    assert hit == (i, ranks[i])
    # windows before the witness are full, the witness and later ones are not
    assert all(r == dim for r in ranks[:i]) and all(r < dim for r in ranks[i:])


def test_first_proper_tail_empty_rows():
    assert first_proper_tail(np.zeros((0, 2)), Tolerances(), [0]) == (0, 0)
    assert first_proper_tail(np.zeros((0, 3)), Tolerances(), [0, 0]) == (0, 0)


def test_first_proper_tail_zero_last_window():
    e1, e2 = np.eye(2)
    rows = [e1, e2, 0 * e1, 0 * e1]
    assert first_proper_tail(rows, Tolerances(), [0, 1, 2, 3]) == (1, 1)
    assert first_proper_tail(rows, Tolerances(), [0, 2, 3]) == (1, 0)
    assert first_proper_tail(np.zeros((4, 2)), Tolerances(), [0, 1, 2]) == (0, 0)


def test_first_proper_tail_fewer_rows_than_dim(rng):
    rows = rng.standard_normal((2, 3))
    assert first_proper_tail(rows, Tolerances(), [0, 1]) == (0, 2)


def test_first_proper_tail_large_early_row_does_not_hide_a_full_tail(rng):
    # a 1e12 leading row would swamp the others under a per-window cutoff;
    # the last window is full, so every tail is
    rows = rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2))
    rows[0] = [1e12, 0.0]
    assert first_proper_tail(rows, Tolerances(), range(7)) is None
