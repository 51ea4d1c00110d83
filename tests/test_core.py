import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclica import (
    BlockSeries,
    CrcPointSet,
    CrtSequenceSpec,
    DivisorClosedSet,
    IntegerSpectrum,
    MatrixPolynomial,
    MultiSpectrum,
    PolyDirectionModel,
    PolySeries,
    PotapovProduct,
    ShiftedSpectrumFamily,
    Subspace,
    TailModel,
    Tolerances,
    VectorSeries,
    af_membership,
    backward_shift,
    bounded_block_check,
    bounded_block_family_cyclicity,
    crc_sequence,
    forward_shift,
    inner_product,
    numerical_span,
    poly_backward_shift,
    project_vector,
    psi_reshape,
    residue_crosscheck,
    scalar_series,
    spectrum_admits_SstarN,
    sstarN_cyclicity,
    sstarN_cyclicity_spectral,
    tail_span,
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


# caller -> (field, build, floor): the caller run with x in that integer
# field or argument, its result as a plain value; every one reads it by
# core._index, and a value below the floor (None: no floor) is out of range
_FACTORIAL = IntegerSpectrum.factorial_plus_k()
_GEOMETRIC = IntegerSpectrum.geometric(2)
_LACUNARY = scalar_series([4**k for k in range(1, 9)], np.ones(8))
INTEGER_FIELDS = {
    "VectorSeries.dim": (
        "dim", lambda x: VectorSeries(x, [1], np.ones((1, 3))).coeffs.shape, 1),
    "VectorSeries.exponents": (
        "exponents", lambda x: VectorSeries(1, [1, x], [1, 2]).exponents.tolist(), 0),
    "VectorSeries.truncation_degree": (
        "truncation_degree", lambda x: VectorSeries(1, [1], [1], x).truncation_degree, None),
    "backward_shift": ("n", lambda x: backward_shift(scalar_series([1, 4], [1, 2]), x)
                       .exponents.tolist(), 0),
    "forward_shift": ("n", lambda x: forward_shift(scalar_series([1], [1]), x)
                      .exponents.tolist(), 0),
    "Subspace": ("dim_ambient", lambda x: Subspace(x).dim_ambient, None),
    "MatrixPolynomial": ("dim", lambda x: MatrixPolynomial(x, np.ones((1, 3, 3))).dim, None),
    "PotapovProduct": ("dim", lambda x: PotapovProduct(x, [[1, 0, 0]]).dim, None),
    "TailModel.dim": ("dim", lambda x: TailModel(x, [[1, 0, 0]]).dim, None),
    "TailModel.index": (
        "index", lambda x: TailModel(1, [[1]], [(x, [2])]).transient[0][0], 0),
    "BlockSeries.dim": ("dim", lambda x: BlockSeries(x, 0, [(1, np.ones((1, 3)))]).dim, 1),
    "BlockSeries.block_degree": (
        "block_degree", lambda x: BlockSeries(1, x, [(1, np.ones((4, 1)))]).block_degree, 0),
    "BlockSeries.n": ("n", lambda x: BlockSeries(1, 0, [(x, [[1]])]).blocks[0][0], 0),
    "PolyDirectionModel": (
        "transient_indices", lambda x: PolyDirectionModel([[[1]]], [x]).transient_indices, 0),
    "DivisorClosedSet": ("generators", lambda x: sorted(DivisorClosedSet([x]).closure), 1),
    "PolySeries.poly_dim": (
        "poly_dim", lambda x: PolySeries(x, 1, [((1, 2, 3), [1])]).multi_exponents, 1),
    "PolySeries.dim": ("dim", lambda x: PolySeries(1, x, [((1,), [1, 2, 3])]).dim, 1),
    "PolySeries.multi_exponents": (
        "multi_exponents", lambda x: PolySeries(2, 1, [((1, x), [1])]).multi_exponents, 0),
    "poly_backward_shift": (
        "alpha", lambda x: poly_backward_shift(PolySeries(1, 1, [((5,), [1])]), (x,))
        .multi_exponents, 0),
    "IntegerSpectrum.base": ("base", lambda x: IntegerSpectrum.geometric(x).terms(2), 2),
    "IntegerSpectrum.values": ("values", lambda x: IntegerSpectrum.explicit([1, x]).terms(2), 0),
    "IntegerSpectrum.terms": ("horizon", lambda x: _GEOMETRIC.terms(x), 0),
    "IntegerSpectrum.residues.modulus": ("modulus", lambda x: _GEOMETRIC.residues(x, 4), 1),
    "IntegerSpectrum.residues.horizon": ("horizon", lambda x: _GEOMETRIC.residues(3, x), 0),
    "spectrum_admits_SstarN.N": (
        "N", lambda x: spectrum_admits_SstarN(_FACTORIAL, x).to_dict(), 1),
    "spectrum_admits_SstarN.horizon": (
        "horizon", lambda x: spectrum_admits_SstarN(_FACTORIAL, 2, x).to_dict(), 0),
    "bounded_block_check.N": ("N", lambda x: bounded_block_check(_GEOMETRIC, x, 8, 1.5), 1),
    "bounded_block_check.horizon": (
        "horizon", lambda x: bounded_block_check(_GEOMETRIC, 2, x, 1.5), 0),
    "MultiSpectrum": ("entries", lambda x: MultiSpectrum([(1, x)]).entries, 0),
    "ShiftedSpectrumFamily": (
        "shifts", lambda x: ShiftedSpectrumFamily(
            IntegerSpectrum.explicit([1, 2]), [0, x],
            [scalar_series([1], [1]), scalar_series([4], [1])]).shifts, None),
    "psi_reshape": ("N", lambda x: psi_reshape(_LACUNARY, x).series.exponents.tolist(), 1),
    "sstarN_cyclicity": ("N", lambda x: sstarN_cyclicity(
        scalar_series(_FACTORIAL.terms(8), np.ones(8)), x, spectrum=_FACTORIAL).to_dict(), 1),
    "sstarN_cyclicity_spectral": (
        "N", lambda x: sstarN_cyclicity_spectral(_FACTORIAL, x).to_dict(), 1),
    "residue_crosscheck": ("N", lambda x: residue_crosscheck(_FACTORIAL, x), 1),
    "bounded_block_family_cyclicity": (
        "N", lambda x: bounded_block_family_cyclicity(_LACUNARY, x).to_dict(), 1),
    "af_membership.n_max": ("n_max", lambda x: af_membership(_FACTORIAL, x), 0),
    "af_membership.horizon": ("horizon", lambda x: af_membership(_FACTORIAL, 3, x), 0),
    "CrtSequenceSpec.offsets": (
        "count", lambda x: CrtSequenceSpec(DivisorClosedSet([6])).offsets(x), 0),
    "crc_sequence": ("k", lambda x: crc_sequence(CrcPointSet([[1, 0], [0, 1]]), x).tolist(), 1),
    "tail_span": ("m", lambda x: tail_span(_LACUNARY, x).basis.tolist(), 0),
}


@pytest.mark.parametrize("caller", sorted(INTEGER_FIELDS))
def test_integer_fields_follow_one_rule(caller):
    field, build, low = INTEGER_FIELDS[caller]
    # a float or a bool is never read as the integer below it
    for x in (2.5, 3.0, True):
        with pytest.raises(TypeError, match=f"'{field}' must hold integers"):
            build(x)
    # numpy integers are integers
    assert build(np.int64(3)) == build(3)
    # one below the floor raises, naming the field
    if low is not None:
        with pytest.raises(ValueError, match=f"^{field} must be .*>= {low}\\b"):
            build(low - 1)


@pytest.mark.parametrize("exponents", [
    [2**63], np.array([2**63], dtype=np.uint64), [1, 2**64]])
def test_exponents_outside_int64_rejected(exponents):
    # neither an overflow nor a uint64 wrapped to a negative exponent
    with pytest.raises(ValueError, match="'exponents' must lie below 2\\^63"):
        VectorSeries(1, exponents, np.ones(len(exponents)))


@pytest.mark.parametrize("build", [
    lambda: forward_shift(scalar_series([2**62], [1]), 2**62),
    lambda: forward_shift(scalar_series([1], [1]), 2**63),
    lambda: BlockSeries(1, 1, [(2**63 - 1, [[1], [1]])]),
], ids=["shift-wraps", "shift-overflows", "block-top"])
def test_shifted_exponents_outside_int64_rejected(build):
    # a sum past 2^63 wrapped to a negative exponent, or overflowed
    with pytest.raises(ValueError, match="'exponents' must lie below 2\\^63"):
        build()


def test_shifted_exponents_up_to_int64_max():
    top = 2**63 - 1
    assert forward_shift(scalar_series([1], [1]), top - 1).exponents.tolist() == [top]
    bs = BlockSeries(1, 1, [(top - 1, [[1], [2]])])
    assert bs.to_series().exponents.tolist() == [top - 1, top]


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
