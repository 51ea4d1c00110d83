from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclica.unions
from cyclica import (
    DcLedger,
    IntegerSpectrum,
    ShiftedSpectrumFamily,
    VectorSeries,
    backward_shift,
    construct_prescribed_spectra,
    cyclicity_single,
    dc_checks,
    multiplier_reduce,
    necessary_condition,
    scalar_series,
    shifted_stack_cyclicity,
    stacked_sufficient,
)

from conftest import assert_same_bits, edge_coeffs


def _pair_family(c2=None, K=16):
    """f1 on Lambda = {2^k}, f2 on Lambda + 1, optionally collinear."""
    base = IntegerSpectrum.geometric(2)
    terms = base.terms(K)
    f1 = scalar_series(terms, [2.0**-k for k in range(1, K + 1)])
    if c2 is None:
        c2 = [3.0**-k for k in range(1, K + 1)]
    f2 = scalar_series([t + 1 for t in terms], c2)
    return ShiftedSpectrumFamily(base, (0, 1), (f1, f2))


def test_family_validation():
    base = IntegerSpectrum.geometric(2)
    with pytest.raises(ValueError, match="smallest is 0"):
        ShiftedSpectrumFamily(base, (1, 2), (scalar_series([3], [1.0]),) * 2)
    with pytest.raises(ValueError, match="base"):
        ShiftedSpectrumFamily(base, (0,), (scalar_series([3], [1.0]),))


def test_shifted_stack_cyclic():
    assert bool(shifted_stack_cyclicity(_pair_family()))


def test_shifted_stack_collinear_noncyclic():
    # f2 = shifted copy of f1 up to scale: stacks are collinear
    fam = _pair_family(c2=[2.0 * 2.0**-k for k in range(1, 17)])
    v = shifted_stack_cyclicity(fam)
    assert v.status == "NonCyclic"
    assert v.detail["dim_x_star"] == 1


def _loop_stacked(fam):
    """Reference stacked series: enumerate the base terms up to the largest
    deshifted exponent and look each component up term by term."""
    deshifted = [backward_shift(f, m) for f, m in zip(fam.components, fam.shifts)]
    if fam.base.is_finite:
        base_terms = list(fam.base.values)
    else:
        top = max((int(f.exponents[-1]) for f in deshifted if len(f)), default=0)
        base_terms = []
        for t in fam.base.terms(64):
            if t > top:
                break
            base_terms.append(t)
    coeffs = np.zeros((len(base_terms), fam.dim), dtype=complex)
    for i, f in enumerate(deshifted):
        lookup = {int(e): c[0] for e, c in zip(f.exponents, f.coeffs)}
        for j, n in enumerate(base_terms):
            coeffs[j, i] = lookup.get(n, 0.0)
    return VectorSeries(fam.dim, base_terms, coeffs)


@given(dim=st.integers(1, 3), n_base=st.integers(0, 10), geometric=st.booleans(),
       seed=st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_shifted_stack_matches_loop_oracle(dim, n_base, geometric, seed):
    # components hit random subsets of the base, so some base terms are
    # shared, some hit by one component and some by none; a component may
    # be empty.  The merge sums into zeros, so a -0.0 part of a shared term
    # reads +0.0: coefficients agree bit for bit up to the sign of zero
    rng = np.random.default_rng(seed)
    if geometric:
        base = IntegerSpectrum.geometric(int(rng.integers(2, 4)))
        terms = base.terms(n_base)
    else:
        terms = sorted({int(t) for t in np.cumsum(rng.integers(1, 9, size=n_base))})
        base = IntegerSpectrum.explicit(terms)
    shifts = rng.permutation([0] + [int(m) for m in rng.integers(0, 4, size=dim - 1)])
    comps = []
    for m in shifts:
        hit = [t + m for t in terms if rng.uniform() < 0.7]
        comps.append(VectorSeries(1, hit, edge_coeffs(rng, len(hit))))
    fam = ShiftedSpectrumFamily(base, shifts, comps)
    with mock.patch.object(cyclica.unions, "cyclicity_single",
                           wraps=cyclica.unions.cyclicity_single) as spy:
        verdict = shifted_stack_cyclicity(fam)
    got, want = spy.call_args.args[0], _loop_stacked(fam)
    assert (got.dim, got.truncation_degree) == (want.dim, want.truncation_degree)
    assert got.exponents.tobytes() == want.exponents.tobytes()
    assert (got.coeffs + 0.0).tobytes() == (want.coeffs + 0.0).tobytes()
    assert verdict.to_dict() == cyclicity_single(want).to_dict()


def _loop_multiplier_reduce(f, th):
    """Reference correlation by a loop over terms and multiplier entries."""
    acc = {}
    for e, a in zip(f.exponents, f.coeffs):
        for l, t in enumerate(th):
            if t == 0:
                continue
            j = int(e) - l
            if j >= 0:
                acc[j] = acc.get(j, 0.0) + np.conj(t) * a
    if not acc:
        return VectorSeries(f.dim, [], np.zeros((0, f.dim)), 0)
    exps = sorted(acc)
    coeffs = np.array([acc[j] for j in exps])
    return VectorSeries(f.dim, exps, coeffs, f.truncation_degree)


@given(dim=st.integers(1, 3), n_terms=st.integers(0, 12), degree=st.integers(0, 4),
       slack=st.integers(0, 5), seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_multiplier_reduce_oracle(dim, n_terms, degree, slack, seed):
    # theta = z: output coefficient j is f^(j+1)
    f = scalar_series([0, 2, 5], [1.0, 2.0, 3.0])
    (g,) = multiplier_reduce([f], [[0.0, 1.0]])
    assert list(g.exponents) == [1, 4]
    assert g.coefficient(1) == pytest.approx(2.0)
    # every entry that reaches a nonnegative exponent is a zero multiplier
    # coefficient: the result is empty, truncated at 0
    (h,) = multiplier_reduce([scalar_series([1], [1.0], 5)], [[0.0, 0.0, 1.0]])
    assert_same_bits(h, VectorSeries(1, [], np.zeros((0, 1)), 0))
    # a one-term product that numpy's broadcast complex multiply rounds in
    # the last bit differently from the scalar-times-row product
    f1 = scalar_series([3], [0.06934187709620007 - 0.1295911416404688j])
    th1 = np.array([-0.9212582539956669 + 1.3883938003997314j])
    assert_same_bits(multiplier_reduce([f1], [th1])[0], _loop_multiplier_reduce(f1, th1))
    # the loop oracle on draws: dense exponents make many (e, l) entries
    # share an output exponent; zero multiplier entries, zero components and
    # -0.0 parts are drawn too
    rng = np.random.default_rng(seed)
    exps = np.sort(rng.choice(2 * n_terms + 1, size=n_terms, replace=False))
    trunc = (int(exps[-1]) if n_terms else 0) + slack
    f = VectorSeries(dim, exps, edge_coeffs(rng, (n_terms, dim)), trunc)
    th = edge_coeffs(rng, degree + 1)
    if not np.any(th != 0):
        th[-1] = 1.0  # multipliers must be nonzero
    (g,) = multiplier_reduce([f], [th])
    assert_same_bits(g, _loop_multiplier_reduce(f, th))


def test_multiplier_reduce_conjugates():
    f = scalar_series([1], [1.0 + 0j])
    (g,) = multiplier_reduce([f], [[0.0, 2.0 + 1j]])
    assert g.coefficient(0) == pytest.approx(np.conj(2.0 + 1j))


def test_multiplier_reduce_rejects_zero_multiplier():
    with pytest.raises(ValueError):
        multiplier_reduce([scalar_series([1], [1.0])], [[0.0]])


def test_monomial_multipliers_commute_with_stacking():
    # reducing by z^{m_i} is exactly the deshift the stacking pipeline does,
    # so the verdicts agree on both paths
    fam = _pair_family()
    direct = shifted_stack_cyclicity(fam)
    mono = [np.zeros(m + 1) for m in fam.shifts]
    for v, m in zip(mono, fam.shifts):
        v[m] = 1.0
    reduced = multiplier_reduce(fam.components, mono)
    fam2 = ShiftedSpectrumFamily(fam.base, (0,) * len(fam.shifts), tuple(reduced))
    assert bool(shifted_stack_cyclicity(fam2)) == bool(direct)


def test_stacked_sufficient_certificate():
    fam = _pair_family()
    v = stacked_sufficient(fam.components)
    assert v.status in ("CyclicSufficient", "Inconclusive")
    # the deficient direction is only Inconclusive, never NonCyclic
    collinear = _pair_family(c2=[2.0**-k for k in range(1, 17)])
    w = stacked_sufficient(collinear.components)
    assert w.status == "Inconclusive"


def test_stacked_sufficient_rejects_exponent_below_its_shift():
    # phi_2's exponent 0 lies below its shift 1: there is no base term -1
    with pytest.raises(ValueError, match="nonnegative"):
        stacked_sufficient([scalar_series([1, 4], [1.0, 1.0]),
                            scalar_series([0, 5], [1.0, 2.0])])


def test_stacked_sufficient_never_contradicts_necessary(rng):
    for _ in range(10):
        K = 12
        terms = [2**k for k in range(1, K + 1)]
        f1 = scalar_series(terms, rng.standard_normal(K) + 1j * rng.standard_normal(K))
        f2 = scalar_series([t + 1 for t in terms],
                           rng.standard_normal(K) + 1j * rng.standard_normal(K))
        v = stacked_sufficient([f1, f2])
        if v.status == "CyclicSufficient":
            assert necessary_condition([f1]).status != "NotCyclic"
            assert necessary_condition([f2]).status != "NotCyclic"


def test_construct_prescribed_spectra():
    spectra = [IntegerSpectrum.geometric(2), IntegerSpectrum.geometric(3)]
    stacked, comps, v = construct_prescribed_spectra(spectra, seed=7, horizon=12)
    assert bool(v)
    assert list(comps[0].exponents) == IntegerSpectrum.geometric(2).terms(12)
    assert list(comps[1].exponents) == IntegerSpectrum.geometric(3).terms(12)
    assert isinstance(stacked, VectorSeries) and stacked.dim == 2


def test_construct_rejects_finite_spectra():
    with pytest.raises(ValueError, match="infinite"):
        construct_prescribed_spectra([IntegerSpectrum.explicit([1, 2, 4])])


def test_construct_deterministic():
    spectra = [IntegerSpectrum.geometric(2)]
    a, _, _ = construct_prescribed_spectra(spectra, seed=3, horizon=10)
    b, _, _ = construct_prescribed_spectra(spectra, seed=3, horizon=10)
    assert np.array_equal(a.coeffs, b.coeffs)


# -- dc ledger ----------------------------------------------------------------


def test_dc_checks_all_pass():
    ledger = DcLedger(
        dim=3,
        values={"A": 1, "B": 2, "C": 3},
        subset_relations=(("A", "B"),),
        sum_relations=(("A", "B", "C"),),
    )
    assert all(c["satisfied"] for c in dc_checks(ledger))


def test_dc_checks_flag_violations():
    ledger = DcLedger(
        dim=2,
        values={"A": 1, "B": 0, "C": 2},
        subset_relations=(("A", "B"),),  # 1 <= 0 fails
        sum_relations=(("A", "B", "C"),),  # 2 <= 1 + 0 fails
    )
    out = {c["check"]: c["satisfied"] for c in dc_checks(ledger)}
    assert out["monotonicity"] is False
    assert out["subadditivity"] is False
