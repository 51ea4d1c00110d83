import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclica import (
    IntegerSpectrum,
    VectorSeries,
    af_membership,
    backward_shift,
    bounded_block_family_cyclicity,
    psi_reshape,
    psi_unreshape,
    residue_crosscheck,
    scalar_series,
)
from cyclica.constructions import CrtSequenceSpec, DivisorClosedSet
from cyclica.multishift import _generic_rank, sstarN_cyclicity, sstarN_cyclicity_spectral

from conftest import assert_same_bits, edge_coeffs, random_series


# -- the reshaping isomorphism ------------------------------------------------


def _loop_psi_reshape(f, N):
    """Reference reshape by a loop over terms, summing into per-block stacks."""
    d = f.dim
    blocks = {}
    for n, a in zip(f.exponents, f.coeffs):
        q, r = divmod(int(n), N)
        v = blocks.setdefault(q, np.zeros(d * N, dtype=complex))
        v[r * d : (r + 1) * d] += a
    exps = sorted(blocks)
    coeffs = np.array([blocks[q] for q in exps], dtype=complex).reshape(len(exps), d * N)
    return VectorSeries(d * N, exps, coeffs, f.truncation_degree // N)


def _loop_psi_unreshape(series, d, N, truncation_degree):
    """Reference inverse by a loop over blocks and slots, restoring the
    original truncation."""
    exps, coeffs = [], []
    for q, v in zip(series.exponents, series.coeffs):
        for r in range(N):
            a = v[r * d : (r + 1) * d]
            if np.any(a != 0):
                exps.append(int(q) * N + r)
                coeffs.append(a)
    if not exps:
        return VectorSeries(d, [], np.zeros((0, d)), truncation_degree)
    return VectorSeries(d, exps, np.array(coeffs), truncation_degree)


@given(dim=st.integers(1, 3), N=st.integers(1, 4), n_terms=st.integers(0, 12),
       slack=st.integers(0, 5), seed=st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_psi_reshape_oracle(dim, N, n_terms, slack, seed):
    f = scalar_series([0, 1, 3], [1.0, 2.0, 3.0])
    rs = psi_reshape(f, 2)
    assert list(rs.series.exponents) == [0, 1]
    assert np.allclose(rs.series.coeffs[0], [1.0, 2.0])
    assert np.allclose(rs.series.coeffs[1], [0.0, 3.0])
    # the loop oracles on draws: exponents below 3 * n_terms put several
    # terms in one block; zero components, -0.0 parts and the empty series
    # are drawn too
    rng = np.random.default_rng(seed)
    exps = np.sort(rng.choice(3 * n_terms + 1, size=n_terms, replace=False))
    coeffs = edge_coeffs(rng, (n_terms, dim))
    f = VectorSeries(dim, exps, coeffs, (int(exps[-1]) if n_terms else 0) + slack)
    rs = psi_reshape(f, N)
    assert_same_bits(rs.series, _loop_psi_reshape(f, N))
    assert_same_bits(psi_unreshape(rs),
                     _loop_psi_unreshape(rs.series, dim, N, f.truncation_degree))


@given(N=st.integers(1, 8), seed=st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_psi_isometry_and_roundtrip(N, seed):
    f = random_series(np.random.default_rng(seed), dim=2, lacunary=False)
    rs = psi_reshape(f, N)
    assert rs.series.norm() == pytest.approx(f.norm(), abs=1e-12)
    back = psi_unreshape(rs)
    assert list(back.exponents) == list(f.exponents)
    assert np.allclose(back.coeffs, f.coeffs)


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_psi_round_trip_keeps_truncation(N):
    # floor(4 / 2) = 2 marks slots up to exponent 5 as trusted; the round
    # trip must still return truncation 4, and the reshaped one stays floor
    f = scalar_series([1, 3], [1.0, 2.0], 4)
    rs = psi_reshape(f, N)
    assert rs.series.truncation_degree == 4 // N
    assert_same_bits(psi_unreshape(rs), f)
    empty = VectorSeries(2, [], np.zeros((0, 2)), 7)
    assert_same_bits(psi_unreshape(psi_reshape(empty, N)), empty)


@given(N=st.integers(1, 6), seed=st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_psi_intertwines_powers(N, seed):
    # Psi_N(S*^N f) = S*(Psi_N f) exactly on coefficients
    f = random_series(np.random.default_rng(seed), dim=2, lacunary=False)
    a = psi_reshape(backward_shift(f, N), N).series
    b = backward_shift(psi_reshape(f, N).series, 1)
    assert list(a.exponents) == list(b.exponents)
    assert np.allclose(a.coeffs, b.coeffs)


# -- N-th power verdicts ------------------------------------------------------


def test_factorial_proven_via_spectrum():
    f = scalar_series([3, 8, 27], [1.0, 1.0, 1.0])
    v = sstarN_cyclicity(f, 5, spectrum=IntegerSpectrum.factorial_plus_k())
    assert v.status == "Cyclic" and v.mode == "proven"


def test_geometric2_not_sstar2_cyclic():
    s = IntegerSpectrum.geometric(2)
    f = scalar_series(s.terms(12), np.ones(12))
    v = sstarN_cyclicity(f, 2, spectrum=s)
    assert v.status == "NonCyclic"


def test_declared_spectrum_must_match_the_series():
    # 4, 8, ..., 2^13 is not (k+1)! + k: the residue route reads only the
    # spectrum, so a wrong one would prove f cyclic
    f = scalar_series([2 ** (k + 1) for k in range(1, 13)], np.ones(12))
    assert not sstarN_cyclicity(f, 2)
    with pytest.raises(ValueError, match="declared spectrum"):
        sstarN_cyclicity(f, 2, spectrum=IntegerSpectrum.factorial_plus_k())


def test_reshaped_window_path():
    # explicit residue-covering spectrum handled without a generator
    exps = [3, 4, 9, 16, 33, 64, 129, 256, 513, 1024]
    f = scalar_series(exps, np.ones(len(exps)))
    assert bool(sstarN_cyclicity(f, 2))


def test_dense_spectrum_rejected():
    f = scalar_series(list(range(1, 40)), np.ones(39))
    with pytest.raises(ValueError, match="block"):
        sstarN_cyclicity(f, 3)


def test_spectral_path_matches_residue_criterion():
    assert residue_crosscheck(IntegerSpectrum.geometric(2), 2)
    assert residue_crosscheck(IntegerSpectrum.geometric(2), 3)
    assert residue_crosscheck(IntegerSpectrum.factorial_plus_k(), 4)


def test_spectral_path_merges_shared_blocks():
    # geometric(2) mod 6: exponents 2 and 4 share block 0; the exact block
    # keys must merge them instead of inventing distinct stacks
    v = sstarN_cyclicity_spectral(IntegerSpectrum.geometric(2), 6)
    assert v.status == "NonCyclic"


@pytest.mark.parametrize("seed", range(8))
def test_residue_crosscheck_randomized(seed):
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        s = IntegerSpectrum.geometric(int(rng.integers(2, 6)))
    elif kind == 1:
        s = IntegerSpectrum.factorial_plus_k()
    else:
        s = IntegerSpectrum.crt(CrtSequenceSpec(DivisorClosedSet([int(rng.integers(2, 9))])))
    N = int(rng.integers(1, 7))
    assert residue_crosscheck(s, N, seed=seed)


@given(N=st.integers(1, 6), seed=st.integers(0, 10**6), n_rows=st.integers(0, 20))
@settings(max_examples=200, deadline=None)
def test_last_window_matching_decides_all_windows(N, seed, n_rows):
    # a maximum matching cannot grow when rows are deleted, so the last
    # window's generic rank decides whether every window is full
    rng = np.random.default_rng(seed)
    pattern = np.zeros((n_rows, N), dtype=bool)
    for row in pattern:
        row[rng.choice(N, size=int(rng.integers(1, N + 1)), replace=False)] = True
    every_window = all(
        _generic_rank(pattern[m:]) == N for m in range(n_rows // 2 + 1)
    )
    assert every_window == (_generic_rank(pattern[n_rows // 2:]) == N)


def test_spectral_path_is_exported():
    import cyclica

    assert cyclica.sstarN_cyclicity_spectral is sstarN_cyclicity_spectral


# -- A(f) ---------------------------------------------------------------------


def test_af_membership_oracle():
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    s = IntegerSpectrum.crt(spec)
    assert af_membership(s, 8) == {1, 2, 3, 4, 6}


def test_af_membership_divisor_closed():
    s = IntegerSpectrum.factorial_plus_k()
    out = af_membership(s, 10)
    assert out == set(range(1, 11))
    for N in out:
        assert all(m in out for m in range(1, N + 1) if N % m == 0)


# -- stacked family criterion -------------------------------------------------


def _straddling_pair(K=12):
    es, cs = [], []
    for k in range(1, K + 1):
        es.append(2**k - 1)
        cs.append([2.0**-k, 0.0])
        es.append(2**k)
        cs.append([0.0, 2.0**-k])
    return VectorSeries(2, es, np.array(cs))


def test_family_criterion_noncyclic_pair():
    # blocks straddle the width-2 cells; the stacked spans only reach rank 3
    F = _straddling_pair()
    v = bounded_block_family_cyclicity(F, 2)
    assert v.status == "NonCyclic"
    assert v.detail["dim_tail_span"] == 3
    assert v.detail["dim"] == 4


def test_family_criterion_cyclic_generic(rng):
    es, cs = [], []
    for k in range(1, 13):
        es.append(2**k - 1)
        cs.append(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        es.append(2**k)
        cs.append(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    F = VectorSeries(2, es, np.array(cs))
    assert bool(bounded_block_family_cyclicity(F, 2))


def test_family_criterion_rejects_dense():
    f = scalar_series(list(range(1, 60)), np.ones(59))
    with pytest.raises(ValueError, match="block"):
        bounded_block_family_cyclicity(f, 2)


@pytest.mark.parametrize("N", [0, -1])
def test_family_criterion_rejects_nonpositive_power(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        bounded_block_family_cyclicity(_straddling_pair(), N)


def test_family_criterion_on_an_empty_enumeration():
    # no member stores a term: NonCyclic at witness 0, as sstarN_cyclicity
    f = VectorSeries(2, [], np.zeros((0, 2)))
    v = bounded_block_family_cyclicity([f], 2)
    assert (v.status, v.mode, v.witness) == ("NonCyclic", "at-horizon", 0)
    assert v.detail == {"reason": "empty enumeration"}
    assert v.to_dict() == sstarN_cyclicity(f, 2).to_dict()
