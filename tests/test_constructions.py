import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclica import (
    CrcPointSet,
    CrtSequenceSpec,
    DivisorClosedSet,
    IntegerSpectrum,
    abakumov_weights,
    crc_sequence,
    crt_sequence_value,
    factorial_sequence,
    scalar_series,
)
from cyclica.constructions import (
    PRIME_TABLE_SIZE,
    crt_sequence_residues,
    factorial_residues,
    primes,
)


def test_primes_oracle():
    assert primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_factorial_sequence_oracle():
    assert [factorial_sequence(k) for k in range(1, 5)] == [3, 8, 27, 124]
    assert factorial_sequence(6) == math.factorial(7) + 6


def test_factorial_sequence_overflow_guard():
    with pytest.raises(OverflowError):
        factorial_sequence(20)


@given(k=st.integers(1, 19), N=st.integers(1, 97))
@settings(max_examples=100, deadline=None)
def test_factorial_residue_matches_exact(k, N):
    assert factorial_residues(k, N)[-1] == factorial_sequence(k) % N


def test_factorial_residue_streams_past_overflow():
    # exact evaluation is impossible at k=100, the residue is still cheap
    assert factorial_residues(100, 7)[-1] == (math.factorial(101) + 100) % 7


# -- divisor-closed sets ------------------------------------------------------


def test_closure_oracle():
    assert DivisorClosedSet([4, 6]).closure == frozenset({1, 2, 3, 4, 6})


@given(gens=st.sets(st.integers(1, 60), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_closure_idempotent(gens):
    once = DivisorClosedSet(gens).closure
    twice = DivisorClosedSet(once).closure
    assert once == twice


def test_closure_contains_one_and_generators():
    a = DivisorClosedSet([12])
    assert 1 in a.closure
    assert 12 in a.closure
    assert a.closure == frozenset({1, 2, 3, 4, 6, 12})


# -- CRT sequence -------------------------------------------------------------


def test_crt_residues_cover_closure_members():
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    for a in sorted(DivisorClosedSet([4, 6]).closure):
        seen = set(crt_sequence_residues(spec, a + 63, a)[a - 1:])  # k = a..a+63
        assert seen == set(range(a)), f"classes mod {a} not all hit"


def test_crt_residues_vanish_outside_closure():
    # for a prime b outside the closure, n_k = 0 (mod b) for large k
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    for b in (5, 7, 11):
        assert crt_sequence_residues(spec, 47, b)[31:] == [0] * 16  # k = 32..47


def test_crt_value_consistent_with_residue():
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    for k in range(1, 10):
        v = crt_sequence_value(spec, k)
        for N in (2, 3, 4, 6, 5):
            assert v % N == crt_sequence_residues(spec, k, N)[-1]


def _iterative_crt_r(spec, k):
    """r_k by pairing k (mod a_k) with 0 (mod b) once per prime b in B_k,
    where a_k = prod_{i<=k} p_i^min(k, alpha_{p_i}) and B_k holds the p_i,
    i <= k, with alpha_{p_i} = 0."""
    alphas = [(p, spec.alpha(p)) for p in primes(k)]
    mod = math.prod(p ** min(k, e) for p, e in alphas)
    res = k % mod
    for b in (p for p, e in alphas if e == 0):
        assert math.gcd(mod, b) == 1
        res = (res + mod * ((0 - res) * pow(mod, -1, b) % b)) % (mod * b)
        mod *= b
    return res


@pytest.mark.parametrize("gens", [[1], [2, 3], [4, 6], [12], [8, 9, 25], [30, 49]])
def test_crt_r_matches_iterative_pairing(gens):
    spec = CrtSequenceSpec(DivisorClosedSet(gens))
    for k in range(1, 65):
        assert spec.r(k) == _iterative_crt_r(spec, k), k


STREAM_GENERATORS = [[1], [2, 3], [4, 6], [12], [8, 9, 25], [30, 49], [64],
                     [2, 3, 5, 7, 11, 13], [1613, 1619]]
STREAM_MODULI = [1, 2, 3, 5, 6, 7, 12, 97, 1024]


@pytest.mark.parametrize("gens", STREAM_GENERATORS)
def test_crt_streams_match_per_index_definitions(gens):
    # offsets and residues in one pass against the pairing of every r_k and
    # the exact n_k = (k+1)! + r_k reduced at the end
    spec = CrtSequenceSpec(DivisorClosedSet(gens))
    K = PRIME_TABLE_SIZE
    oracle = [_iterative_crt_r(spec, k) for k in range(1, K + 1)]
    assert spec.offsets(K) == oracle
    assert spec.offsets(0) == []
    s = IntegerSpectrum.crt(spec)
    exact = [math.factorial(k + 1) + r for k, r in enumerate(oracle, 1)]
    assert s.terms(K) == exact
    for N in STREAM_MODULI:
        assert s.residues(N, K) == [n % N for n in exact], N
    assert crt_sequence_residues(spec, 40, 7) == [n % 7 for n in exact[:40]]


def test_other_streams_match_per_index_definitions():
    K = 256
    factorial = [math.factorial(k + 1) + k for k in range(1, K + 1)]
    explicit = [3, 5, 12, 40, 41, 1000, 2**70 + 1]  # shorter than the horizon
    for N in STREAM_MODULI:
        assert factorial_residues(K, N) == [n % N for n in factorial], N
        assert IntegerSpectrum.factorial_plus_k().residues(N, K) == [
            n % N for n in factorial]
        for base in (2, 3, 10):
            assert IntegerSpectrum.geometric(base).residues(N, K) == [
                base**k % N for k in range(1, K + 1)]
        assert IntegerSpectrum.explicit(explicit).residues(N, K) == [
            n % N for n in explicit]


def test_per_index_forms_are_stream_entries():
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    for k in (1, 2, 17, 256):
        assert spec.r(k) == _iterative_crt_r(spec, k)
        assert crt_sequence_residues(spec, k, 7)[-1] == (
            math.factorial(k + 1) + spec.r(k)) % 7
        assert factorial_residues(k, 7)[-1] == (math.factorial(k + 1) + k) % 7
    with pytest.raises(ValueError, match="prime table"):
        spec.offsets(PRIME_TABLE_SIZE + 1)
    with pytest.raises(ValueError, match="modulus"):
        IntegerSpectrum.geometric(2).residues(0, 4)


def test_crt_alpha_oracle():
    # alpha_p is the largest power of p dividing a closure member
    spec = CrtSequenceSpec(DivisorClosedSet([8, 9, 25, 30]))
    assert [spec.alpha(p) for p in (2, 3, 5, 7, 11)] == [3, 2, 2, 0, 0]


def test_crt_values_strictly_increasing():
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    vals = [crt_sequence_value(spec, k) for k in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# -- c.r.c. point sequence ----------------------------------------------------


@pytest.mark.parametrize("d", range(1, 7))
def test_crc_windows_span(d):
    pts = CrcPointSet(np.eye(d))
    for start in (1, 4, 11):
        window = np.array([crc_sequence(pts, start + j) for j in range(d)])
        s = np.linalg.svd(window, compute_uv=False)
        assert s[-1] > 0


@pytest.mark.parametrize("basis", [[], [np.ones(2)], np.ones((2, 3))])
def test_crc_rejects_malformed_basis(basis):
    with pytest.raises(ValueError, match="d >= 1 vectors of length d"):
        CrcPointSet(basis)


# -- Abakumov weights ---------------------------------------------------------


def test_abakumov_weights_oracle():
    f = scalar_series(range(8), np.ones(8))
    w = abakumov_weights(f)
    assert np.allclose(w, [1 / 7, 1 / 6, 1 / 5, 1 / 4, 1 / 3, 1 / 2, 1.0])


def test_abakumov_weights_geometric_tails():
    # |a_k|^2 = 4^{-k}: tail sums are 4^{-k}/3, so each ratio is 3
    f = scalar_series([2**k for k in range(1, 9)], [2.0**-k for k in range(1, 9)])
    w = abakumov_weights(f)
    # the last ratio sees only the final term; earlier ones approach 3
    assert w[0] == pytest.approx(4.0**-1 / sum(4.0**-k for k in range(2, 9)))
