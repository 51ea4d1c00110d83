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
    scalar_series,
)
from cyclica.constructions import PRIME_TABLE_SIZE, primes


def test_primes_oracle():
    assert primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def test_factorial_sequence_oracle():
    terms = IntegerSpectrum.factorial_plus_k().terms(6)
    assert terms[:4] == [3, 8, 27, 124]
    assert terms[-1] == math.factorial(7) + 6


@given(k=st.integers(1, 19), N=st.integers(1, 97))
@settings(max_examples=100, deadline=None)
def test_factorial_residue_matches_exact(k, N):
    s = IntegerSpectrum.factorial_plus_k()
    assert s.residues(N, k)[-1] == s.terms(k)[-1] % N


def test_factorial_residue_streams_past_overflow():
    # far past the 64-bit range, the residue never builds the factorial
    s = IntegerSpectrum.factorial_plus_k()
    assert s.residues(7, 100)[-1] == (math.factorial(101) + 100) % 7


# -- divisor-closed sets ------------------------------------------------------


def test_closure_oracle():
    assert DivisorClosedSet([4, 6]).closure == frozenset({1, 2, 3, 4, 6})


@given(gens=st.sets(st.integers(1, 60), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_closure_idempotent(gens):
    once = DivisorClosedSet(gens).closure
    twice = DivisorClosedSet(once).closure
    assert once == twice


@given(gens=st.sets(st.integers(1, 200), max_size=4))
@settings(max_examples=100, deadline=None)
def test_closure_matches_brute_force(gens):
    dcs = DivisorClosedSet(gens)
    brute = {1} | {m for g in gens for m in range(1, g + 1) if g % m == 0}
    assert dcs.closure == frozenset(brute)
    assert all((m in dcs) == (m in brute) for m in range(-2, 203))


def test_membership_does_not_enumerate_divisors():
    dcs = DivisorClosedSet([10**18])
    assert 5**18 in dcs and 2 * 10**9 in dcs
    assert 3 not in dcs and 0 not in dcs
    assert DivisorClosedSet([10**9]).closure == frozenset(
        2**i * 5**j for i in range(10) for j in range(10))


def test_closure_contains_one_and_generators():
    a = DivisorClosedSet([12])
    assert 1 in a.closure
    assert 12 in a.closure
    assert a.closure == frozenset({1, 2, 3, 4, 6, 12})


# -- CRT sequence -------------------------------------------------------------


def test_crt_residues_cover_closure_members():
    s = IntegerSpectrum.crt(CrtSequenceSpec(DivisorClosedSet([4, 6])))
    for a in sorted(DivisorClosedSet([4, 6]).closure):
        seen = set(s.residues(a, a + 63)[a - 1:])  # k = a..a+63
        assert seen == set(range(a)), f"classes mod {a} not all hit"


def test_crt_residues_vanish_outside_closure():
    # for a prime b outside the closure, n_k = 0 (mod b) for large k
    s = IntegerSpectrum.crt(CrtSequenceSpec(DivisorClosedSet([4, 6])))
    for b in (5, 7, 11):
        assert s.residues(b, 47)[31:] == [0] * 16  # k = 32..47


def test_crt_value_consistent_with_residue():
    s = IntegerSpectrum.crt(CrtSequenceSpec(DivisorClosedSet([4, 6])))
    for k in range(1, 10):
        v = s.terms(k)[-1]
        for N in (2, 3, 4, 6, 5):
            assert v % N == s.residues(N, k)[-1]


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
        assert spec.offsets(k)[-1] == _iterative_crt_r(spec, k), k


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
    assert s.residues(7, 40) == [n % 7 for n in exact[:40]]


def test_other_streams_match_per_index_definitions():
    # the running product n_k = P_k + r_k against the closed forms, exact and
    # reduced; the crt kind is checked with its offsets above
    K = 256
    ks = range(1, K + 1)
    explicit = [3, 5, 12, 40, 41, 1000, 2**70 + 1]  # shorter than the horizon
    closed = [(IntegerSpectrum.factorial_plus_k(), [math.factorial(k + 1) + k for k in ks]),
              (IntegerSpectrum.explicit(explicit), explicit)]
    closed += [(IntegerSpectrum.geometric(b), [b**k for k in ks]) for b in (2, 3, 10)]
    for s, exact in closed:
        assert s.terms(K) == exact, s.kind
        for N in STREAM_MODULI:
            assert s.residues(N, K) == [n % N for n in exact], (s.kind, N)


def test_exponent_table_is_shared_by_equal_specs(monkeypatch):
    calls = []
    alpha = CrtSequenceSpec.alpha
    monkeypatch.setattr(CrtSequenceSpec, "alpha",
                        lambda self, p: calls.append(p) or alpha(self, p))
    gens = [17**3, 19 * 23 * 29]
    first = CrtSequenceSpec(DivisorClosedSet(gens)).offsets(64)
    assert calls
    calls.clear()
    assert CrtSequenceSpec(DivisorClosedSet(gens)).offsets(64) == first
    assert calls == []


def test_per_index_forms_are_stream_entries():
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    crt, factorial = IntegerSpectrum.crt(spec), IntegerSpectrum.factorial_plus_k()
    for k in (1, 2, 17, 256):
        r = spec.offsets(k)[-1]
        assert r == _iterative_crt_r(spec, k)
        assert crt.residues(7, k)[-1] == (math.factorial(k + 1) + r) % 7
        assert factorial.residues(7, k)[-1] == (math.factorial(k + 1) + k) % 7
    with pytest.raises(ValueError, match="prime table"):
        spec.offsets(PRIME_TABLE_SIZE + 1)
    with pytest.raises(ValueError, match="count"):
        spec.offsets(-1)
    with pytest.raises(ValueError, match="modulus"):
        IntegerSpectrum.geometric(2).residues(0, 4)


def test_crt_alpha_oracle():
    # alpha_p is the largest power of p dividing a closure member
    spec = CrtSequenceSpec(DivisorClosedSet([8, 9, 25, 30]))
    assert [spec.alpha(p) for p in (2, 3, 5, 7, 11)] == [3, 2, 2, 0, 0]


def test_crt_values_strictly_increasing():
    vals = IntegerSpectrum.crt(CrtSequenceSpec(DivisorClosedSet([4, 6]))).terms(11)
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
