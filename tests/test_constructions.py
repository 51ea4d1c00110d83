import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclica import (
    CrcPointSet,
    CrtSequenceSpec,
    DivisorClosedSet,
    abakumov_weights,
    crc_sequence,
    crt_sequence_residue,
    crt_sequence_value,
    factorial_residue,
    factorial_sequence,
    scalar_series,
)
from cyclica.constructions import primes


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
    assert factorial_residue(k, N) == factorial_sequence(k) % N


def test_factorial_residue_streams_past_overflow():
    # exact evaluation is impossible at k=100, the residue is still cheap
    assert factorial_residue(100, 7) == (math.factorial(101) + 100) % 7


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
        seen = {crt_sequence_residue(spec, k, a) for k in range(a, a + 64)}
        assert seen == set(range(a)), f"classes mod {a} not all hit"


def test_crt_residues_vanish_outside_closure():
    # for a prime b outside the closure, n_k = 0 (mod b) for large k
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    for b in (5, 7, 11):
        assert all(crt_sequence_residue(spec, k, b) == 0 for k in range(32, 48))


def test_crt_value_consistent_with_residue():
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    for k in range(1, 10):
        v = crt_sequence_value(spec, k)
        for N in (2, 3, 4, 6, 5):
            assert v % N == crt_sequence_residue(spec, k, N)


def _iterative_crt_r(spec, k):
    """r_k by pairing k (mod a_k) with 0 (mod b) once per prime b in B_k."""
    res, mod = k % spec.a(k), spec.a(k)
    for b in spec.b(k):
        assert math.gcd(mod, b) == 1
        res = (res + mod * ((0 - res) * pow(mod, -1, b) % b)) % (mod * b)
        mod *= b
    return res


@pytest.mark.parametrize("gens", [[1], [2, 3], [4, 6], [12], [8, 9, 25], [30, 49]])
def test_crt_r_matches_iterative_pairing(gens):
    spec = CrtSequenceSpec(DivisorClosedSet(gens))
    for k in range(1, 65):
        assert spec.r(k) == _iterative_crt_r(spec, k), k


def test_crt_alpha_oracle():
    # alpha_p is the largest power of p dividing a closure member
    spec = CrtSequenceSpec(DivisorClosedSet([8, 9, 25, 30]))
    assert [spec.alpha(p) for p in (2, 3, 5, 7, 11)] == [3, 2, 2, 0, 0]
    assert spec.a(3) == 2**3 * 3**2 * 5**2
    assert spec.b(5) == (7, 11)


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


def test_crc_validate_prefix():
    pts = CrcPointSet(np.eye(3))
    pts.validate_prefix(12)


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
