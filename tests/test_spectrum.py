from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclica import (
    IntegerSpectrum,
    MultiSpectrum,
    bounded_block_check,
    difference_multiplicity,
    lacunarity_ratio,
    polydisc_c1,
    polydisc_c2,
    residues_hit,
    spectrum_admits_SstarN,
)
from cyclica.constructions import CrtSequenceSpec, DivisorClosedSet
from cyclica.spectrum import is_hadamard_lacunary


# -- terms and residues -------------------------------------------------------


def test_geometric_terms():
    s = IntegerSpectrum.geometric(2)
    assert s.terms(5) == [2, 4, 8, 16, 32]


def test_factorial_terms():
    # (k+1)! + k, checked by hand for the first few
    s = IntegerSpectrum.factorial_plus_k()
    assert s.terms(4) == [3, 8, 27, 124]


def test_terms_are_one_indexed():
    s = IntegerSpectrum.explicit([5, 9])
    assert s.terms(1) == [5]
    assert s.terms(0) == []
    # cut to the list's length, as residues are
    assert s.terms(3) == [5, 9]


def test_non_integral_numbers_rejected():
    with pytest.raises(TypeError):
        IntegerSpectrum.geometric(2.5)
    # the direct form checks the base as the constructor does
    with pytest.raises(TypeError):
        IntegerSpectrum("geometric", base=2.5)
    assert IntegerSpectrum("geometric", base=np.int64(3)).terms(2) == [3, 9]
    with pytest.raises(TypeError):
        IntegerSpectrum.explicit([1.5, 3.9])
    # numpy integers are integers
    assert IntegerSpectrum.geometric(np.int64(3)).terms(2) == [3, 9]
    assert IntegerSpectrum.explicit(np.array([2, 7])).terms(2) == [2, 7]


def test_modulus_and_block_width_are_integers():
    # a modulus or a width of 2.5 was used as given: float residues, a block check
    s = IntegerSpectrum.geometric(2)
    with pytest.raises(TypeError, match="'modulus' must hold integers"):
        s.residues(2.5, 4)
    with pytest.raises(TypeError, match="'N' must hold integers"):
        bounded_block_check(s, 2.5, 8, 1.5)
    assert s.residues(np.int64(3), 4) == s.residues(3, 4)


@given(k=st.integers(1, 40), N=st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_streamed_residue_matches_term(k, N):
    for s in (IntegerSpectrum.geometric(3), IntegerSpectrum.factorial_plus_k()):
        assert s.residues(N, k)[-1] == s.terms(k)[-1] % N


def test_factorial_residue_congruent_to_k():
    # n_k = k (mod N) for every k >= N - 1: the key arithmetic fact
    s = IntegerSpectrum.factorial_plus_k()
    for N in range(2, 13):
        for k in range(N - 1, N + 20):
            assert s.residues(N, k)[-1] == k % N


# -- lacunarity and difference multiplicity -----------------------------------


def test_lacunarity_ratio_geometric():
    assert lacunarity_ratio(IntegerSpectrum.geometric(2), 20) == pytest.approx(2.0)


def test_lacunarity_ratio_factorial_oracle():
    # min over k of n_{k+1}/n_k is attained at k=1: 8/3
    s = IntegerSpectrum.factorial_plus_k()
    assert lacunarity_ratio(s, 12) == pytest.approx(8.0 / 3.0)


def test_is_hadamard_lacunary():
    assert is_hadamard_lacunary(IntegerSpectrum.geometric(2), 2.0)
    assert not is_hadamard_lacunary(IntegerSpectrum.explicit([1, 2, 3, 4]), 1.5)


def test_difference_multiplicity_stabilizes():
    s = IntegerSpectrum.geometric(2)
    assert difference_multiplicity(s, 16) == 1
    assert difference_multiplicity(s, 32) == 1
    assert difference_multiplicity(s, 64) == 1


def test_difference_multiplicity_oracle():
    # 1, 2, 3 has difference 1 twice
    assert difference_multiplicity(IntegerSpectrum.explicit([1, 2, 3]), 8) == 2


# -- residue criterion --------------------------------------------------------


def test_N_equals_one_always_proven():
    for s in (
        IntegerSpectrum.geometric(5),
        IntegerSpectrum.explicit([0, 7]),
        IntegerSpectrum.factorial_plus_k(),
    ):
        assert spectrum_admits_SstarN(s, 1).status == "Proven"


def test_factorial_proven_for_all_N():
    s = IntegerSpectrum.factorial_plus_k()
    for N in range(1, 13):
        assert spectrum_admits_SstarN(s, N).status == "Proven"


def test_geometric2_mod2_no_witness():
    v = spectrum_admits_SstarN(IntegerSpectrum.geometric(2), 2)
    assert v.status == "No-witness"
    assert v.detail["missing_residues"] == [1]
    assert not bool(v)


def test_divisor_monotonicity():
    # N admissible and m | N => m admissible
    spec = CrtSequenceSpec(DivisorClosedSet([4, 6]))
    s = IntegerSpectrum.crt(spec)
    good = {N for N in range(1, 13) if bool(spectrum_admits_SstarN(s, N))}
    for N in good:
        for m in range(1, N + 1):
            if N % m == 0:
                assert m in good


def test_residues_hit_shift_invariance():
    base = [3, 7, 15, 31, 63]
    N, c = 4, 5
    a = residues_hit(IntegerSpectrum.explicit(base), N, window=len(base))
    b = residues_hit(
        IntegerSpectrum.explicit([n + c * N for n in base]), N, window=len(base)
    )
    assert a == b


def test_explicit_full_coverage_at_horizon():
    # every tail of 1,2,3,...,40 covers both classes mod 2
    s = IntegerSpectrum.explicit(list(range(1, 41)))
    v = spectrum_admits_SstarN(s, 2, horizon=40)
    assert v.status == "Yes-at-horizon"
    assert bool(v)


@given(seed=st.integers(0, 10**6), N=st.integers(2, 7), horizon=st.integers(1, 48))
@settings(max_examples=200, deadline=None)
def test_residue_witness_matches_tail_scan(seed, N, horizon):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.integers(1, 2 * N, size=int(rng.integers(1, 48))))
    s = IntegerSpectrum.explicit([int(v) for v in values])
    v = spectrum_admits_SstarN(s, N, horizon)
    # the scan over every tail start m <= K/2
    K = min(horizon, len(values))
    res = [int(n) % N for n in values[:K]]
    for m in range(1, max(K // 2, 1) + 1):
        missing = set(range(N)) - set(res[m - 1:])
        if missing:
            assert v.witness == m and v.detail["missing_residues"] == sorted(missing)
            break
    else:
        assert v.status == "Yes-at-horizon"


# -- bounded blocks -----------------------------------------------------------


def test_bounded_block_check_straddling_pairs():
    # {2^k - 1, 2^k}: each pair collapses into lacunary width-2 blocks... but
    # the pair straddles two cells, so indices come in adjacent non-lacunary
    # pairs and the plain block check must reject them
    vals = sorted(v for k in range(2, 12) for v in (2**k - 1, 2**k))
    assert not bounded_block_check(IntegerSpectrum.explicit(vals), 2, 32, 1.5)


def test_bounded_block_check_geometric():
    assert bounded_block_check(IntegerSpectrum.geometric(2), 2, 20, 1.9)


def test_bounded_block_check_rejects_dense():
    s = IntegerSpectrum.explicit(list(range(1, 30)))
    assert not bounded_block_check(s, 2, 30, 1.2)


# -- polydisc conditions ------------------------------------------------------


def test_polydisc_c1_oracle_lacunary_pairs():
    ms = MultiSpectrum([(2**k, 3**k) for k in range(1, 9)])
    assert polydisc_c1(ms) == 1


def test_polydisc_c1_oracle_grid():
    # the 2x2 grid has the difference (1,0) twice
    ms = MultiSpectrum([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert polydisc_c1(ms) == 2


def _c1_pair_loop(ms):
    """Reference C1: every ordered pair of distinct entries in Python, its
    difference counted when it is componentwise nonnegative."""
    counts = Counter()
    for a in ms.entries:
        for b in ms.entries:
            if a == b:
                continue
            diff = tuple(x - y for x, y in zip(a, b))
            if all(c >= 0 for c in diff):
                counts[diff] += 1
    return max(counts.values(), default=0)


def _grid_multispectrum(seed):
    """1-30 distinct entries in Z_+^d, d = 1..4, drawn from a grid small
    enough that differences repeat, in a random enumeration order."""
    rng = np.random.default_rng(seed)
    d, n = 1 + seed % 4, int(rng.integers(1, 31))
    side = int(np.ceil(n ** (1 / d))) + 1
    flat = rng.choice(side**d, size=n, replace=False)
    return [tuple(int(c) for c in e) for e in zip(*np.unravel_index(flat, (side,) * d))]


@pytest.mark.parametrize("seed", range(60))
def test_polydisc_c1_matches_pair_loop(seed):
    entries = _grid_multispectrum(seed)
    ms = MultiSpectrum(entries)
    c1 = _c1_pair_loop(ms)
    assert polydisc_c1(ms) == c1
    # exact above 2^63: a common shift and a positive scale keep every count
    big = MultiSpectrum([tuple(2**64 + 2**70 * c for c in e) for e in entries])
    assert polydisc_c1(big) == _c1_pair_loop(big) == c1


def test_polydisc_c1_oracle_draws_repeat_differences():
    # the grids are dense: most draws have some difference more than once
    repeats = sum(_c1_pair_loop(MultiSpectrum(_grid_multispectrum(s))) > 1
                  for s in range(60))
    assert repeats >= 40, repeats


@pytest.mark.parametrize("entries", [[(7,)], [(2**64, 3)], [(1, 0), (0, 1)],
                                     [(2**64, 0), (0, 2**64)]],
                         ids=["one-1d", "one-big", "antichain", "antichain-big"])
def test_polydisc_c1_without_comparable_pairs(entries):
    # one entry, or no two entries ordered componentwise: no difference at all
    ms = MultiSpectrum(entries)
    assert polydisc_c1(ms) == _c1_pair_loop(ms) == 0


def test_polydisc_c1_has_no_empty_spectrum():
    with pytest.raises(ValueError, match="at least one entry"):
        MultiSpectrum([])


def test_polydisc_c2_verdicts():
    good = MultiSpectrum([(2**k, 3**k) for k in range(1, 9)])
    _, v = polydisc_c2(good)
    assert bool(v)
    bad = MultiSpectrum([(k, k) for k in range(1, 9)])
    gaps, v = polydisc_c2(bad)
    assert not bool(v)
    assert gaps[0] == [1] * 7


def test_multispectrum_rejects_duplicates():
    with pytest.raises(ValueError):
        MultiSpectrum([(1, 2), (1, 2)])
