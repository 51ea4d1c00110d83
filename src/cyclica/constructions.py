"""Integer and vector sequence generators used throughout the package.

Four constructions live here:

* the factorial sequence n_k = (k+1)! + k, which satisfies n_k = k (mod N)
  for every k >= N - 1 and therefore meets every residue class modulo every N
  along every tail;
* the Chinese-remainder sequence n_k = (k+1)! + r_k whose residue behaviour
  realizes a prescribed divisor-closed set of moduli;
* coefficient sequences a_k = sum_j lambda_k^j x_j whose every d-element
  subset spans C^d (a Vandermonde argument);
* the tail weights R_k = ||a_k||^2 / sum_{j>k} ||a_j||^2.

Both integer sequences are evaluated by :class:`~cyclica.IntegerSpectrum` as
a running product plus an offset, n_k = P_k + r_k with P_k = P_(k-1) (k+1);
the offsets r_k of the CRT sequence come from :meth:`CrtSequenceSpec.offsets`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import VectorSeries, _index

__all__ = [
    "PRIME_TABLE_SIZE",
    "primes",
    "DivisorClosedSet",
    "CrtSequenceSpec",
    "CrcPointSet",
    "crc_sequence",
    "abakumov_weights",
]

PRIME_TABLE_SIZE = 256


@lru_cache(maxsize=None)
def primes(count: int = PRIME_TABLE_SIZE) -> tuple:
    """The first ``count`` primes, via a plain sieve."""
    # p_256 = 1619; sieve with headroom
    limit = max(16, int(count * (math.log(count + 2) + math.log(math.log(count + 4)) + 2)))
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    found = np.flatnonzero(sieve)
    if found.size < count:  # pragma: no cover - headroom is generous
        return primes.__wrapped__(count * 2)[:count]
    return tuple(int(p) for p in found[:count])


@dataclass(frozen=True)
class DivisorClosedSet:
    """The divisor closure of a finite set of positive integer generators.

    ``m in dcs`` asks whether m divides a generator (1 always belongs);
    :attr:`closure` lists the members, found on first read by trial
    division up to the square root of each generator.
    """

    generators: frozenset

    def __init__(self, generators):
        gens = frozenset(_index(g, "generators", 1) for g in generators)
        object.__setattr__(self, "generators", gens)

    @cached_property
    def closure(self) -> frozenset:
        clo = {1}
        for g in self.generators:
            for m in range(1, math.isqrt(g) + 1):
                if g % m == 0:
                    clo.update((m, g // m))
        return frozenset(clo)

    def __contains__(self, m):
        return m == 1 or (m >= 1 and any(g % m == 0 for g in self.generators))


@dataclass(frozen=True)
class CrtSequenceSpec:
    """Per-index CRT data for the sequence n_k = (k+1)! + r_k.

    With p_1 < p_2 < ... the prime table and
    alpha_p = max{a : p^a divides some element of the closure}:

        a_k = prod_{i<=k} p_i^{min(k, alpha_{p_i})}
        B_k = {p_i : i <= k, alpha_{p_i} = 0}

    and r_k is the canonical residue with r_k = k (mod a_k) and
    r_k = 0 (mod b) for every b in B_k.  The primes of a_k and of B_k are
    disjoint, so with M = prod B_k one pairing gives
    r_k = M * (k * M^-1 mod a_k).  :meth:`offsets` streams r_1, ..., r_K.
    """

    divisor_set: DivisorClosedSet

    def alpha(self, p: int) -> int:
        # closure members divide the generators, so the generators suffice
        best = 0
        for a in self.divisor_set.generators:
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            best = max(best, e)
        return best

    def offsets(self, count: int) -> list:
        """[r_1, ..., r_count] in one pass.

        From k - 1 to k, a_k gains one factor p_i for every earlier prime
        with alpha_{p_i} >= k and p_k^min(k, alpha_{p_k}) for the new one,
        or M gains p_k; M mod a_k is carried along, so each step inverts a
        number below a_k instead of rebuilding both products.
        """
        if _index(count, "count", 0) > PRIME_TABLE_SIZE:
            raise ValueError(
                f"k = {count} exceeds the prime table ({PRIME_TABLE_SIZE} primes)"
            )
        out = []
        a, m, m_mod_a = 1, 1, 0
        powered = []  # (p_i, alpha_{p_i}) for the primes of a_k so far
        for k, (p, e) in enumerate(_exponents(self)[:count], 1):
            grow = math.prod(q for q, eq in powered if eq >= k)
            if e:
                grow *= p ** min(k, e)
                powered.append((p, e))
            else:
                m *= p
            if grow > 1:
                a *= grow
                m_mod_a = m % a
            else:
                m_mod_a = m_mod_a * p % a
            out.append(m * (k * pow(m_mod_a, -1, a) % a))
        return out


@lru_cache
def _exponents(spec: CrtSequenceSpec) -> tuple:
    """(p, alpha_p) for each prime of the table, in table order; specs with
    the same generators are equal and share one table."""
    # a prime above every generator divides none of them
    top = max(spec.divisor_set.generators, default=0)
    return tuple((p, spec.alpha(p) if p <= top else 0)
                 for p in primes(PRIME_TABLE_SIZE))


@dataclass(frozen=True)
class CrcPointSet:
    """Interpolation data for coefficient sequences a_k = sum_j lambda_k^j x_j.

    ``basis`` is a list of d vectors spanning C^d, and lambda_k = 1/(k+1) for
    k >= 1: real, positive, strictly decreasing and tending to 0, so the
    normalized directions a_k/||a_k|| converge.
    """

    basis: tuple

    def __init__(self, basis):
        b = tuple(np.asarray(x, dtype=complex) for x in basis)
        d = len(b)
        if d == 0 or any(x.shape != (d,) for x in b):
            raise ValueError("basis must consist of d >= 1 vectors of length d")
        if np.linalg.matrix_rank(np.column_stack(b)) < d:
            raise ValueError("basis must span C^d")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis[0].shape[0]


def crc_sequence(points: CrcPointSet, k: int) -> np.ndarray:
    """a_k = sum_{j=0}^{d-1} lambda_k^j x_j with lambda_k = 1/(k+1)."""
    lam = complex(1.0 / (_index(k, "k", 1) + 1))
    out = np.zeros(points.dim, dtype=complex)
    for j, x in enumerate(points.basis):
        out += lam**j * x
    return out


def abakumov_weights(f: VectorSeries) -> np.ndarray:
    """R_k = ||a_k||^2 / sum_{j>k} ||a_j||^2 for all but the last stored term."""
    if len(f) < 2:
        raise ValueError("need at least 2 terms to form tail weights")
    sq = np.sum(np.abs(f.coeffs) ** 2, axis=1)
    tails = np.cumsum(sq[::-1])[::-1]  # tails[k] = sum_{j>=k} sq[j]
    tail_after = tails[1:]
    if np.any(tail_after == 0.0):
        raise ValueError("zero tail norm")
    return sq[:-1] / tail_after
