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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import VectorSeries

__all__ = [
    "PRIME_TABLE_SIZE",
    "primes",
    "factorial_sequence",
    "factorial_residue",
    "DivisorClosedSet",
    "CrtSequenceSpec",
    "crt_sequence_residue",
    "crt_sequence_value",
    "CrcPointSet",
    "crc_sequence",
    "abakumov_weights",
]

# Largest factorial argument for which (k+1)! + k is still exact in 64 bits.
_MAX_EXACT_K = 19

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


def factorial_sequence(k: int) -> int:
    """n_k = (k+1)! + k, exact only while it fits a 64-bit integer.

    Use :func:`factorial_residue` for arbitrary k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > _MAX_EXACT_K:
        raise OverflowError(
            f"(k+1)!+k exceeds the 64-bit range for k = {k} > {_MAX_EXACT_K}; "
            "use factorial_residue for a residue view"
        )
    return math.factorial(k + 1) + k


def factorial_residue(k: int, modulus: int) -> int:
    """((k+1)! + k) mod modulus, streamed so the factorial never materializes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    fact = 1
    for i in range(2, k + 2):
        fact = (fact * i) % modulus
        if fact == 0:
            break
    return (fact + k) % modulus


@dataclass(frozen=True)
class DivisorClosedSet:
    """The divisor closure of a finite set of positive integer generators."""

    generators: frozenset
    closure: frozenset = field(init=False)

    def __init__(self, generators):
        gens = frozenset(int(g) for g in generators)
        if any(g < 1 for g in gens):
            raise ValueError("generators must be positive")
        clo = {1}
        for g in gens:
            for m in range(1, g + 1):
                if g % m == 0:
                    clo.add(m)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "closure", frozenset(clo))

    def __contains__(self, m):
        return m in self.closure

    def sorted(self):
        return sorted(self.closure)


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
    r_k = M * (k * M^-1 mod a_k).
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

    @cached_property
    def _exponents(self) -> tuple:
        """(p, alpha_p) for each prime of the table, in table order."""
        return tuple((p, self.alpha(p)) for p in primes(PRIME_TABLE_SIZE))

    def _check_k(self, k):
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > PRIME_TABLE_SIZE:
            raise ValueError(
                f"k = {k} exceeds the prime table ({PRIME_TABLE_SIZE} primes)"
            )

    def a(self, k: int) -> int:
        self._check_k(k)
        return math.prod(p ** min(k, e) for p, e in self._exponents[:k])

    def b(self, k: int) -> tuple:
        self._check_k(k)
        return tuple(p for p, e in self._exponents[:k] if e == 0)

    def r(self, k: int) -> int:
        a_k, m = self.a(k), math.prod(self.b(k))
        return m * (k * pow(m, -1, a_k) % a_k)


def crt_sequence_value(spec: CrtSequenceSpec, k: int) -> int:
    """Exact n_k = (k+1)! + r_k as an arbitrary-precision integer."""
    spec._check_k(k)
    return math.factorial(k + 1) + spec.r(k)


def crt_sequence_residue(spec: CrtSequenceSpec, k: int, modulus: int) -> int:
    """n_k mod modulus without materializing (k+1)! at full size."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    spec._check_k(k)
    return (factorial_residue(k, modulus) - k + spec.r(k)) % modulus


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
    if k < 1:
        raise ValueError("k must be >= 1")
    lam = complex(1.0 / (k + 1))
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
